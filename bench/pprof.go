package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads a runtime/pprof CPU profile with the standard library
// alone: gunzip, then a minimal protobuf walk of profile.proto's samples,
// locations and functions.  It yields where host CPU time went, per Go
// package, so the benchmark needs no toolchain at run time.

// hostLayers maps Go packages to the host.<layer>_share metrics, packages
// of one layer adjacent; any package not listed is "other".  GC and
// allocation time is "gc".
var hostLayers = []struct{ pkg, layer string }{
	{"sva/internal/vm", "vm"},
	{"sva/internal/hw", "hw"},
	{"sva/internal/metapool", "metapool"},
	{"sva/internal/splay", "splay"},
	{"sva/internal/svaos", "svaos"},
	{"sva/internal/svaops", "svaos"},
	{"sva/internal/kernel", "kernel"},
	{"sva/internal/telemetry", "telemetry"},
	{"sva/internal/ir", "ir"},
}

// hostLayerNames lists every layer hostShares reports, "gc" and "other"
// included; the shares sum to 1.
func hostLayerNames() []string {
	var names []string
	for i, l := range hostLayers {
		if i == 0 || l.layer != hostLayers[i-1].layer {
			names = append(names, l.layer)
		}
	}
	return append(names, "gc", "other")
}

// hostShares returns each host layer's share of the profile's CPU time.
func hostShares(gz []byte) (map[string]float64, error) {
	w, err := packageWeights(gz)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for _, name := range hostLayerNames() {
		shares[name] = 0
	}
	var total int64
	for _, v := range w {
		total += v
	}
	if total == 0 {
		return nil, errors.New("pprof: profile holds no samples")
	}
	for pkg, v := range w {
		layer := "other"
		if pkg == "gc" {
			layer = "gc"
		}
		for _, l := range hostLayers {
			if pkg == l.pkg {
				layer = l.layer
			}
		}
		shares[layer] += float64(v) / float64(total)
	}
	return shares, nil
}

// packageWeights attributes each sample's CPU time to a Go package: the
// package of the innermost frame outside the runtime, or "gc" when a
// runtime frame below it belongs to garbage collection or allocation.
// Other runtime helpers (map access, hashing, locks, copies) count toward
// the code that called them.
func packageWeights(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	vi := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			vi = i
		}
	}
	w := map[string]int64{}
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			return nil, errors.New("pprof: sample without a cpu value")
		}
		w[p.samplePackage(s)] += s.values[vi]
	}
	return w, nil
}

func (p *profile) samplePackage(s sample) string {
	for _, loc := range s.locs {
		for _, fn := range p.locs[loc] {
			name := p.funcs[fn]
			if pkg := funcPackage(name); !isRuntime(pkg) {
				return pkg
			}
			if isGCFrame(name) {
				return "gc"
			}
		}
	}
	return "runtime"
}

// funcPackage returns the import path of a symbol such as
// "sva/internal/vm.(*VM).step" or "runtime.mallocgc".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiations may hold '/' and '.'
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// isRuntime reports whether pkg is the Go runtime or one of the standard
// library internals it calls into on behalf of user code.  Assembly
// routines such as aeshashbody carry no package at all.
func isRuntime(pkg string) bool {
	return pkg == "runtime" || pkg == "sync" || pkg == "sync/atomic" ||
		strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/") ||
		!strings.Contains(pkg, ".") && !strings.Contains(pkg, "/") && pkg != "main"
}

var gcFrames = []string{
	"mallocgc", "newobject", "makeslice", "growslice", "makemap", "gcBgMarkWorker", "gcDrain",
	"gcAssist", "gcStart", "gcMark", "scanobject", "scanblock", "scanstack", "markroot",
	"greyobject", "findObject", "sweep", "mheap", "mcache", "mcentral", "mspan", "gcWork",
	"wbBuf", "bulkBarrier", "heapBits", "typePointers",
}

func isGCFrame(name string) bool {
	for _, f := range gcFrames {
		if strings.Contains(name, f) {
			return true
		}
	}
	return false
}

// profile is the subset of profile.proto the shares need.
type profile struct {
	sampleTypes []string
	samples     []sample
	locs        map[uint64][]uint64 // location id -> function ids, innermost first
	funcs       map[uint64]string   // function id -> name
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// Field numbers of profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]string{}}
	var strs []string
	var typeIdx []uint64
	funcName := map[uint64]uint64{}
	err := walk(b, func(num int, typ int, v uint64, data []byte) error {
		switch num {
		case profSampleType:
			return walk(data, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case profSample:
			var s sample
			err := walk(data, func(n, t int, v uint64, d []byte) error {
				switch n {
				case 1:
					return repeated(t, v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(t, v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := walk(data, func(n, _ int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line: function_id = 1
					return walk(d, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := walk(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case profStringTable:
			if typ != wireBytes {
				return errors.New("pprof: malformed string table")
			}
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("pprof: string index %d out of range", i)
		}
		return strs[i], nil
	}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for id, i := range funcName {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.funcs[id] = s
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// walk calls fn for each field of message b: v holds a varint field's
// value, data a length-delimited field's payload.  Fixed-width fields,
// which the profile fields read here never use, are skipped.
func walk(b []byte, fn func(num, typ int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: malformed field key")
		}
		b = b[n:]
		num, typ := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch typ {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("pprof: malformed varint")
			}
			b = b[n:]
		case wireFixed64:
			if len(b) < 8 {
				return errors.New("pprof: truncated fixed64")
			}
			b = b[8:]
		case wireFixed32:
			if len(b) < 4 {
				return errors.New("pprof: truncated fixed32")
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("pprof: malformed length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", typ)
		}
		if err := fn(num, typ, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes one element of a repeated varint field, packed or not.
func repeated(typ int, v uint64, data []byte, add func(uint64)) error {
	if typ == wireVarint {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("pprof: malformed packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}
