package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"time"

	"sva/internal/telemetry"
	"sva/internal/vm"
)

// tracer records the traced run: a span around every call the benchmark
// makes into a layer, and per-pass telemetry deltas plus a virtual-cycle
// profile.  Spans stay in memory until the run ends.  A nil *tracer
// records nothing, which is how the untraced run calls the same code.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	// profile makes passes collect layer samples as well as spans.
	profile bool
}

// span is one timed call.  Parent 0 means a root span; IDs start at 1.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

func (tr *tracer) begin(name string, pass, parent int) int {
	if tr == nil {
		return 0
	}
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Name: name,
		Workload: tr.workload, Pass: pass, StartNs: time.Since(tr.t0).Nanoseconds()})
	return len(tr.spans)
}

func (tr *tracer) end(id int) {
	if tr == nil || id == 0 {
		return
	}
	tr.spans[id-1].EndNs = time.Since(tr.t0).Nanoseconds()
}

// writeSpans writes the spans as JSON lines.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerSample is one profiled pass's per-layer counts: telemetry deltas over
// the whole machine and the boot VCPU's virtual-cycle profile.
type layerSample struct {
	vm       telemetry.VMStats
	checks   telemetry.CheckStats
	splay    uint64 // lookups that reached a splay tree
	syscalls uint64
	prof     *telemetry.Profile
	// cycles0/ops0 are the profiled VCPU's cycles and the ops it carried.
	cycles0, ops0 uint64
}

// beginPass snapshots telemetry and attaches a fresh profiler to v.
func (tr *tracer) beginPass(v *vm.VM) *telemetry.Snapshot {
	if tr == nil || !tr.profile {
		return nil
	}
	s := v.Telemetry.Snapshot()
	v.EnableProfiling()
	return &s
}

// endPass detaches the profiler and returns the pass's layer sample.
func (tr *tracer) endPass(v *vm.VM, before *telemetry.Snapshot, cycles0, ops0 uint64) *layerSample {
	if before == nil {
		return nil
	}
	prof := v.Profiler().Snapshot()
	v.DisableProfiling()
	after := v.Telemetry.Snapshot()
	return &layerSample{
		vm:       vmDelta(after.VM, before.VM),
		checks:   checkDelta(after.Checks.Totals, before.Checks.Totals),
		splay:    splayLookups(after) - splayLookups(*before),
		syscalls: syscallCount(after) - syscallCount(*before),
		prof:     prof,
		cycles0:  cycles0,
		ops0:     ops0,
	}
}

func splayLookups(s telemetry.Snapshot) uint64 {
	var n uint64
	for _, p := range s.Checks.Pools {
		n += p.SplayLookups
	}
	return n
}

func syscallCount(s telemetry.Snapshot) uint64 {
	var n uint64
	for _, c := range s.Kernel.Syscalls {
		n += c
	}
	return n
}

func vmDelta(a, b telemetry.VMStats) telemetry.VMStats {
	return telemetry.VMStats{
		Steps: a.Steps - b.Steps, KSteps: a.KSteps - b.KSteps, EngineSteps: a.EngineSteps - b.EngineSteps,
		Calls: a.Calls - b.Calls, Traps: a.Traps - b.Traps, Intrinsics: a.Intrinsics - b.Intrinsics,
		MemOps: a.MemOps - b.MemOps, ChecksBounds: a.ChecksBounds - b.ChecksBounds,
		ChecksLS: a.ChecksLS - b.ChecksLS, ChecksIC: a.ChecksIC - b.ChecksIC,
		ElidedBounds: a.ElidedBounds - b.ElidedBounds, ElidedLS: a.ElidedLS - b.ElidedLS,
		Translations: a.Translations - b.Translations, Switches: a.Switches - b.Switches,
		Oops: a.Oops - b.Oops, FailStops: a.FailStops - b.FailStops,
		WatchdogFaults: a.WatchdogFaults - b.WatchdogFaults, Quarantines: a.Quarantines - b.Quarantines,
	}
}

func checkDelta(a, b telemetry.CheckStats) telemetry.CheckStats {
	return telemetry.CheckStats{
		Registered: a.Registered - b.Registered, Dropped: a.Dropped - b.Dropped,
		BoundsChecks: a.BoundsChecks - b.BoundsChecks, LSChecks: a.LSChecks - b.LSChecks,
		ICChecks: a.ICChecks - b.ICChecks, ElidedBounds: a.ElidedBounds - b.ElidedBounds,
		ElidedLS: a.ElidedLS - b.ElidedLS, Violations: a.Violations - b.Violations,
		PageHits: a.PageHits - b.PageHits, CacheHits: a.CacheHits - b.CacheHits,
		CacheMisses: a.CacheMisses - b.CacheMisses, PendHits: a.PendHits - b.PendHits,
		Absorbed: a.Absorbed - b.Absorbed, Spilled: a.Spilled - b.Spilled,
		Batched: a.Batched - b.Batched, EpochReclaims: a.EpochReclaims - b.EpochReclaims,
	}
}

// heapAllocs reads the Go heap's cumulative allocated bytes without
// stopping the world (runtime.ReadMemStats would).
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
