package hw

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

// benchMemory runs fn against a uniprocessor and an SMP memory with the
// pages it touches already materialized, so the numbers are the
// steady-state cost of one transfer.
func benchMemory(b *testing.B, fn func(m *PhysMemory, i int)) {
	for _, smp := range []bool{false, true} {
		b.Run(fmt.Sprintf("smp=%v", smp), func(b *testing.B) {
			m := NewPhysMemory(0)
			if err := m.Zero(0, 4*PageSize); err != nil {
				b.Fatal(err)
			}
			m.EnableSMP(smp)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn(m, i)
			}
		})
	}
}

// benchSink keeps benchmarked loads from being optimized away.
var benchSink uint64

func BenchmarkPhysMemoryLoad8(b *testing.B) {
	benchMemory(b, func(m *PhysMemory, i int) {
		v, _ := m.Load(PageSize+uint64(i&511)*8, 8)
		benchSink += v
	})
}

func BenchmarkPhysMemoryStore1(b *testing.B) {
	benchMemory(b, func(m *PhysMemory, i int) {
		_ = m.Store(PageSize+uint64(i&4095), uint64(i), 1)
	})
}

func BenchmarkPhysMemoryStore8(b *testing.B) {
	benchMemory(b, func(m *PhysMemory, i int) {
		_ = m.Store(PageSize+uint64(i&511)*8, uint64(i), 8)
	})
}

func BenchmarkPhysMemoryReadAt128(b *testing.B) {
	var buf [128]byte
	benchMemory(b, func(m *PhysMemory, i int) {
		_ = m.ReadAt(PageSize+uint64(i&31)*128, buf[:])
		benchSink += uint64(buf[i&127])
	})
}

func BenchmarkPhysMemoryWriteAt128(b *testing.B) {
	var buf [128]byte
	benchMemory(b, func(m *PhysMemory, i int) {
		_ = m.WriteAt(PageSize+uint64(i&31)*128, buf[:])
	})
}

// TestPhysMemoryWordByteOrder pins the byte order of word-atomic access:
// le maps a page word as the host loads it to the value whose bits
// 8i..8i+7 are byte i of memory, so SMP Load/Store agree with the
// uniprocessor byte paths on any host.
func TestPhysMemoryWordByteOrder(t *testing.T) {
	img := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	want := binary.LittleEndian.Uint64(img)
	if hostBigEndian != (binary.NativeEndian.Uint64(img) != want) {
		t.Fatalf("hostBigEndian = %v disagrees with the host's byte order", hostBigEndian)
	}

	m := NewPhysMemory(0)
	if err := m.WriteAt(0, img); err != nil {
		t.Fatal(err)
	}
	p := m.page(0)
	if got := loadWord(p, 0); got != want {
		t.Fatalf("loadWord = %#x, want %#x", got, want)
	}
	m.EnableSMP(true)
	for off := uint64(0); off < 8; off++ {
		for _, size := range []int{1, 2, 4, 8} {
			if off+uint64(size) > 8 {
				continue
			}
			got, err := m.Load(off, size)
			if w := want >> (8 * off) & sizeMask(size); err != nil || got != w {
				t.Errorf("SMP Load(%d, %d) = %#x, %v; want %#x", off, size, got, err, w)
			}
		}
	}
	if err := m.Store(8, want, 8); err != nil {
		t.Fatal(err)
	}
	if err := m.Store(17, 0x0302, 2); err != nil {
		t.Fatal(err)
	}
	if got := p[8:19]; !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 2, 3}) {
		t.Errorf("SMP Store wrote % x", got)
	}

	// Both host orders: whatever order the host loads img in, le must
	// return the little-endian value.
	defer func(b bool) { hostBigEndian = b }(hostBigEndian)
	for _, c := range []struct {
		big   bool
		order binary.ByteOrder
	}{{false, binary.LittleEndian}, {true, binary.BigEndian}} {
		hostBigEndian = c.big
		if got := le(c.order.Uint64(img)); got != want {
			t.Errorf("hostBigEndian=%v: le(%#x) = %#x, want %#x", c.big, c.order.Uint64(img), got, want)
		}
	}
}

// TestPhysMemoryPagesWordAligned checks that every page, in the directory
// and in the overflow map, is a valid sync/atomic operand.
func TestPhysMemoryPagesWordAligned(t *testing.T) {
	m := NewPhysMemory(0)
	for _, addr := range []uint64{0, PageSize, 77 * PageSize, physCoverPages * PageSize, (physCoverPages + 9) * PageSize} {
		if p := m.page(addr); uintptr(unsafe.Pointer(p))%8 != 0 {
			t.Errorf("page at %#x is at %p, not 8-byte aligned", addr, p)
		}
	}
}

// TestPhysMemorySMPNoLostUpdates races sub-word stores into private byte
// lanes of shared words against bulk writes and zeroing of the
// neighbouring words and bulk reads across all of them.  A sub-word store
// that rewrote its whole word from a stale read would clobber another
// lane; each lane's owner checks its lane after every store, and every
// lane must end holding its owner's last value.
func TestPhysMemorySMPNoLostUpdates(t *testing.T) {
	const (
		words = 8              // even: lane words, odd: neighbour words
		base  = PageSize - 4*8 // the region straddles a page boundary
		iters = 3000
	)
	m := NewPhysMemory(0)
	m.EnableSMP(true)

	// Lanes of one lane word: byte 0 by Store(1), byte 1 by a one-byte
	// WriteAt, bytes 2-3 by Store(2), bytes 4-7 by Store(4).  Lane values
	// repeat one byte, so a reader can tell a torn lane.
	type lane struct{ off, size int }
	lanes := []lane{{0, 1}, {1, 0}, {2, 2}, {4, 4}}
	val := func(i, size int) uint64 {
		return uint64(i%255+1) * (sizeMask(max(size, 1)) / 0xff)
	}

	var wg sync.WaitGroup
	// One slot per goroutine: each sends at most one error, then returns.
	errc := make(chan error, words/2*len(lanes)+2)
	stop := make(chan struct{})
	for w := 0; w < words; w += 2 {
		for _, l := range lanes {
			wg.Add(1)
			go func(addr uint64, size int) {
				defer wg.Done()
				for i := 1; i <= iters; i++ {
					v := val(i, size)
					var err error
					if size == 0 {
						err = m.WriteAt(addr, []byte{byte(v)})
					} else {
						err = m.Store(addr, v, size)
					}
					got, lerr := m.Load(addr, max(size, 1))
					if err != nil || lerr != nil || got != v {
						errc <- fmt.Errorf("lane %#x/%d: stored %#x, read back %#x (%v, %v)", addr, size, v, got, err, lerr)
						return
					}
				}
			}(base+uint64(w*8+l.off), l.size)
		}
	}
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // neighbour writer
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for w := 1; w < words; w += 2 {
				addr := base + uint64(w*8)
				var err error
				if i%3 == 0 {
					err = m.Zero(addr, 8)
				} else {
					err = m.WriteAt(addr, bytes.Repeat([]byte{byte(i)}, 8))
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}
	}()
	go func() { // reader: every lane and neighbour word is read whole
		defer bg.Done()
		buf := make([]byte, words*8)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.ReadAt(base, buf); err != nil {
				errc <- err
				return
			}
			for w := 0; w < words; w++ {
				spans := [][2]int{{0, 8}}
				if w%2 == 0 {
					spans = [][2]int{{0, 1}, {1, 2}, {2, 4}, {4, 8}}
				}
				for _, s := range spans {
					b := buf[w*8+s[0] : w*8+s[1]]
					if !bytes.Equal(b, bytes.Repeat(b[:1], len(b))) {
						errc <- fmt.Errorf("torn read of word %d bytes %v: % x", w, s, b)
						return
					}
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for w := 0; w < words; w += 2 {
		for _, l := range lanes {
			addr := base + uint64(w*8+l.off)
			want := val(iters, l.size)
			if got, err := m.Load(addr, max(l.size, 1)); err != nil || got != want {
				t.Errorf("lane %#x ended %#x, %v; want %#x", addr, got, err, want)
			}
		}
	}
}

// memOp is one operation of the uniprocessor-vs-SMP differential test.
type memOp struct {
	Kind uint8 // 0 Load, 1 Store, 2 ReadAt, 3 WriteAt, 4 Zero
	Addr uint64
	Size int // Load/Store width, or bulk length
	Val  uint64
}

// diffLimit is the differential memories' limit: inside page 2 and not
// word aligned, so accesses can straddle it mid-word.
const diffLimit = 3*PageSize - 3

type memOps []memOp

// Generate draws addresses near page boundaries, the limit and word
// edges, every Load/Store width (plus an invalid one) at every
// alignment, and bulk lengths up to two pages.
func (memOps) Generate(r *rand.Rand, _ int) reflect.Value {
	anchors := []uint64{0, PageSize, 2 * PageSize, diffLimit, 3 * PageSize}
	ops := make(memOps, 1+r.Intn(64))
	for i := range ops {
		op := memOp{Kind: uint8(r.Intn(5)), Val: r.Uint64()}
		if r.Intn(4) == 0 {
			op.Addr = uint64(r.Intn(diffLimit + 64))
		} else {
			op.Addr = max(anchors[r.Intn(len(anchors))]+uint64(r.Intn(48)), 24) - 24
		}
		if op.Kind < 2 {
			op.Size = []int{1, 2, 4, 8, 3}[r.Intn(5)]
		} else {
			op.Size = r.Intn(2*PageSize + 16)
		}
		ops[i] = op
	}
	return reflect.ValueOf(ops)
}

func (op memOp) apply(m *PhysMemory) (uint64, []byte, error) {
	switch op.Kind {
	case 0:
		v, err := m.Load(op.Addr, op.Size)
		return v, nil, err
	case 1:
		return 0, nil, m.Store(op.Addr, op.Val, op.Size)
	case 2:
		buf := make([]byte, op.Size)
		err := m.ReadAt(op.Addr, buf)
		return 0, buf, err
	case 3:
		buf := make([]byte, op.Size)
		for i := range buf {
			buf[i] = byte(op.Val >> (8 * (i % 8)))
		}
		return 0, nil, m.WriteAt(op.Addr, buf)
	}
	return 0, nil, m.Zero(op.Addr, uint64(op.Size))
}

// TestPhysMemorySMPMatchesUniprocessor applies the same random operation
// sequence to a uniprocessor and an SMP memory: every result and error
// and the final page contents must agree.
func TestPhysMemorySMPMatchesUniprocessor(t *testing.T) {
	err := quick.Check(func(ops memOps) bool {
		up, smp := NewPhysMemory(diffLimit), NewPhysMemory(diffLimit)
		smp.EnableSMP(true)
		for i, op := range ops {
			v1, b1, e1 := op.apply(up)
			v2, b2, e2 := op.apply(smp)
			if v1 != v2 || !bytes.Equal(b1, b2) || !reflect.DeepEqual(e1, e2) {
				t.Logf("op %d %+v: uniprocessor (%#x, %v), SMP (%#x, %v)", i, op, v1, e1, v2, e2)
				return false
			}
		}
		for pg := uint64(0); pg < 4; pg++ {
			p, q := up.page(pg*PageSize), smp.page(pg*PageSize)
			if *p != *q {
				t.Logf("page %d differs", pg)
				return false
			}
			if uintptr(unsafe.Pointer(q))%8 != 0 {
				t.Logf("page %d at %p is not 8-byte aligned", pg, q)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}
