package hw

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// ringMach builds a NIC over a raw physical memory (no VM in the loop:
// these tests exercise the host half of the ring protocol directly).
func ringMach() (*RingNIC, *PhysMemory) {
	n := NewRingNIC()
	return n, NewPhysMemory(0)
}

const (
	rtBase  = 0x10000 // ring window
	rtSlots = 8
	rtBufs  = 0x20000 // frame buffers
)

func attach(t *testing.T, n *RingNIC, idx int, mem RingMemory) {
	t.Helper()
	if err := n.AttachRing(idx, rtBase+uint64(idx)*0x1000, rtSlots, mem); err != nil {
		t.Fatalf("attach ring %d: %v", idx, err)
	}
}

func TestAttachValidation(t *testing.T) {
	n, mem := ringMach()
	for name, err := range map[string]error{
		"index too high":   n.AttachRing(NICQueues*2, rtBase, rtSlots, mem),
		"negative index":   n.AttachRing(-1, rtBase, rtSlots, mem),
		"nil memory":       n.AttachRing(0, rtBase, rtSlots, nil),
		"zero slots":       n.AttachRing(0, rtBase, 0, mem),
		"non-power-of-two": n.AttachRing(0, rtBase, 3, mem),
		"too many slots":   n.AttachRing(0, rtBase, RingMaxSlots*2, mem),
	} {
		if err == nil {
			t.Errorf("%s: attach accepted", name)
		}
	}
	if _, err := n.Doorbell(0, 0); err == nil {
		t.Error("doorbell on unattached ring succeeded")
	}
	if _, err := n.Reap(0); err == nil {
		t.Error("reap on unattached ring succeeded")
	}
	attach(t, n, 0, mem)
}

// postFrame posts a frame's bytes at a fresh buffer address and its
// descriptor on the ring.
func postFrame(t *testing.T, n *RingNIC, mem *PhysMemory, idx, slot int, frame []byte) uint64 {
	t.Helper()
	addr := uint64(rtBufs + slot*0x100)
	if err := mem.WriteAt(addr, frame); err != nil {
		t.Fatal(err)
	}
	ok, err := n.Post(idx, addr, uint64(len(frame)))
	if err != nil || !ok {
		t.Fatalf("post slot %d: ok=%v err=%v", slot, ok, err)
	}
	return addr
}

func TestDoorbellTxLoopback(t *testing.T) {
	n, mem := ringMach()
	attach(t, n, RingIndex(0, RingDirTx), mem)
	want := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	for i, f := range want {
		postFrame(t, n, mem, 0, i, f)
	}
	consumed, err := n.Doorbell(0, 0)
	if err != nil || consumed != len(want) {
		t.Fatalf("doorbell: consumed=%d err=%v", consumed, err)
	}
	if cons, _ := n.Reap(0); cons != uint64(len(want)) {
		t.Errorf("reap = %d, want %d", cons, len(want))
	}
	// The published consumer index mirrors the shadow.
	if hdr, _ := mem.Load(rtBase+8, 8); hdr != uint64(len(want)) {
		t.Errorf("published cons = %d", hdr)
	}
	for i, f := range want {
		if st, _ := mem.Load(rtBase+RingHdrSize+uint64(i)*RingDescSize+12, 4); st != DescDone {
			t.Errorf("desc %d status %d", i, st)
		}
		if got := n.CompatRecv(); !bytes.Equal(got, f) {
			t.Errorf("frame %d looped back as %q", i, got)
		}
	}
	if n.BadDescs != 0 {
		t.Errorf("clean run counted %d bad descriptors", n.BadDescs)
	}
}

// TestSendKeepsCallerBuffer checks the transmit ownership rule:
// CompatSend hands the wire a copy, so a caller reusing its buffer cannot
// rewrite a frame already sent.
func TestSendKeepsCallerBuffer(t *testing.T) {
	n := NewRingNIC()
	buf := []byte("frame")
	if err := n.CompatSend(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXX")
	if got := n.CompatRecv(); string(got) != "frame" {
		t.Errorf("sent frame reads %q after the caller reused its buffer", got)
	}
}

// TestMaliciousProducer drives hostile producer indices and descriptors:
// every attack must degrade to clamps and per-descriptor errors, never an
// error return (let alone a fault) from the host.
func TestMaliciousProducer(t *testing.T) {
	n, mem := ringMach()
	attach(t, n, 0, mem)

	// Producer jumped far past full: clamp to one ring of (garbage)
	// descriptors, each individually refused.
	if err := mem.Store(rtBase, 1<<40, 8); err != nil {
		t.Fatal(err)
	}
	consumed, err := n.Doorbell(0, 0)
	if err != nil {
		t.Fatalf("doorbell after prod jump: %v", err)
	}
	if consumed != rtSlots {
		t.Errorf("consumed %d, want clamp to %d", consumed, rtSlots)
	}
	if n.BadDescs == 0 {
		t.Error("hostile producer not counted")
	}
	cons0, _ := n.Reap(0)

	// Producer rewound below the consumer: uint64 wrap makes avail huge,
	// the same clamp holds, and the shadow consumer never regresses.
	if err := mem.Store(rtBase, 0, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Doorbell(0, 0); err != nil {
		t.Fatalf("doorbell after prod rewind: %v", err)
	}
	if cons1, _ := n.Reap(0); cons1 < cons0 {
		t.Errorf("consumer regressed: %d -> %d", cons0, cons1)
	}

	// Per-descriptor attacks on a sane producer: oversize length, zero
	// length, and a DMA address past the memory limit all end as DescErr.
	n2 := NewRingNIC()
	mem2 := NewPhysMemory(1 << 30)
	attach(t, n2, 0, mem2)
	base := uint64(rtBase)
	bad := []struct{ addr, ln uint64 }{
		{rtBufs, uint64(n2.MTU) + 1},
		{rtBufs, 0},
		{1 << 50, 64}, // beyond the 1 GiB physical limit
	}
	for i, d := range bad {
		da := base + RingHdrSize + uint64(i)*RingDescSize
		mem2.Store(da, d.addr, 8)
		mem2.Store(da+8, d.ln, 4)
	}
	mem2.Store(base, uint64(len(bad)), 8)
	consumed, err = n2.Doorbell(0, 0)
	if err != nil || consumed != len(bad) {
		t.Fatalf("bad-descriptor doorbell: consumed=%d err=%v", consumed, err)
	}
	for i := range bad {
		if st, _ := mem2.Load(base+RingHdrSize+uint64(i)*RingDescSize+12, 4); st != DescErr {
			t.Errorf("bad descriptor %d got status %d", i, st)
		}
	}
	if n2.TxFrames != 0 {
		t.Errorf("malicious descriptors transmitted %d frames", n2.TxFrames)
	}
}

// windowMem wraps a RingMemory and records every byte the host touches,
// so tests can prove the host stays inside the ring window and the
// posted frame windows.
type windowMem struct {
	RingMemory
	touched map[uint64]bool
}

func (w *windowMem) mark(addr uint64, nbytes int) {
	for i := 0; i < nbytes; i++ {
		w.touched[addr+uint64(i)] = true
	}
}
func (w *windowMem) Load(addr uint64, size int) (uint64, error) {
	w.mark(addr, size)
	return w.RingMemory.Load(addr, size)
}
func (w *windowMem) Store(addr uint64, v uint64, size int) error {
	w.mark(addr, size)
	return w.RingMemory.Store(addr, v, size)
}
func (w *windowMem) ReadAt(addr uint64, buf []byte) error {
	w.mark(addr, len(buf))
	return w.RingMemory.ReadAt(addr, buf)
}
func (w *windowMem) WriteAt(addr uint64, buf []byte) error {
	w.mark(addr, len(buf))
	return w.RingMemory.WriteAt(addr, buf)
}

// TestHostStaysInPostedWindow posts two frames and rings the doorbell
// through a recording memory: every touched byte must lie inside the ring
// header, a posted descriptor, or a posted frame window.
func TestHostStaysInPostedWindow(t *testing.T) {
	n, phys := ringMach()
	wm := &windowMem{RingMemory: phys, touched: map[uint64]bool{}}
	if err := n.AttachRing(0, rtBase, rtSlots, wm); err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{bytes.Repeat([]byte{1}, 64), bytes.Repeat([]byte{2}, 32)}
	var windows [][2]uint64
	for i, f := range frames {
		addr := uint64(rtBufs + i*0x100)
		phys.WriteAt(addr, f) // stage via the raw memory, not the recorder
		if ok, err := n.Post(0, addr, uint64(len(f))); !ok || err != nil {
			t.Fatal(err)
		}
		windows = append(windows, [2]uint64{addr, addr + uint64(len(f))})
	}
	wm.touched = map[uint64]bool{} // ignore Post's descriptor writes
	if _, err := n.Doorbell(0, 0); err != nil {
		t.Fatal(err)
	}
	inWindow := func(a uint64) bool {
		if a >= rtBase && a < rtBase+RingHdrSize+uint64(len(frames))*RingDescSize {
			return true
		}
		for _, w := range windows {
			if a >= w[0] && a < w[1] {
				return true
			}
		}
		return false
	}
	for a := range wm.touched {
		if !inWindow(a) {
			t.Errorf("host touched %#x outside the posted window", a)
		}
	}
}

// TestQuickRingConservation drives randomized post/doorbell sequences
// (no corruption) and checks exact frame conservation: after a final
// doorbell, every posted frame was transmitted exactly once, in order.
func TestQuickRingConservation(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, mem := ringMach()
		var sunk []string
		n.Sink = func(queue int, frame []byte, now uint64) { sunk = append(sunk, string(frame)) }
		if err := n.AttachRing(0, rtBase, rtSlots, mem); err != nil {
			t.Fatal(err)
		}
		var posted []string
		lastCons := uint64(0)
		for op := 0; op < 40; op++ {
			if rng.Intn(3) < 2 {
				f := fmt.Sprintf("frame-%d-%d", seed, len(posted))
				addr := uint64(rtBufs + len(posted)*0x100)
				mem.WriteAt(addr, []byte(f))
				if ok, err := n.Post(0, addr, uint64(len(f))); err != nil {
					return false
				} else if ok {
					posted = append(posted, f)
				}
			} else if _, err := n.Doorbell(0, 0); err != nil {
				return false
			}
			cons, err := n.Reap(0)
			if err != nil || cons < lastCons {
				return false // consumer regressed
			}
			lastCons = cons
		}
		if _, err := n.Doorbell(0, 0); err != nil {
			return false
		}
		if len(sunk) != len(posted) {
			return false // frame lost or duplicated
		}
		for i := range posted {
			if sunk[i] != posted[i] {
				return false // reordered or corrupted
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRingHostileProducer mixes producer-index corruption into the
// sequence.  The host may then replay stale (already-consumed) descriptors
// — that only rearranges the guest's own data — but it must still hold the
// safety invariants: the consumer never regresses, doorbells never error,
// and nothing is ever transmitted that was not at some point posted.
func TestQuickRingHostileProducer(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, mem := ringMach()
		valid := map[string]bool{}
		ok := true
		n.Sink = func(queue int, frame []byte, now uint64) {
			if !valid[string(frame)] {
				ok = false // transmitted bytes we never posted
			}
		}
		if err := n.AttachRing(0, rtBase, rtSlots, mem); err != nil {
			t.Fatal(err)
		}
		nposted, lastCons := 0, uint64(0)
		for op := 0; op < 40; op++ {
			switch rng.Intn(4) {
			case 0, 1:
				f := fmt.Sprintf("frame-%d-%d", seed, nposted)
				addr := uint64(rtBufs + nposted*0x100)
				mem.WriteAt(addr, []byte(f))
				if okp, err := n.Post(0, addr, uint64(len(f))); err != nil {
					return false
				} else if okp {
					valid[f] = true
					nposted++
				}
			case 2:
				if _, err := n.Doorbell(0, 0); err != nil {
					return false
				}
			case 3:
				mem.Store(rtBase, rng.Uint64(), 8)
			}
			cons, err := n.Reap(0)
			if err != nil || cons < lastCons {
				return false
			}
			lastCons = cons
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRingConcurrentQueues hammers four queue pairs from four goroutines
// (the SMP shape: queue q owned by VCPU q) under the race detector, then
// checks per-queue frame conservation through the loopback.
func TestRingConcurrentQueues(t *testing.T) {
	n, mem := ringMach()
	mem.EnableSMP(true)
	const vcpus, rounds = 4, 50
	for q := 0; q < vcpus; q++ {
		for dir := 0; dir < 2; dir++ {
			idx := RingIndex(q, dir)
			if err := n.AttachRing(idx, rtBase+uint64(idx)*0x1000, rtSlots, mem); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, vcpus)
	for q := 0; q < vcpus; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			tx := RingIndex(q, RingDirTx)
			for r := 0; r < rounds; r++ {
				f := []byte(fmt.Sprintf("q%d-r%d", q, r))
				addr := uint64(rtBufs + q*0x10000 + (r%rtSlots)*0x100)
				if err := mem.WriteAt(addr, f); err != nil {
					errs[q] = err
					return
				}
				for {
					ok, err := n.Post(tx, addr, uint64(len(f)))
					if err != nil {
						errs[q] = err
						return
					}
					if ok {
						break
					}
					if _, err := n.Doorbell(tx, 0); err != nil {
						errs[q] = err
						return
					}
				}
				if r%3 == 0 {
					if _, err := n.Doorbell(tx, 0); err != nil {
						errs[q] = err
						return
					}
				}
			}
			if _, err := n.Doorbell(tx, 0); err != nil {
				errs[q] = err
			}
		}(q)
	}
	wg.Wait()
	for q, err := range errs {
		if err != nil {
			t.Fatalf("queue %d: %v", q, err)
		}
	}
	for q := 0; q < vcpus; q++ {
		got := map[string]bool{}
		for f := n.rxPopQueue(q); f != nil; f = n.rxPopQueue(q) {
			got[string(f)] = true
		}
		for r := 0; r < rounds; r++ {
			want := fmt.Sprintf("q%d-r%d", q, r)
			if !got[want] {
				t.Fatalf("queue %d lost frame %q", q, want)
			}
		}
	}
	if n.BadDescs != 0 {
		t.Errorf("clean SMP run counted %d bad descriptors", n.BadDescs)
	}
}

// rxPopQueue is a test helper draining one queue's backlog.
func (n *RingNIC) rxPopQueue(q int) []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rxPop(q)
}
