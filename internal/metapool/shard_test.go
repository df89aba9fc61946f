package metapool

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"sva/internal/splay"
)

// lcg is a tiny deterministic generator so concurrent workers and their
// serial replays draw identical operation streams.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g >> 16)
}

// stressOp is one worker operation, pre-generated so the concurrent run
// and the oracle replay execute byte-identical programs.
type stressOp struct {
	kind uint8
	addr uint64
	size uint64
}

func genStressOps(seed uint64, base uint64, n int) []stressOp {
	g := lcg(seed)
	ops := make([]stressOp, n)
	for i := range ops {
		r := g.next()
		ops[i] = stressOp{
			kind: uint8(r % 8),
			addr: base + (r>>8%256)*64,
			size: 1 + (r>>24)%128,
		}
	}
	return ops
}

// runStressOp executes one op against p on behalf of cpu, reducing the
// outcome to a comparable verdict int.
func runStressOp(t *testing.T, p *Pool, cpu int, op stressOp) int {
	switch op.kind {
	case 0, 1, 2:
		return violationKind(t, p.RegisterCPU(cpu, op.addr, op.size, TagHeap))
	case 3, 4:
		return violationKind(t, p.DropCPU(cpu, op.addr))
	case 5:
		return violationKind(t, p.BoundsCheckCPU(cpu, op.addr, op.addr+op.size/2))
	case 6:
		return violationKind(t, p.LoadStoreCheckCPU(cpu, op.addr))
	default:
		_, _, ok := p.GetBoundsCPU(cpu, op.addr)
		if ok {
			return 1
		}
		return 0
	}
}

// TestConcurrentStressOracle drives 8 VCPUs through random register/drop/
// check programs on disjoint address regions concurrently, then replays
// the identical programs serially against a splay-only oracle pool.
// Workers never touch each other's addresses, so every per-worker verdict
// stream is deterministic: the concurrent sharded pool must produce
// bit-identical verdicts and the same final object count as the oracle.
// Run under -race this is also the data-race suite for the sharded write
// paths and the epoch machinery.
func TestConcurrentStressOracle(t *testing.T) {
	const workers = 8
	const opsPer = 3000
	p := NewPool("MPS", false, true, 0)
	p.setVCPUs(workers)
	progs := make([][]stressOp, workers)
	verdicts := make([][]int, workers)
	for w := range progs {
		// 16 MiB apart: disjoint regions, several distinct shards.
		progs[w] = genStressOps(uint64(w)*977+13, uint64(w+1)<<24, opsPer)
		verdicts[w] = make([]int, opsPer)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, op := range progs[w] {
				verdicts[w][i] = runStressOp(t, p, w, op)
			}
		}(w)
	}
	wg.Wait()

	oracle := NewPool("MPO", false, true, 0)
	oracle.NoPageMap = true // splay-only reference
	for w := 0; w < workers; w++ {
		for i, op := range progs[w] {
			want := runStressOp(t, oracle, 0, op)
			if verdicts[w][i] != want {
				t.Fatalf("worker %d op %d (%+v): concurrent verdict %d, oracle %d",
					w, i, op, verdicts[w][i], want)
			}
		}
	}
	if got, want := p.NumObjects(), oracle.NumObjects(); got != want {
		t.Fatalf("final object count: sharded %d, oracle %d", got, want)
	}
	if p.IsQuarantined() {
		t.Fatal("stress run quarantined the pool")
	}
	m := p.mergedStats()
	if m.Violations == 0 || m.Registered == 0 || m.Dropped == 0 {
		t.Fatalf("stress run did not exercise the interesting paths: %+v", m)
	}
}

// pinnedOnFree reports whether e sits on sh's free list.
func pinnedOnFree(sh *objShard, e *pageEntry) bool {
	for f := sh.free; f != nil; f = f.next {
		if f == e {
			return true
		}
	}
	return false
}

func onLimbo(sh *objShard, e *pageEntry) bool {
	for f := sh.limbo; f != nil; f = f.next {
		if f == e {
			return true
		}
	}
	return false
}

// TestQuickEpochPinBlocksReuse is the reclamation safety property: a page
// entry retired while a reader's epoch pin predates its retirement must
// never reach the free list (where it could be rewritten under the
// reader) until the pin clears — no matter how much churn forces reclaim
// passes in between.
func TestQuickEpochPinBlocksReuse(t *testing.T) {
	prop := func(seed uint64, churnRaw uint16) bool {
		churn := 80 + int(churnRaw%200) // always enough to cross limboThreshold
		g := lcg(seed)
		p := NewPool("MPE", false, true, 0)
		p.setVCPUs(4)
		victim := 0x40000 + (g.next()%64)*PageSize
		if err := p.RegisterCPU(1, victim, 64, TagHeap); err != nil {
			t.Fatal(err)
		}
		leaf := p.pm.dir[victim>>(pageShift+l2Bits)].Load()
		e := leaf[(victim>>pageShift)&(1<<l2Bits-1)].Load()
		if e == nil || e.overflow {
			t.Fatalf("victim entry not published: %v", e)
		}
		sh := &p.obj[shardIndex(victim)]

		// A reader pins, then the victim is dropped: the retirement era is
		// at or after the pin, so the entry stays out of reach of reuse.
		s := p.pinR(2)
		if err := p.DropCPU(1, victim); err != nil {
			t.Fatal(err)
		}
		churnAddr := victim&^uint64(1<<regionShift-1) + 1<<20 // same shard region block
		for i := 0; i < churn; i++ {
			a := churnAddr + uint64(i%32)*PageSize
			if err := p.RegisterCPU(1, a, 64, TagHeap); err != nil {
				t.Fatal(err)
			}
			if err := p.DropCPU(1, a); err != nil {
				t.Fatal(err)
			}
		}
		sh.mu.Lock()
		freed := pinnedOnFree(sh, e)
		kept := onLimbo(sh, e)
		reclaims := p.eraReclaimed.Load()
		sh.mu.Unlock()
		if freed {
			t.Fatalf("pinned entry reached the free list (churn %d)", churn)
		}
		if !kept {
			t.Fatalf("pinned entry left limbo without being freed (churn %d)", churn)
		}
		if reclaims == 0 {
			t.Fatalf("churn %d never forced a reclaim pass: property not exercised", churn)
		}

		// Pin released: the next reclaim pass must let the entry go.
		s.e.Store(0)
		for i := 0; i < limboThreshold+4; i++ {
			a := churnAddr + uint64(i%32)*PageSize
			if err := p.RegisterCPU(1, a, 64, TagHeap); err != nil {
				t.Fatal(err)
			}
			if err := p.DropCPU(1, a); err != nil {
				t.Fatal(err)
			}
		}
		sh.mu.Lock()
		stillLimbo := onLimbo(sh, e)
		sh.mu.Unlock()
		if stillLimbo {
			t.Fatal("entry still in limbo after the pin cleared and a reclaim ran")
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPerCPUStatsMerge pins per-CPU attribution: each call charges the
// shard of the VCPU it names, and however calls are split across VCPUs
// the merged snapshot equals the arithmetic total — nothing
// double-counted, nothing dropped.
func TestPerCPUStatsMerge(t *testing.T) {
	p := NewPool("MPM", false, true, 0)
	p.setVCPUs(4)

	// VCPU 0: the embedded shard.
	for i := uint64(0); i < 10; i++ {
		if err := p.RegisterCPU(0, 0x10000+i*0x100, 64, TagHeap); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 4; i++ {
		if err := p.DropCPU(0, 0x10000+i*0x100); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.BoundsCheckCPU(0, 0x10400, 0x10410); err != nil {
		t.Fatal(err)
	}
	p.NoteElidedBoundsCPU(0)

	// Explicit per-CPU calls from three other VCPUs.
	for cpu := 1; cpu <= 3; cpu++ {
		base := uint64(cpu) << 24
		for i := uint64(0); i < 5; i++ {
			if err := p.RegisterCPU(cpu, base+i*0x100, 64, TagHeap); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.DropCPU(cpu, base); err != nil {
			t.Fatal(err)
		}
		if err := p.LoadStoreCheckCPU(cpu, base+0x100); err != nil {
			t.Fatal(err)
		}
		p.NoteElidedLSCPU(cpu)
	}

	m := p.mergedStats()
	if m.Registered != 10+3*5 {
		t.Errorf("merged Registered = %d, want %d", m.Registered, 10+3*5)
	}
	if m.Dropped != 4+3 {
		t.Errorf("merged Dropped = %d, want %d", m.Dropped, 4+3)
	}
	if m.BoundsChecks != 1 || m.LSChecks != 3 {
		t.Errorf("merged checks = %d bounds / %d ls, want 1/3", m.BoundsChecks, m.LSChecks)
	}
	if m.ElidedBounds != 1 || m.ElidedLS != 3 {
		t.Errorf("merged elisions = %d bounds / %d ls, want 1/3", m.ElidedBounds, m.ElidedLS)
	}
	if m.Violations != 0 {
		t.Errorf("merged Violations = %d, want 0", m.Violations)
	}
	// VCPU 0's share sits on the embedded shard.
	if p.Stats.Registered != 10 {
		t.Errorf("shard 0 Registered = %d, want the 10 VCPU-0 calls", p.Stats.Registered)
	}
	// The registry snapshot reports the same merged numbers.
	reg := NewRegistry()
	reg.SetVCPUs(4)
	reg.AddPool(p)
	snap := reg.Snapshot()
	if snap.Totals != m {
		t.Errorf("snapshot totals %+v != merged %+v", snap.Totals, m)
	}
	if snap.Pools[0].Objects != p.NumObjects() {
		t.Errorf("snapshot objects %d != %d", snap.Pools[0].Objects, p.NumObjects())
	}
}

// TestRegisterBatch checks sva.pool.regbatch semantics: a batch is exactly
// n per-object registrations, fast path or not.
func TestRegisterBatch(t *testing.T) {
	p := NewPool("MPB", false, true, 0)
	if err := p.RegisterBatchCPU(0, 0x80000, 16, 512); err != nil {
		t.Fatal(err)
	}
	if got := p.NumObjects(); got != 16 {
		t.Fatalf("NumObjects = %d after batch of 16", got)
	}
	// Elements are separate objects: indexing across a boundary violates.
	if err := p.BoundsCheckCPU(0, 0x80000, 0x80000+513); err == nil {
		t.Error("cross-element indexing passed")
	}
	// One past the end of an element is legal.
	if err := p.BoundsCheckCPU(0, 0x80000, 0x80000+512); err != nil {
		t.Errorf("one-past-end within element: %v", err)
	}
	for i := uint64(0); i < 16; i++ {
		if err := p.LoadStoreCheckCPU(0, 0x80000+i*512+7); err != nil {
			t.Errorf("element %d unreachable: %v", i, err)
		}
	}
	// A conflict mid-batch keeps the earlier elements, like the per-object
	// sequence would.
	if err := p.RegisterCPU(0, 0x90000+5*512, 512, TagHeap); err != nil {
		t.Fatal(err)
	}
	err := p.RegisterBatchCPU(0, 0x90000, 16, 512)
	if v, ok := err.(*Violation); !ok || v.Kind != RegistrationConflict {
		t.Fatalf("mid-batch conflict: got %v", err)
	}
	for i := uint64(0); i < 5; i++ {
		if _, ok := p.findCPU(0, 0x90000+i*512); !ok {
			t.Errorf("pre-conflict element %d not registered", i)
		}
	}
	// Oversized batches are refused outright (guest-controlled n).
	err = p.RegisterBatchCPU(0, 0xA00000, maxBatch+1, 16)
	if v, ok := err.(*Violation); !ok || v.Kind != RegistrationConflict {
		t.Fatalf("oversized batch: got %v", err)
	}
	// Degenerate shapes are no-ops.
	if err := p.RegisterBatchCPU(0, 0xB00000, 0, 16); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterBatchCPU(0, 0xB00000, 4, 0); err != nil {
		t.Fatal(err)
	}

	// Batch-vs-loop equivalence, including with a wide object forcing the
	// slow shape.
	a := NewPool("MPBA", false, true, 0)
	b := NewPool("MPBB", false, true, 0)
	wide := splay.Range{Start: 3 << regionShift, Len: 2 << regionShift}
	if err := a.RegisterCPU(0, wide.Start, wide.Len, TagHeap); err != nil {
		t.Fatal(err)
	}
	if err := b.RegisterCPU(0, wide.Start, wide.Len, TagHeap); err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterBatchCPU(0, 0x40000, 32, 128); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 32; i++ {
		if err := b.RegisterCPU(0, 0x40000+i*128, 128, TagHeap); err != nil {
			t.Fatal(err)
		}
	}
	if a.NumObjects() != b.NumObjects() {
		t.Fatalf("batch %d objects, loop %d", a.NumObjects(), b.NumObjects())
	}
	for i := uint64(0); i < 32; i++ {
		ra, oka := a.findCPU(0, 0x40000+i*128+3)
		rb, okb := b.findCPU(0, 0x40000+i*128+3)
		if oka != okb || ra != rb {
			t.Fatalf("element %d: batch (%v,%v) loop (%v,%v)", i, ra, oka, rb, okb)
		}
	}
	if a.mergedStats().Batched != 1 {
		t.Errorf("Batched = %d, want 1", a.mergedStats().Batched)
	}
}

// TestRegisterBatchWideConcurrent is the regression for the regbatch gate
// deadlock: with a wide object live, the batch fast path used to fall
// through to the element-at-a-time loop still holding its gate read slot,
// and the loop re-acquires the same slot (register) — a
// recursive RLock.  A concurrent lockAll (wide register/drop) arriving
// between the two acquisitions then deadlocked the VM.  This drives
// batches against wide-object churn on every VCPU and must complete.
func TestRegisterBatchWideConcurrent(t *testing.T) {
	p := NewPool("MPBW", false, true, 0)
	p.setVCPUs(4)
	// A wide object stays live for the whole run so every batch takes the
	// fallback shape.
	if err := p.RegisterCPU(0, 8<<regionShift, 2<<regionShift, TagHeap); err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	done := make(chan struct{})
	go func() { // exclusive-gate churn: wide register/drop in a loop
		defer close(done)
		base := uint64(16) << regionShift
		for i := 0; i < rounds; i++ {
			if err := p.RegisterCPU(3, base, 2<<regionShift, TagHeap); err != nil {
				t.Error(err)
				return
			}
			if err := p.DropCPU(3, base); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for cpu := 0; cpu < 3; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			base := 0x100000 + uint64(cpu)*0x40000
			for i := 0; i < rounds; i++ {
				if err := p.RegisterBatchCPU(cpu, base, 16, 64); err != nil {
					t.Error(err)
					return
				}
				for j := uint64(0); j < 16; j++ {
					if err := p.DropCPU(cpu, base+j*64); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(cpu)
	}
	wg.Wait()
	<-done
	if got := p.NumObjects(); got != 1 {
		t.Fatalf("NumObjects = %d after churn, want 1 (the wide object)", got)
	}
}

// TestPinConflictPanics pins the one-concurrent-user-per-EBR-slot
// invariant: a second pin on an already-pinned slot must panic instead of
// silently overwriting the first reader's announcement (which would let
// reclaim free an entry that reader still dereferences).
func TestPinConflictPanics(t *testing.T) {
	p := NewPool("MPP", false, true, 0)
	p.setVCPUs(2)
	s := p.pinR(1)
	defer s.e.Store(0)
	defer func() {
		if recover() == nil {
			t.Error("second pinR on a pinned slot did not panic")
		}
	}()
	p.pinR(1)
}

// TestRegisterBatchGateNotHeldAcrossFallback is the deterministic form of
// the regbatch gate-deadlock regression.  It parks the batch's fallback
// loop on a shard mutex the test holds, lets a lockAll writer queue up on
// the batch CPU's gate slot, then releases the shard.  If the batch still
// held its fast-path read slot across the fallback (the original bug), the
// next element's inner rlock queues behind the writer while the writer
// waits on the outer read hold — a deadlock this test converts into a
// failure instead of a hung VM.
func TestRegisterBatchGateNotHeldAcrossFallback(t *testing.T) {
	p := NewPool("MPBG", false, true, 0)
	p.setVCPUs(4)
	// A live wide object forces every batch into the fallback shape.
	if err := p.RegisterCPU(0, 8<<regionShift, 2<<regionShift, TagHeap); err != nil {
		t.Fatal(err)
	}
	const base = uint64(0x100000)
	sh := &p.obj[shardIndex(base)]
	sh.mu.Lock() // parks element 0's shard insert
	done := make(chan error, 1)
	go func() { done <- p.RegisterBatchCPU(1, base, 8, 64) }()
	time.Sleep(50 * time.Millisecond) // batch now blocked on sh.mu
	gateDone := make(chan struct{})
	go func() {
		p.gate.lockAll()
		p.gate.unlockAll()
		close(gateDone)
	}()
	time.Sleep(50 * time.Millisecond) // writer now pending on slot 1
	sh.mu.Unlock()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("regbatch deadlocked against lockAll: gate read slot held across the fallback loop")
	}
	<-gateDone
	if got := p.NumObjects(); got != 9 {
		t.Fatalf("NumObjects = %d, want 9 (wide + 8 batch elements)", got)
	}
}
