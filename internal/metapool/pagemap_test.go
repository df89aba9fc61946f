package metapool

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

// pmStep is one randomly generated pool operation for the page-map
// equivalence property.  Kind selects the operation; A and B pick the
// address and size in one of two shapes.  The sparse shape spans page
// boundaries: A picks a slot in a ~64-page window at sub-page granularity,
// and size reaches past 4 KiB, so the stream produces single-entry pages,
// overflow pages, straddling objects, and definitive misses.  The dense
// shape packs every object start into one 1 KiB window of a single page,
// so nearly every lookup lands on an overflow page and takes the tree
// path under the page map.
type pmStep struct {
	Kind uint8
	A, B uint16
}

// shape returns the step's address, size and derived-pointer offset.
func (s pmStep) shape(dense bool) (addr, size, off uint64) {
	if dense {
		return 0x1000 + uint64(s.A%64)*16, 1 + uint64(s.B%96), uint64(s.B % 128)
	}
	// size up to 5120: straddles pages
	return 0x4000 + uint64(s.A%2048)*128, 1 + uint64(s.B%80)*64, uint64(s.B % 8192)
}

// TestQuickPageMapMatchesSplay is the equivalence property the design
// hangs on: a pool with the page-map fast path and a splay-only pool
// (NoPageMap) driven through identical random register/drop/check
// interleavings must produce bit-identical verdicts at every step.  The
// splay tree is the oracle; the page map may only change how an answer is
// found, never the answer.  This test runs the sparse, page-straddling
// shape; TestQuickCacheMatchesReference runs the dense one.
func TestQuickPageMapMatchesSplay(t *testing.T) {
	prop := func(steps []pmStep) bool { return matchesSplay(t, steps, false) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCacheMatchesReference is the same equivalence property over the
// dense shape: every object start packed into one 1 KiB window, so the
// fast pool's lookups mostly defer from an overflow page to the tree.  The
// fast-path pool and the splay-only reference pool must agree on every
// verdict, object count and bounds answer at every step.
func TestQuickCacheMatchesReference(t *testing.T) {
	prop := func(steps []pmStep) bool { return matchesSplay(t, steps, true) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func matchesSplay(t *testing.T, steps []pmStep, dense bool) bool {
	fast := NewPool("MPF", false, true, 0)
	oracle := NewPool("MPO", false, true, 0)
	oracle.NoPageMap = true
	for i, s := range steps {
		addr, size, off := s.shape(dense)
		var kf, ko int
		switch s.Kind % 7 {
		case 0:
			kf = violationKind(t, fast.RegisterCPU(0, addr, size, TagHeap))
			ko = violationKind(t, oracle.RegisterCPU(0, addr, size, TagHeap))
		case 1:
			kf = violationKind(t, fast.RegisterStackCPU(0, addr, size))
			ko = violationKind(t, oracle.RegisterStackCPU(0, addr, size))
		case 2:
			kf = violationKind(t, fast.DropCPU(0, addr))
			ko = violationKind(t, oracle.DropCPU(0, addr))
		case 3:
			kf = violationKind(t, fast.BoundsCheckCPU(0, addr, addr+off))
			ko = violationKind(t, oracle.BoundsCheckCPU(0, addr, addr+off))
		case 4:
			kf = violationKind(t, fast.LoadStoreCheckCPU(0, addr))
			ko = violationKind(t, oracle.LoadStoreCheckCPU(0, addr))
		case 5:
			fs, fe, fok := fast.GetBoundsCPU(0, addr)
			os, oe, ook := oracle.GetBoundsCPU(0, addr)
			if fs != os || fe != oe || fok != ook {
				t.Logf("step %d: GetBounds(%#x) fast=(%#x,%#x,%v) oracle=(%#x,%#x,%v)",
					i, addr, fs, fe, fok, os, oe, ook)
				return false
			}
		case 6:
			fast.Reset()
			oracle.Reset()
		}
		if kf != ko {
			t.Logf("step %d: op %d at %#x+%d fast=%d oracle=%d",
				i, s.Kind%7, addr, size, kf, ko)
			return false
		}
		if fast.NumObjects() != oracle.NumObjects() {
			t.Logf("step %d: objects fast=%d oracle=%d",
				i, fast.NumObjects(), oracle.NumObjects())
			return false
		}
	}
	// The oracle must never have consulted the page map.
	if oracle.Stats.PageHits != 0 {
		t.Logf("oracle pool used the page map")
		return false
	}
	return true
}

// TestPageStraddlingObject pins the slow-path handoff for an object that
// crosses a page boundary: every page it overlaps must answer for it, and
// dropping it must invalidate every one of those pages.
func TestPageStraddlingObject(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	// Tail of page 1, all of pages 2–3, head of page 4.
	start, size := uint64(0x1F00), uint64(2*PageSize+0x200)
	if err := p.RegisterCPU(0, start, size, TagHeap); err != nil {
		t.Fatal(err)
	}
	lk0 := p.SplayLookups()
	for _, a := range []uint64{start, 0x2000, 0x2FFF, 0x3000, start + size - 1} {
		if err := p.LoadStoreCheckCPU(0, a); err != nil {
			t.Errorf("lscheck(%#x) inside straddling object: %v", a, err)
		}
	}
	for _, a := range []uint64{start - 1, start + size} {
		if err := p.LoadStoreCheckCPU(0, a); err == nil {
			t.Errorf("lscheck(%#x) just outside straddling object passed", a)
		}
	}
	if got := p.SplayLookups() - lk0; got != 0 {
		t.Errorf("splay lookups = %d, want 0 (page map covers every page)", got)
	}
	if err := p.DropCPU(0, start); err != nil {
		t.Fatal(err)
	}
	// Every page the object touched must now be a definitive miss (the
	// drop itself consults the tree, so re-snapshot the lookup counter).
	lk1 := p.SplayLookups()
	for _, a := range []uint64{start, 0x2000, 0x3000, start + size - 1} {
		if err := p.LoadStoreCheckCPU(0, a); err == nil {
			t.Errorf("lscheck(%#x) passed after drop (stale page entry)", a)
		}
	}
	if got := p.SplayLookups() - lk1; got != 0 {
		t.Errorf("splay lookups = %d after drop, want 0 (pages invalidated to misses)", got)
	}
}

// TestSubPageAdjacentObjectsOverflow pins the overflow protocol: two
// objects in one page demote that page to the splay slow path; dropping
// one promotes the page back to a direct entry for the survivor.
func TestSubPageAdjacentObjectsOverflow(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	if err := p.RegisterCPU(0, 0x5000, 64, TagHeap); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterCPU(0, 0x5040, 64, TagHeap); err != nil {
		t.Fatal(err)
	}
	lk0 := p.SplayLookups()
	// Both objects and the gap beyond them resolve correctly via the tree.
	if err := p.LoadStoreCheckCPU(0, 0x5010); err != nil {
		t.Errorf("first object on overflow page: %v", err)
	}
	if err := p.LoadStoreCheckCPU(0, 0x5050); err != nil {
		t.Errorf("second object on overflow page: %v", err)
	}
	if err := p.LoadStoreCheckCPU(0, 0x5090); err == nil {
		t.Error("gap on overflow page passed lscheck")
	}
	if got := p.SplayLookups() - lk0; got != 3 {
		t.Errorf("splay lookups = %d, want 3 (overflow page defers to tree)", got)
	}
	// Dropping one object leaves a single survivor: the page recomputes to
	// a direct entry and the tree goes quiet again.
	if err := p.DropCPU(0, 0x5000); err != nil {
		t.Fatal(err)
	}
	lk1 := p.SplayLookups()
	if err := p.LoadStoreCheckCPU(0, 0x5050); err != nil {
		t.Errorf("survivor after overflow demotion: %v", err)
	}
	if err := p.LoadStoreCheckCPU(0, 0x5010); err == nil {
		t.Error("dropped object still passes lscheck")
	}
	if got := p.SplayLookups() - lk1; got != 0 {
		t.Errorf("splay lookups = %d after demotion, want 0 (single entry restored)", got)
	}
}

// TestReRegistrationAfterFree pins the free/re-register cycle at one
// address: the new object's bounds — not the old one's — must govern every
// later check, including via any mapped state.
func TestReRegistrationAfterFree(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	if err := p.RegisterCPU(0, 0x7000, 256, TagHeap); err != nil {
		t.Fatal(err)
	}
	if err := p.LoadStoreCheckCPU(0, 0x7080); err != nil { // warm the map
		t.Fatal(err)
	}
	if err := p.DropCPU(0, 0x7000); err != nil {
		t.Fatal(err)
	}
	// Re-register at the same address with a smaller size.
	if err := p.RegisterCPU(0, 0x7000, 64, TagHeap); err != nil {
		t.Fatalf("re-registration after free: %v", err)
	}
	if err := p.LoadStoreCheckCPU(0, 0x7020); err != nil {
		t.Errorf("inside re-registered object: %v", err)
	}
	// 0x7080 was inside the OLD object but is outside the new one; a stale
	// page entry would wrongly pass it.
	if err := p.LoadStoreCheckCPU(0, 0x7080); err == nil {
		t.Error("address beyond re-registered object passed (stale bounds)")
	}
	if s, e, ok := p.GetBoundsCPU(0, 0x7000); !ok || s != 0x7000 || e != 0x7040 {
		t.Errorf("GetBounds after re-registration = %#x,%#x,%v", s, e, ok)
	}
}

// TestResetMidLookup drives concurrent checks against pool resets and
// re-registrations.  Checks racing a reset may get either verdict (the
// guest raced its own teardown), but the pool must stay internally
// consistent: no panic, no quarantine, and once the writer quiesces every
// reader sees the final object set.  Run under -race this also validates
// the page map's atomic publication protocol.
func TestResetMidLookup(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	p.setVCPUs(4)
	if err := p.RegisterCPU(0, 0x9000, 128, TagHeap); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for cpu := 1; cpu < 4; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Verdicts may be racy; classification must stay sane.
				if err := p.LoadStoreCheckCPU(cpu, 0x9040); err != nil {
					var v *Violation
					if !errors.As(err, &v) || v.Kind != LoadStoreViolation {
						t.Errorf("racy lscheck: %v", err)
						return
					}
				}
				p.GetBoundsCPU(cpu, 0x9040)
			}
		}(cpu)
	}
	for i := 0; i < 200; i++ {
		p.Reset()
		if err := p.RegisterCPU(0, 0x9000, 128, TagHeap); err != nil {
			t.Errorf("re-register after reset: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if p.IsQuarantined() {
		t.Fatal("pool quarantined by reset/lookup race")
	}
	// Writer quiescent: every VCPU must now see the final object set.
	for cpu := 0; cpu < 4; cpu++ {
		if err := p.LoadStoreCheckCPU(cpu, 0x9040); err != nil {
			t.Errorf("cpu %d post-race lscheck: %v", cpu, err)
		}
		if err := p.LoadStoreCheckCPU(cpu, 0xA000); err == nil {
			t.Errorf("cpu %d post-race miss passed", cpu)
		}
	}
}

// TestUnmappedObjectsDemoteMisses pins the coverage escape hatch: objects
// the page map cannot represent (above the 4 GiB window, or spanning more
// than maxObjPages pages) must still be found, and their existence must
// demote "no page entry" from a definitive miss to a tree consultation.
func TestUnmappedObjectsDemoteMisses(t *testing.T) {
	for _, tc := range []struct {
		name        string
		start, size uint64
	}{
		{"above-coverage", pmCoverage + 0x1000, 256},
		{"huge-span", 0x10000, (maxObjPages + 4) * PageSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool("MP1", false, true, 0)
			if err := p.RegisterCPU(0, tc.start, tc.size, TagHeap); err != nil {
				t.Fatal(err)
			}
			if p.unmapped.Load() != 1 {
				t.Fatalf("unmapped = %d, want 1", p.unmapped.Load())
			}
			// Inside the unmapped object: only the tree can answer.
			if err := p.LoadStoreCheckCPU(0, tc.start+tc.size/2); err != nil {
				t.Errorf("lscheck inside unmapped object: %v", err)
			}
			// A genuine miss elsewhere must consult the tree too (the page
			// map cannot prove absence while unmapped objects exist) and
			// still come out a violation.
			if err := p.LoadStoreCheckCPU(0, 0x4000); err == nil {
				t.Error("miss passed while unmapped object live")
			}
			if err := p.DropCPU(0, tc.start); err != nil {
				t.Fatal(err)
			}
			if p.unmapped.Load() != 0 {
				t.Errorf("unmapped = %d after drop, want 0", p.unmapped.Load())
			}
		})
	}
}

// TestOverflowPageKeepsUnmappableSurvivor pins the subtle corner in
// pageMap.remove: when an overflow page's surviving object is itself
// unmappable, the page must KEEP its overflow entry — the survivor's own
// removal will never walk these pages, so a direct entry here would go
// stale when it dies.
func TestOverflowPageKeepsUnmappableSurvivor(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	huge := uint64((maxObjPages + 4) * PageSize) // unmappable by span
	if err := p.RegisterCPU(0, 0x10000, huge, TagHeap); err != nil {
		t.Fatal(err)
	}
	// A small object sharing the huge object's first page → overflow there.
	if err := p.RegisterCPU(0, 0x10000-64, 64, TagHeap); err != nil {
		t.Fatal(err)
	}
	if err := p.DropCPU(0, 0x10000-64); err != nil { // survivor is the huge object
		t.Fatal(err)
	}
	if err := p.LoadStoreCheckCPU(0, 0x10010); err != nil {
		t.Errorf("unmappable survivor on ex-overflow page: %v", err)
	}
	// Now drop the huge object; the page must not serve a stale answer.
	if err := p.DropCPU(0, 0x10000); err != nil {
		t.Fatal(err)
	}
	if err := p.LoadStoreCheckCPU(0, 0x10010); err == nil {
		t.Error("lscheck passed after unmappable survivor dropped (stale page entry)")
	}
}

// TestConcurrentLookupsRegisterDrop exercises the read-mostly protocol
// end to end: four VCPUs check disjoint hot objects lock-free while the
// writer registers and drops cold objects elsewhere.  Hot verdicts must
// never waver — the hot objects are not being mutated, so concurrent
// registration of OTHER objects must be invisible to them.
func TestConcurrentLookupsRegisterDrop(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	p.setVCPUs(4)
	for cpu := 0; cpu < 4; cpu++ {
		if err := p.RegisterCPU(0, 0x100000+uint64(cpu)*PageSize, 512, TagHeap); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for cpu := 0; cpu < 4; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			hot := 0x100000 + uint64(cpu)*PageSize
			for i := 0; i < 5000; i++ {
				if err := p.LoadStoreCheckCPU(cpu, hot+uint64(i%512)); err != nil {
					t.Errorf("cpu %d: hot object verdict wavered: %v", cpu, err)
					return
				}
				if err := p.BoundsCheckCPU(cpu, hot, hot+256); err != nil {
					t.Errorf("cpu %d: hot bounds wavered: %v", cpu, err)
					return
				}
			}
		}(cpu)
	}
	// Writer: churn cold objects in a distant address range.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			a := 0x200000 + uint64(i%64)*PageSize
			if err := p.RegisterCPU(0, a, 4096+64, TagHeap); err != nil { // straddles
				t.Errorf("writer register: %v", err)
				return
			}
			if err := p.DropCPU(0, a); err != nil {
				t.Errorf("writer drop: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	merged := p.mergedStats()
	if merged.Violations != 0 {
		t.Errorf("violations = %d, want 0", merged.Violations)
	}
}

// benchPool builds a pool with n single-page objects spread one per page.
func benchPool(b *testing.B, n int, noPageMap bool) (*Pool, []uint64) {
	b.Helper()
	p := NewPool("BM", false, true, 0)
	p.NoPageMap = noPageMap
	addrs := make([]uint64, n)
	for i := 0; i < n; i++ {
		a := 0x10000 + uint64(i)*PageSize
		if err := p.RegisterCPU(0, a, 256, TagHeap); err != nil {
			b.Fatal(err)
		}
		addrs[i] = a + 64
	}
	return p, addrs
}

// BenchmarkLookup compares the page-map fast path against the splay-only
// slow path on a wide working set (1024 hot objects, the regime §7.1.3
// identifies as dominant).
// EXPERIMENTS.md records the ratio; the acceptance floor is 2×.
func BenchmarkLookup(b *testing.B) {
	for _, cfg := range []struct {
		name      string
		noPageMap bool
	}{{"pagemap", false}, {"splay", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			p, addrs := benchPool(b, 1024, cfg.noPageMap)
			// Stride coprime with len(addrs) so consecutive lookups hit
			// different objects.
			b.ResetTimer()
			idx := 0
			for i := 0; i < b.N; i++ {
				if err := p.LoadStoreCheckCPU(0, addrs[idx]); err != nil {
					b.Fatal(err)
				}
				idx += 7
				if idx >= len(addrs) {
					idx -= len(addrs)
				}
			}
		})
	}
}

// BenchmarkLookupMiss compares definitive-miss cost: the page map answers
// with two atomic loads; the splay tree pays a full descent plus rotation.
func BenchmarkLookupMiss(b *testing.B) {
	for _, cfg := range []struct {
		name      string
		noPageMap bool
	}{{"pagemap", false}, {"splay", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			p, _ := benchPool(b, 1024, cfg.noPageMap)
			inc := NewPool("INC", false, false, 0) // incomplete: misses pass
			inc.NoPageMap = cfg.noPageMap
			for i := 0; i < 1024; i++ {
				if err := inc.RegisterCPU(0, 0x10000+uint64(i)*PageSize, 256, TagHeap); err != nil {
					b.Fatal(err)
				}
			}
			_ = p
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := 0x10000 + uint64(i%1024)*PageSize + 2048 // gap: always a miss
				if err := inc.LoadStoreCheckCPU(0, a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLookupParallel measures fast-path scalability: all VCPUs
// hammer checks concurrently.  The page map is lock-free, so throughput
// should scale; the splay-only path serializes on the pool mutex.
func BenchmarkLookupParallel(b *testing.B) {
	for _, cfg := range []struct {
		name      string
		noPageMap bool
	}{{"pagemap", false}, {"splay", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			p, addrs := benchPool(b, 1024, cfg.noPageMap)
			p.setVCPUs(8)
			var next int32
			var mu sync.Mutex
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				cpu := int(next) % 8
				next++
				mu.Unlock()
				idx := cpu * 131
				for pb.Next() {
					if err := p.LoadStoreCheckCPU(cpu, addrs[idx%len(addrs)]); err != nil {
						b.Error(err)
						return
					}
					idx += 7
				}
			})
		})
	}
}
