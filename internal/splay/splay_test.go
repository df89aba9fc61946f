package splay

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestInsertFind(t *testing.T) {
	var tr Tree
	if !tr.Insert(Range{Start: 100, Len: 16}) {
		t.Fatal("insert failed")
	}
	if !tr.Insert(Range{Start: 200, Len: 8}) {
		t.Fatal("insert failed")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for _, addr := range []uint64{100, 107, 115} {
		r, ok := tr.Find(addr)
		if !ok || r.Start != 100 {
			t.Errorf("Find(%d) = %v, %v", addr, r, ok)
		}
	}
	for _, addr := range []uint64{99, 116, 199, 208, 0} {
		if _, ok := tr.Find(addr); ok {
			t.Errorf("Find(%d) unexpectedly succeeded", addr)
		}
	}
	if r, ok := tr.Find(207); !ok || r.Start != 200 {
		t.Errorf("Find(207) = %v, %v", r, ok)
	}
}

func TestInsertRejectsOverlap(t *testing.T) {
	var tr Tree
	tr.Insert(Range{Start: 100, Len: 16})
	overlaps := []Range{
		{Start: 100, Len: 16}, // identical
		{Start: 90, Len: 11},  // crosses start
		{Start: 115, Len: 2},  // crosses end
		{Start: 104, Len: 4},  // inside
		{Start: 90, Len: 100}, // encloses
	}
	for _, r := range overlaps {
		if tr.Insert(r) {
			t.Errorf("Insert(%v) should have been rejected", r)
		}
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d after rejected inserts", tr.Len())
	}
	// Adjacent (touching) ranges are fine.
	if !tr.Insert(Range{Start: 116, Len: 4}) {
		t.Error("adjacent range rejected")
	}
	if !tr.Insert(Range{Start: 96, Len: 4}) {
		t.Error("adjacent range rejected")
	}
}

func TestInsertRejectsDegenerate(t *testing.T) {
	var tr Tree
	if tr.Insert(Range{Start: 5, Len: 0}) {
		t.Error("zero-length range accepted")
	}
	if tr.Insert(Range{Start: ^uint64(0) - 1, Len: 10}) {
		t.Error("wrapping range accepted")
	}
}

func TestRemove(t *testing.T) {
	var tr Tree
	for i := 0; i < 10; i++ {
		tr.Insert(Range{Start: uint64(i * 100), Len: 50})
	}
	r, ok := tr.Remove(325) // inside [300,350)
	if !ok || r.Start != 300 {
		t.Fatalf("Remove(325) = %v, %v", r, ok)
	}
	if _, ok := tr.Find(325); ok {
		t.Error("removed range still found")
	}
	if tr.Len() != 9 {
		t.Errorf("Len = %d", tr.Len())
	}
	if _, ok := tr.Remove(325); ok {
		t.Error("double remove succeeded")
	}
	// All others still present.
	for i := 0; i < 10; i++ {
		if i == 3 {
			continue
		}
		if _, ok := tr.Find(uint64(i*100) + 10); !ok {
			t.Errorf("range %d missing after unrelated remove", i)
		}
	}
}

func TestFindStart(t *testing.T) {
	var tr Tree
	tr.Insert(Range{Start: 64, Len: 32})
	if _, ok := tr.FindStart(64); !ok {
		t.Error("FindStart(64) failed")
	}
	if _, ok := tr.FindStart(65); ok {
		t.Error("FindStart(65) should fail: interior pointer is not object start")
	}
	if tr.Lookups != 0 {
		t.Errorf("Lookups = %d after FindStart only, want 0", tr.Lookups)
	}
}

func TestWalkOrdered(t *testing.T) {
	var tr Tree
	starts := []uint64{500, 100, 300, 200, 400}
	for _, s := range starts {
		tr.Insert(Range{Start: s, Len: 10})
	}
	var got []uint64
	tr.Walk(func(r Range) bool {
		got = append(got, r.Start)
		return true
	})
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("Walk order = %v", got)
	}
	if len(got) != 5 {
		t.Errorf("Walk visited %d ranges", len(got))
	}
	// Early stop.
	n := 0
	tr.Walk(func(Range) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestClear(t *testing.T) {
	var tr Tree
	tr.Insert(Range{Start: 1, Len: 1})
	tr.Clear()
	if tr.Len() != 0 {
		t.Error("Clear did not empty the tree")
	}
	if _, ok := tr.Find(1); ok {
		t.Error("Find succeeded after Clear")
	}
}

// refModel is a trivially correct reference: a slice of ranges.
type refModel []Range

func (m refModel) find(addr uint64) (Range, bool) {
	for _, r := range m {
		if r.Contains(addr) {
			return r, true
		}
	}
	return Range{}, false
}

func (m refModel) overlaps(r Range) bool {
	for _, x := range m {
		if rangesOverlap(x, r) {
			return true
		}
	}
	return false
}

// TestQuickAgainstReference drives random operation sequences against the
// splay tree and the reference model and checks they agree.
func TestQuickAgainstReference(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr Tree
		var ref refModel
		for op := 0; op < 300; op++ {
			switch rng.Intn(4) {
			case 0, 1: // insert
				r := Range{Start: uint64(rng.Intn(1000)), Len: uint64(1 + rng.Intn(20))}
				got := tr.Insert(r)
				want := !ref.overlaps(r) && r.Len > 0
				if got != want {
					t.Logf("seed %d: Insert(%v) = %v, want %v", seed, r, got, want)
					return false
				}
				if got {
					ref = append(ref, r)
				}
			case 2: // find
				addr := uint64(rng.Intn(1100))
				gr, gok := tr.Find(addr)
				wr, wok := ref.find(addr)
				if gok != wok || (gok && gr != wr) {
					t.Logf("seed %d: Find(%d) = %v,%v want %v,%v", seed, addr, gr, gok, wr, wok)
					return false
				}
			case 3: // remove
				addr := uint64(rng.Intn(1100))
				gr, gok := tr.Remove(addr)
				wr, wok := ref.find(addr)
				if gok != wok || (gok && gr != wr) {
					t.Logf("seed %d: Remove(%d) = %v,%v want %v,%v", seed, addr, gr, gok, wr, wok)
					return false
				}
				if wok {
					for i, x := range ref {
						if x == wr {
							ref = append(ref[:i], ref[i+1:]...)
							break
						}
					}
				}
			}
			if tr.Len() != len(ref) {
				t.Logf("seed %d: Len = %d, want %d", seed, tr.Len(), len(ref))
				return false
			}
		}
		// Final sweep: every model range findable at every boundary.
		for _, r := range ref {
			if got, ok := tr.Find(r.Start); !ok || got != r {
				return false
			}
			if got, ok := tr.Find(r.End() - 1); !ok || got != r {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

func BenchmarkFindHot(b *testing.B) {
	var tr Tree
	for i := 0; i < 1000; i++ {
		tr.Insert(Range{Start: uint64(i * 64), Len: 48})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Hot lookup of the same object: the splay-to-root case that makes
		// per-pool trees fast in SAFECode.
		tr.Find(32000 + 16)
	}
}

func BenchmarkFindUniform(b *testing.B) {
	var tr Tree
	for i := 0; i < 1000; i++ {
		tr.Insert(Range{Start: uint64(i * 64), Len: 48})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Find(uint64((i * 2654435761) % 64000))
	}
}
