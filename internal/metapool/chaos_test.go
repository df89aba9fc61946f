package metapool

import (
	"errors"
	"testing"

	"sva/internal/faultinject"
)

// TestPoolCheckedBadID covers the converted panic site: a check naming a
// pool that does not exist is the guest's fault and comes back as a
// MetadataCorruption violation, never a panic.
func TestPoolCheckedBadID(t *testing.T) {
	r := NewRegistry()
	id := r.AddPool(NewPool("MP0", false, true, 0))
	if _, err := r.PoolChecked(id); err != nil {
		t.Fatalf("valid id rejected: %v", err)
	}
	for _, bad := range []int{-1, id + 1, 1 << 20} {
		_, err := r.PoolChecked(bad)
		var v *Violation
		if !errors.As(err, &v) || v.Kind != MetadataCorruption {
			t.Errorf("PoolChecked(%d) = %v, want MetadataCorruption violation", bad, err)
		}
	}
}

// TestSplayCorruptionFailsClosed runs every corruption mode the ClassSplay
// injector uses and asserts the pool fails closed: either the lookup
// misses (unregistered-object policy) or the pool quarantines with a
// MetadataCorruption violation.  No corruption may let a check pass
// against damaged bounds wider than the registered object.
func TestSplayCorruptionFailsClosed(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		p := NewPool("MPX", false, true, 0)
		inj := faultinject.New(faultinject.ClassSplay, seed)
		inj.SetInterval(1)
		const base, size = 0x1000, 64
		if err := p.RegisterCPU(0, base, size, 0); err != nil {
			t.Fatal(err)
		}
		p.chaos = inj
		// The check that triggers the corruption must not succeed with
		// out-of-object bounds: base+size is one past the object.
		err := p.BoundsCheckCPU(0, base, base+size)
		if err == nil {
			t.Errorf("seed %d: bounds check passed against corrupted metadata", seed)
			continue
		}
		var v *Violation
		if !errors.As(err, &v) {
			t.Errorf("seed %d: unstructured error %v", seed, err)
		}
		if p.IsQuarantined() {
			// Once quarantined, every later check fails closed too.
			if err := p.LoadStoreCheckCPU(0, base); err == nil {
				t.Errorf("seed %d: quarantined pool passed a load/store check", seed)
			}
		}
	}
}

// TestQuarantineIdempotentAndCounted: quarantine survives repeated hits
// and is visible in the snapshot row.
func TestQuarantineIdempotent(t *testing.T) {
	// Scan seeds for one whose first corruption grows the node's length
	// (the mode rangeValid catches, which quarantines the pool); the other
	// modes degrade to lookup misses instead.
	var r *Registry
	var p *Pool
	for seed := uint64(1); seed <= 32 && (p == nil || !p.IsQuarantined()); seed++ {
		r = NewRegistry()
		p = NewPool("MPQ", false, true, 0)
		r.AddPool(p)
		if err := p.RegisterCPU(0, 0x2000, 32, 0); err != nil {
			t.Fatal(err)
		}
		inj := faultinject.New(faultinject.ClassSplay, seed)
		inj.SetInterval(1)
		p.chaos = inj
		_ = p.LoadStoreCheckCPU(0, 0x2000)
		p.chaos = nil
	}
	if !p.IsQuarantined() {
		t.Fatal("no seed in 1..32 produced a quarantining corruption")
	}
	v1 := p.Stats.Violations
	_ = p.LoadStoreCheckCPU(0, 0x2000)
	_ = p.LoadStoreCheckCPU(0, 0x2008)
	if p.Stats.Violations <= v1 {
		t.Error("quarantined pool stopped counting violations")
	}
	snap := r.Snapshot()
	found := false
	for _, row := range snap.Pools {
		if row.Name == "MPQ" && row.Quarantined {
			found = true
		}
	}
	if !found {
		t.Error("snapshot does not mark the pool quarantined")
	}
}

// TestChaosDisarmedIsInert: a pool with a nil injector or an injector of a
// different class behaves identically to an unhooked pool.
func TestChaosDisarmedIsInert(t *testing.T) {
	p := NewPool("MPI", false, true, 0)
	p.chaos = faultinject.New(faultinject.ClassOOM, 1) // wrong class: never fires here
	if err := p.RegisterCPU(0, 0x3000, 16, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := p.LoadStoreCheckCPU(0, 0x3000+uint64(i%16)); err != nil {
			t.Fatalf("disarmed pool violated: %v", err)
		}
	}
	if p.IsQuarantined() {
		t.Error("disarmed pool quarantined itself")
	}
}
