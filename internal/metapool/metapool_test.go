package metapool

import (
	"errors"
	"testing"
)

// violationKind reduces an op result to a comparable shape: -1 for
// success, the Violation kind otherwise.
func violationKind(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return -1
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("non-violation error: %v", err)
	}
	return int(v.Kind)
}

func TestRegisterDrop(t *testing.T) {
	p := NewPool("MP1", true, true, 16)
	if err := p.RegisterCPU(0, 0x1000, 64, 0); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if p.NumObjects() != 1 {
		t.Fatalf("NumObjects = %d", p.NumObjects())
	}
	if err := p.DropCPU(0, 0x1000); err != nil {
		t.Fatalf("Drop: %v", err)
	}
	if p.NumObjects() != 0 {
		t.Fatalf("NumObjects = %d after drop", p.NumObjects())
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	p.RegisterCPU(0, 0x1000, 64, 0)
	if err := p.DropCPU(0, 0x1000); err != nil {
		t.Fatal(err)
	}
	err := p.DropCPU(0, 0x1000)
	var v *Violation
	if !errors.As(err, &v) || v.Kind != IllegalFree {
		t.Fatalf("double free not detected: %v", err)
	}
}

func TestInteriorFreeDetected(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	p.RegisterCPU(0, 0x1000, 64, 0)
	err := p.DropCPU(0, 0x1010)
	var v *Violation
	if !errors.As(err, &v) || v.Kind != IllegalFree {
		t.Fatalf("interior free not detected: %v", err)
	}
	// Object must still be live.
	if p.NumObjects() != 1 {
		t.Error("interior free removed the object")
	}
}

func TestRegistrationConflict(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	p.RegisterCPU(0, 0x1000, 64, 0)
	err := p.RegisterCPU(0, 0x1020, 64, 0)
	var v *Violation
	if !errors.As(err, &v) || v.Kind != RegistrationConflict {
		t.Fatalf("overlap not detected: %v", err)
	}
	if err := p.RegisterCPU(0, 0x1000, 0, 0); err != nil {
		t.Errorf("zero-size registration should be a no-op: %v", err)
	}
}

func TestBoundsCheckWithinObject(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	p.RegisterCPU(0, 0x1000, 64, 0)
	// Interior and one-past-the-end derived pointers are legal.
	for _, d := range []uint64{0x1000, 0x103F, 0x1040} {
		if err := p.BoundsCheckCPU(0, 0x1000, d); err != nil {
			t.Errorf("BoundsCheck(0x1000, %#x) = %v", d, err)
		}
	}
	// Escaping pointers are violations.
	for _, d := range []uint64{0x0FFF, 0x1041, 0x2000} {
		err := p.BoundsCheckCPU(0, 0x1000, d)
		var v *Violation
		if !errors.As(err, &v) || v.Kind != BoundsViolation {
			t.Errorf("BoundsCheck(0x1000, %#x) = %v, want bounds violation", d, err)
		}
	}
}

func TestBoundsCheckCompleteVsIncomplete(t *testing.T) {
	complete := NewPool("C", false, true, 0)
	incomplete := NewPool("I", false, false, 0)
	// Source address not registered anywhere.
	if err := complete.BoundsCheckCPU(0, 0x9000, 0x9008); err == nil {
		t.Error("complete pool must reject indexing from unregistered pointer")
	}
	if err := incomplete.BoundsCheckCPU(0, 0x9000, 0x9008); err != nil {
		t.Errorf("incomplete pool must reduce the check: %v", err)
	}
	// But indexing from unregistered INTO a registered object is always bad.
	incomplete.RegisterCPU(0, 0xA000, 16, 0)
	if err := incomplete.BoundsCheckCPU(0, 0x9FF0, 0xA004); err == nil {
		t.Error("cross-boundary index into registered object not detected")
	}
}

func TestLoadStoreCheck(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	p.RegisterCPU(0, 0x1000, 64, 0)
	if err := p.LoadStoreCheckCPU(0, 0x1020); err != nil {
		t.Errorf("lscheck inside object: %v", err)
	}
	err := p.LoadStoreCheckCPU(0, 0x2000)
	var v *Violation
	if !errors.As(err, &v) || v.Kind != LoadStoreViolation {
		t.Fatalf("lscheck outside objects = %v", err)
	}
	// Incomplete pools never raise lscheck violations (reduced checks).
	inc := NewPool("I", false, false, 0)
	if err := inc.LoadStoreCheckCPU(0, 0x2000); err != nil {
		t.Errorf("incomplete pool lscheck = %v", err)
	}
}

func TestUserSpaceObject(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	p.RegisterUserSpace(0x1000, 0x8000)
	// Access inside userspace passes.
	if err := p.LoadStoreCheckCPU(0, 0x4000); err != nil {
		t.Errorf("userspace lscheck: %v", err)
	}
	// A buffer starting in userspace but indexed past its end into kernel
	// space is a bounds violation (the attack §4.6 describes).
	if err := p.BoundsCheckCPU(0, 0x7FF0, 0x8010); err == nil {
		t.Error("user-to-kernel straddling pointer not detected")
	}
	if err := p.BoundsCheckCPU(0, 0x4000, 0x4FFF); err != nil {
		t.Errorf("within-userspace index: %v", err)
	}
}

func TestGetBounds(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	p.RegisterCPU(0, 0x1000, 64, 0)
	s, e, ok := p.GetBoundsCPU(0, 0x1010)
	if !ok || s != 0x1000 || e != 0x1040 {
		t.Errorf("GetBounds = %#x,%#x,%v", s, e, ok)
	}
	if _, _, ok := p.GetBoundsCPU(0, 0x5000); ok {
		t.Error("GetBounds on unregistered address succeeded")
	}
}

func TestStatsAccounting(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	p.RegisterCPU(0, 0x1000, 16, 0)
	p.BoundsCheckCPU(0, 0x1000, 0x1008)
	p.LoadStoreCheckCPU(0, 0x1004)
	p.BoundsCheckCPU(0, 0x1000, 0x9999) // violation
	if p.Stats.Registered != 1 || p.Stats.BoundsChecks != 2 || p.Stats.LSChecks != 1 || p.Stats.Violations != 1 {
		t.Errorf("stats = %+v", p.Stats)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	id := r.AddPool(NewPool("MP0", true, true, 8))
	if r.Pool(id).Name != "MP0" {
		t.Error("pool lookup failed")
	}
	cs := r.AddCallSet(map[uint64]bool{0x100: true, 0x200: true})
	if err := r.IndirectCallCheckCPU(0, cs, 0x100); err != nil {
		t.Errorf("legal indirect call rejected: %v", err)
	}
	err := r.IndirectCallCheckCPU(0, cs, 0x300)
	var v *Violation
	if !errors.As(err, &v) || v.Kind != IndirectCallViolation {
		t.Fatalf("illegal indirect call = %v", err)
	}
	if err := r.IndirectCallCheckCPU(0, 99, 0x100); err == nil {
		t.Error("unknown call set accepted")
	}
	r.Pool(id).RegisterCPU(0, 0x10, 8, 0)
	if s := r.TotalStats(); s.Registered != 1 {
		t.Errorf("TotalStats = %+v", s)
	}
}

func TestPoolReset(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	p.RegisterCPU(0, 0x1000, 16, 0)
	p.Reset()
	if p.NumObjects() != 0 || p.Stats.Registered != 0 {
		t.Error("Reset incomplete")
	}
}

func TestRegisterStackEvictsStaleFrames(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	// A task died mid-syscall: its frame's registration was never dropped.
	if err := p.RegisterStackCPU(0, 0x1000, 64); err != nil {
		t.Fatal(err)
	}
	// A new task's frame lands on the recycled stack, overlapping the
	// stale object: the stale STACK registration is evicted, not an error.
	if err := p.RegisterStackCPU(0, 0x1020, 64); err != nil {
		t.Fatalf("stale stack eviction failed: %v", err)
	}
	if p.NumObjects() != 1 {
		t.Errorf("objects = %d, want 1 (stale evicted)", p.NumObjects())
	}
	// Overlap with a HEAP object stays a hard violation.
	p2 := NewPool("MP2", false, true, 0)
	p2.RegisterCPU(0, 0x2000, 64, TagHeap)
	err := p2.RegisterStackCPU(0, 0x2010, 32)
	var v *Violation
	if !errors.As(err, &v) || v.Kind != RegistrationConflict {
		t.Fatalf("stack-over-heap = %v, want registration conflict", err)
	}
}

func TestRegisterStackEvictsMultiple(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	for i := uint64(0); i < 4; i++ {
		if err := p.RegisterStackCPU(0, 0x1000+i*16, 16); err != nil {
			t.Fatal(err)
		}
	}
	// One big new frame object spans all four stale ones.
	if err := p.RegisterStackCPU(0, 0x1000, 64); err != nil {
		t.Fatalf("multi-eviction failed: %v", err)
	}
	if p.NumObjects() != 1 {
		t.Errorf("objects = %d, want 1", p.NumObjects())
	}
}

func TestViolationKindStringNegative(t *testing.T) {
	// Out-of-range kinds (either side) must render, not panic.
	if got := ViolationKind(-1).String(); got != "violation(-1)" {
		t.Errorf("ViolationKind(-1) = %q", got)
	}
	if got := ViolationKind(99).String(); got != "violation(99)" {
		t.Errorf("ViolationKind(99) = %q", got)
	}
}

func TestIndirectCallStatsInTotals(t *testing.T) {
	r := NewRegistry()
	id := r.AddCallSet(map[uint64]bool{0x100: true})
	if err := r.IndirectCallCheckCPU(0, id, 0x100); err != nil {
		t.Fatalf("legal target: %v", err)
	}
	if err := r.IndirectCallCheckCPU(0, id, 0x200); err == nil {
		t.Fatal("illegal target not flagged")
	}
	if err := r.IndirectCallCheckCPU(0, -1, 0x100); err == nil {
		t.Fatal("unknown call set not flagged")
	}
	s := r.TotalStats()
	if s.ICChecks != 3 {
		t.Errorf("ICChecks = %d, want 3", s.ICChecks)
	}
	if s.Violations != 2 {
		t.Errorf("Violations = %d, want 2 (CFI failures count)", s.Violations)
	}
}

// TestLoneObjectAnsweredByPageMap: a narrow object registered alone on
// its page is published in the page map at registration, so the very next
// check on it is a page-map hit — no tree descent, no splay lookup.
func TestLoneObjectAnsweredByPageMap(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	if err := p.RegisterCPU(0, 0x6000, 64, TagHeap); err != nil {
		t.Fatal(err)
	}
	pm0, tree0, lk0 := p.Stats.PageHits, p.Stats.CacheMisses, p.SplayLookups()
	if err := p.BoundsCheckCPU(0, 0x6000, 0x6020); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats.PageHits - pm0; got != 1 {
		t.Errorf("PageHits +%d, want +1", got)
	}
	if got := p.Stats.CacheMisses - tree0; got != 0 {
		t.Errorf("CacheMisses (tree path) +%d, want +0", got)
	}
	if got := p.SplayLookups() - lk0; got != 0 {
		t.Errorf("splay lookups +%d, want +0", got)
	}
}

// TestDropLeavesSplayLookups: deregistration finds its object in the tree
// but is not a run-time check, so neither a narrow nor a wide drop may
// move the splay lookup count.
func TestDropLeavesSplayLookups(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	wide := uint64(3) << regionShift
	if err := p.RegisterCPU(0, 0x6000, 64, TagHeap); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterCPU(0, wide, 2<<regionShift, TagHeap); err != nil {
		t.Fatal(err)
	}
	lk0 := p.SplayLookups()
	for _, addr := range []uint64{0x6000, wide} {
		if err := p.DropCPU(0, addr); err != nil {
			t.Fatalf("drop %#x: %v", addr, err)
		}
	}
	if got := p.SplayLookups() - lk0; got != 0 {
		t.Errorf("splay lookups +%d across two drops, want +0", got)
	}
}

// TestBoundsTestMatchesBoundsCheck: pchk.bounds.test answers true exactly
// when pchk.bounds(src, src+k) would pass for every k in [lo, hi] —
// inclusive one-past-the-end, no wrap-around — and records no violation
// when it answers false.
func TestBoundsTestMatchesBoundsCheck(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	if err := p.RegisterCPU(0, 0x1000, 64, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterCPU(0, 0x1040, 16, 0); err != nil { // flush neighbour
		t.Fatal(err)
	}
	for _, tc := range []struct {
		src, lo, hi uint64
		want        bool
	}{
		{0x1000, 0, 63, true},
		{0x1000, 24, 64, true},  // one past the end, as pchk.bounds allows
		{0x1000, 24, 65, false}, // into the neighbour
		{0x1010, 0, 48, true},
		{0x1010, 8, 7, false},               // lo > hi
		{0x1000, 0, ^uint64(0), false},      // src+hi wraps below src
		{0x1000, ^uint64(0) - 8, 4, false},  // src+lo wraps
		{0x0f00, 0x100, 0x110, false},       // src unregistered
		{0x1000, 1 << 63, 1<<63 + 1, false}, // far past the object
	} {
		if got := p.BoundsTestCPU(0, tc.src, tc.lo, tc.hi); got != tc.want {
			t.Errorf("BoundsTest(%#x, %d, %d) = %v, want %v", tc.src, tc.lo, tc.hi, got, tc.want)
		}
		if tc.want {
			for _, k := range []uint64{tc.lo, tc.hi} {
				if err := p.BoundsCheckCPU(0, tc.src, tc.src+k); err != nil {
					t.Errorf("BoundsTest(%#x, %d, %d) passed but pchk.bounds at +%d fails: %v", tc.src, tc.lo, tc.hi, k, err)
				}
			}
		}
	}
	if p.Stats.Violations != 0 {
		t.Errorf("failed queries recorded %d violations", p.Stats.Violations)
	}
	p.Quarantine()
	if p.BoundsTestCPU(0, 0x1000, 0, 63) {
		t.Error("quarantined pool answered true")
	}
}
