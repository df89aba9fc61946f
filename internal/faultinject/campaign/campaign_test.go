package campaign

import (
	"runtime"
	"testing"
	"testing/quick"

	"sva/internal/faultinject"
	"sva/internal/hbench"
	"sva/internal/kernel"
	"sva/internal/vm"
)

// TestOnePerClass is the fast sanity pass: one seeded run of every fault
// class must fire (where its battery reaches the seam), classify, and
// never escape.
func TestOnePerClass(t *testing.T) {
	for _, c := range faultinject.Classes {
		r := RunOne(c, 1)
		t.Logf("%-10s prog=%-14s fired=%-4d outcome=%-9s %s", c, r.Prog, r.Fired, r.Outcome, r.Detail)
		if r.Outcome == Escape {
			t.Errorf("%s: host escape: %s", c, r.Detail)
		}
	}
}

// TestFullCampaign is the acceptance criterion of the robustness claim:
// every fault class times 25 seeds, every injection classified, zero host
// escapes.
func TestFullCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign skipped in -short mode")
	}
	const seedsPer = 25
	results, sum, err := Run(faultinject.Classes, seedsPer, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sum.Total(), len(faultinject.Classes)*seedsPer; got != want {
		t.Errorf("campaign classified %d runs, want %d — some run was not classified", got, want)
	}
	for i, c := range sum.Classes {
		row := sum.Counts[i]
		t.Logf("%-10s detected=%-3d oops=%-3d failstop=%-3d tolerated=%-3d escape=%-3d fired=%d",
			c, row[Detected], row[Oops], row[FailStop], row[Tolerated], row[Escape], sum.Fired[i])
		if sum.Fired[i] == 0 {
			t.Errorf("%s: no injection fired across %d seeds; the seam is unreachable from its battery", c, seedsPer)
		}
	}
	for _, r := range results {
		if r.Outcome == Escape {
			t.Errorf("HOST ESCAPE: %s seed=%d prog=%s: %s", r.Class, r.Seed, r.Prog, r.Detail)
		}
	}
	if n := sum.Escapes(); n != 0 {
		t.Errorf("campaign recorded %d host escapes, want 0", n)
	}
}

// TestOnePerClassSMP is the fast SMP sanity pass: one seeded 4-VCPU run of
// every class must classify without a host escape.  Unlike the uniprocessor
// battery, the SMP battery is per-task syscalls only, so classes whose seam
// sits in a driver (diskio, netio) may legitimately report zero firings.
func TestOnePerClassSMP(t *testing.T) {
	for _, c := range faultinject.Classes {
		r := RunOneSMP(c, 1)
		t.Logf("%-10s prog=%-14s fired=%-4d outcome=%-9s %s", c, r.Prog, r.Fired, r.Outcome, r.Detail)
		if r.Outcome == Escape {
			t.Errorf("%s: host escape: %s", c, r.Detail)
		}
	}
}

// fullCampaignSMPAt drives the complete SMP campaign (every fault class
// times 25 seeds) at one VCPU count and fails on any host escape.
func fullCampaignSMPAt(t *testing.T, vcpus int) {
	t.Helper()
	const seedsPer = 25
	results, sum, err := RunSMPAt(faultinject.Classes, seedsPer, runtime.NumCPU(), vcpus)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sum.Total(), len(faultinject.Classes)*seedsPer; got != want {
		t.Errorf("campaign classified %d runs, want %d — some run was not classified", got, want)
	}
	for i, c := range sum.Classes {
		row := sum.Counts[i]
		t.Logf("%-10s detected=%-3d oops=%-3d failstop=%-3d tolerated=%-3d escape=%-3d fired=%d",
			c, row[Detected], row[Oops], row[FailStop], row[Tolerated], row[Escape], sum.Fired[i])
		// smp_probe's bounds check is the battery's metapool lookup: the
		// splay class must reach it.
		if c == faultinject.ClassSplay && sum.Fired[i] == 0 {
			t.Errorf("splay: no injection fired across %d seeds; the SMP battery reaches no tree lookup", seedsPer)
		}
	}
	for _, r := range results {
		if r.Outcome == Escape {
			t.Errorf("HOST ESCAPE: %s seed=%d prog=%s: %s", r.Class, r.Seed, r.Prog, r.Detail)
		}
	}
	if n := sum.Escapes(); n != 0 {
		t.Errorf("campaign recorded %d host escapes, want 0", n)
	}
}

// TestFullCampaignSMP extends the robustness claim to parallel execution:
// every fault class times 25 seeds against a 4-VCPU system, zero escapes.
func TestFullCampaignSMP(t *testing.T) {
	if testing.Short() {
		t.Skip("full SMP campaign skipped in -short mode")
	}
	fullCampaignSMPAt(t, SMPVCPUs)
}

// TestFullCampaignSMP16 repeats the full campaign at 16 VCPUs — the
// scaling PR's acceptance bar: the sharded write paths and epoch
// reclamation must hold zero host escapes with 4x the default parallelism.
func TestFullCampaignSMP16(t *testing.T) {
	if testing.Short() {
		t.Skip("full 16-VCPU SMP campaign skipped in -short mode")
	}
	if raceDetectorOn {
		t.Skip("175 sixteen-goroutine runs exceed the package timeout under -race; make smpsmoke16 covers 16-VCPU races")
	}
	fullCampaignSMPAt(t, 16)
}

// TestSMPSmoke16 is the abbreviated 16-VCPU gate behind `make smpsmoke16`:
// a 16-VCPU boot plus one seeded run of every fault class, zero escapes.
// It stays cheap enough to run under the race detector in `make check`.
func TestSMPSmoke16(t *testing.T) {
	for _, c := range faultinject.Classes {
		r := RunOneSMPAt(c, 1, 16)
		t.Logf("%-10s prog=%-14s fired=%-4d outcome=%-9s %s", c, r.Prog, r.Fired, r.Outcome, r.Detail)
		if r.Outcome == Escape {
			t.Errorf("%s: host escape: %s", c, r.Detail)
		}
	}
}

// TestChaosInvariance is the zero-cost-when-disabled property, mirroring
// the telemetry invariance test: a system with every injection hook wired
// but the injector inert (ClassNone) must produce bit-identical results,
// cycles, counters and violation counts to a twin with no injector at all
// — and stay identical after the hooks are torn down mid-sequence.
func TestChaosInvariance(t *testing.T) {
	boot := func() *kernel.System {
		u := hbench.BuildBenchModule()
		sys, err := kernel.NewSystem(vm.ConfigSafe, true, u.M)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	plain := boot()
	hooked := boot()
	hooked.VM.InstallChaos(faultinject.New(faultinject.ClassNone, 42))

	runs := 0
	prop := func(opIdx uint8, itersRaw uint16) bool {
		runs++
		if runs == 6 {
			hooked.VM.UninstallChaos()
		}
		op := hbench.LatencyOps[int(opIdx)%len(hbench.LatencyOps)]
		iters := uint64(itersRaw%8) + 1
		var rets [2]uint64
		var errs [2]string
		for i, sys := range []*kernel.System{plain, hooked} {
			f := sys.Extra[0].Func(op.Prog)
			got, err := sys.RunUser(f, iters, 4_000_000_000)
			rets[i] = got
			if err != nil {
				errs[i] = err.Error()
			}
		}
		if rets[0] != rets[1] || errs[0] != errs[1] {
			t.Logf("%s(%d): ret %d vs %d, err %q vs %q", op.Prog, iters, rets[0], rets[1], errs[0], errs[1])
			return false
		}
		if a, b := plain.VM.Mach.CPU.Cycles, hooked.VM.Mach.CPU.Cycles; a != b {
			t.Logf("%s(%d): cycles %d vs %d", op.Prog, iters, a, b)
			return false
		}
		if plain.VM.Counters != hooked.VM.Counters {
			t.Logf("%s(%d): counters diverged:\n%+v\n%+v", op.Prog, iters, plain.VM.Counters, hooked.VM.Counters)
			return false
		}
		if a, b := len(plain.VM.Violations), len(hooked.VM.Violations); a != b {
			t.Logf("%s(%d): violations %d vs %d", op.Prog, iters, a, b)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
	if runs < 6 {
		t.Fatalf("property ran only %d times; teardown path not exercised", runs)
	}
	if hooked.VM.Chaos() != nil || hooked.VM.Mach.Phys.Chaos != nil {
		t.Fatal("UninstallChaos left a seam armed")
	}
}

// TestDeterministicOutcome: the same (class, seed) pair must reproduce the
// same classification, firing count and battery program — campaigns are
// replayable from their seed table alone.
func TestDeterministicOutcome(t *testing.T) {
	for _, c := range []faultinject.Class{faultinject.ClassOOM, faultinject.ClassSplay} {
		a := RunOne(c, 7)
		b := RunOne(c, 7)
		if a.Outcome != b.Outcome || a.Fired != b.Fired || a.Prog != b.Prog || a.Detail != b.Detail {
			t.Errorf("%s seed=7 not reproducible:\n%+v\n%+v", c, a, b)
		}
	}
}
