package vm

import (
	"math/rand"
	"testing"

	"sva/internal/hw"
	"sva/internal/ir"
)

// buildCallerCallee returns a module with f (a loop mixing arithmetic and
// memory traffic) calling a helper g, so two functions translate.
func buildCallerCallee() *ir.Module {
	m := ir.NewModule("smp")
	b := ir.NewBuilder(m)
	g := b.NewFunc("g", ir.FuncOf(ir.I64, []*ir.Type{ir.I64}, false), "x")
	b.Ret(b.Add(b.Param(0), ir.I64c(3)))
	_ = g
	f := b.NewFunc("f", ir.FuncOf(ir.I64, []*ir.Type{ir.I64}, false), "n")
	buf := b.Alloca(ir.ArrayOf(4, ir.I64), "buf")
	entry := f.Entry()
	loop := f.NewBlock("loop")
	done := f.NewBlock("done")
	b.Br(loop)
	b.SetBlock(loop)
	// Loop-carried phi operands are patched in below once the back-edge
	// values exist.
	i := b.Phi(ir.I64, []ir.Value{ir.I64c(0), ir.I64c(0)}, []*ir.BasicBlock{entry, loop})
	acc := b.Phi(ir.I64, []ir.Value{ir.I64c(0), ir.I64c(0)}, []*ir.BasicBlock{entry, loop})
	slot := b.Index(buf, b.And(i, ir.I64c(3)))
	b.Store(acc, slot)
	nacc := b.Call(g, b.Add(b.Load(slot), i))
	ni := b.Add(i, ir.I64c(1))
	b.CondBr(b.ICmp(ir.PredULT, ni, b.Param(0)), loop, done)
	b.SetBlock(done)
	b.Ret(acc)
	i.Args[1] = ni
	acc.Args[1] = nacc
	return m
}

// TestTranslationSharedAcrossVCPUs is the regression test for the
// per-VCPU translation caches: EnableSMP used to give every sibling a
// private cache, so each function re-translated once per VCPU and the
// machine-wide Translations count scaled with the CPU count.  One
// compiled cache is shared now: a function translates once no matter
// which (or how many) VCPUs call it.
func TestTranslationSharedAcrossVCPUs(t *testing.T) {
	m := buildCallerCallee()
	if errs := ir.VerifyModule(m); len(errs) != 0 {
		t.Fatal(errs[0])
	}
	v := New(hw.NewMachine(0, 64), ConfigSVALLVM)
	if err := v.LoadModule(m, false); err != nil {
		t.Fatal(err)
	}
	vcpus, err := v.EnableSMP(4)
	if err != nil {
		t.Fatal(err)
	}
	f := v.FuncByName("f")
	for _, vc := range vcpus {
		top, err := vc.AllocKernelStack(64 * 1024)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := vc.NewExec(f, []uint64{50}, top, hw.PrivKernel)
		if err != nil {
			t.Fatal(err)
		}
		vc.SetExec(ex)
	}
	for i, r := range RunAll(vcpus) {
		if r.Err != nil {
			t.Fatalf("vcpu %d: %v", i, r.Err)
		}
	}
	var total uint64
	for _, vc := range vcpus {
		total += vc.Counters.Translations
		if vc.Counters.EngineSteps == 0 {
			t.Errorf("vcpu %d retired no engine steps", vc.CPUID())
		}
	}
	if total != 2 {
		t.Errorf("machine-wide Translations = %d, want 2 (f and g, once each)", total)
	}
	// The compiled form really is one object, not per-VCPU copies.
	cf0, err := vcpus[0].translate(f)
	if err != nil {
		t.Fatal(err)
	}
	cf1, err := vcpus[1].translate(f)
	if err != nil {
		t.Fatal(err)
	}
	if cf0 != cf1 {
		t.Error("sibling VCPUs hold distinct compiled functions")
	}
}

// TestTranslateAllOrNothing is the regression test for the partial-state
// leak: a translation that fails mid-function (here: the load of a global
// the VM has not resolved yet, one instruction after a GEP whose plan was
// already built) must publish nothing — no GEP plan, no compiled
// function, no Translations count.
func TestTranslateAllOrNothing(t *testing.T) {
	m := ir.NewModule("partial")
	g := m.NewGlobal("data", ir.I64, ir.I64c(7))
	b := ir.NewBuilder(m)
	f := b.NewFunc("broken", ir.FuncOf(ir.I64, []*ir.Type{ir.PointerTo(ir.ArrayOf(4, ir.I64)), ir.I64}, false), "p", "i")
	slot := b.Index(b.Param(0), b.Param(1)) // GEP with a dynamic index: plan gets built
	x := b.Load(slot)
	y := b.Load(g) // fails lowering until the module is loaded
	b.Ret(b.Add(x, y))
	f.Renumber()
	gep := slot

	v := New(hw.NewMachine(0, 16), ConfigSafe)
	if _, err := v.translate(f); err == nil {
		t.Fatal("translating against an unresolved global succeeded")
	}
	if _, ok := v.eng.gepPlans.Load(gep); ok {
		t.Error("failed translation leaked a GEP plan")
	}
	if _, ok := v.eng.translated.Load(f); ok {
		t.Error("failed translation published a compiled function")
	}
	if v.Counters.Translations != 0 {
		t.Errorf("failed translation counted: Translations = %d", v.Counters.Translations)
	}

	// Once the global resolves, the same function translates cleanly and
	// the plan appears — the failure left no wedged state behind.
	if err := v.LoadModule(m, false); err != nil {
		t.Fatal(err)
	}
	if _, err := v.translate(f); err != nil {
		t.Fatalf("retranslation after load: %v", err)
	}
	if _, ok := v.eng.gepPlans.Load(gep); !ok {
		t.Error("successful translation did not publish the GEP plan")
	}
	if v.Counters.Translations != 1 {
		t.Errorf("Translations = %d, want 1", v.Counters.Translations)
	}
}

// TestThreadedEngineEquivalence runs random programs on engine-on and
// engine-off twins of the same configuration, for every configuration:
// results, virtual cycles and every counter except EngineSteps must be
// bit-identical, and the engine must actually engage (EngineSteps > 0) so
// the comparison is not vacuous.
func TestThreadedEngineEquivalence(t *testing.T) {
	for _, cfg := range []Config{ConfigNative, ConfigSVAGCC, ConfigSVALLVM, ConfigSafe} {
		t.Run(cfg.String(), func(t *testing.T) { threadedEngineEquivalence(t, cfg) })
	}
}

func threadedEngineEquivalence(t *testing.T, cfg Config) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := ir.NewModule("equiv")
		randomFunc(m, "f", rng)
		if errs := ir.VerifyModule(m); len(errs) != 0 {
			t.Fatalf("seed %d: %v", seed, errs[0])
		}
		x, y := rng.Uint64(), rng.Uint64()
		var results [2]uint64
		var cycles [2]uint64
		var counters [2]Counters
		for i, engineOn := range []bool{true, false} {
			v := New(hw.NewMachine(0, 16), cfg)
			v.SetEngine(engineOn)
			if err := v.LoadModule(m, false); err != nil {
				t.Fatal(err)
			}
			top, _ := v.AllocKernelStack(64 * 1024)
			ex, err := v.NewExec(v.FuncByName("f"), []uint64{x, y}, top, hw.PrivKernel)
			if err != nil {
				t.Fatal(err)
			}
			v.SetExec(ex)
			got, err := v.Run()
			if err != nil {
				t.Fatalf("seed %d engine=%v: %v", seed, engineOn, err)
			}
			results[i] = got
			cycles[i] = v.CPU.Cycles
			counters[i] = v.Counters
		}
		if counters[0].EngineSteps == 0 {
			t.Fatalf("seed %d: engine never engaged", seed)
		}
		if counters[1].EngineSteps != 0 {
			t.Fatalf("seed %d: engine-off twin retired engine steps", seed)
		}
		counters[0].EngineSteps, counters[1].EngineSteps = 0, 0
		if results[0] != results[1] {
			t.Errorf("seed %d: engine=%#x interpreter=%#x", seed, results[0], results[1])
		}
		if cycles[0] != cycles[1] {
			t.Errorf("seed %d: cycles %d vs %d — the engine leaked into virtual time", seed, cycles[0], cycles[1])
		}
		if counters[0] != counters[1] {
			t.Errorf("seed %d: counter divergence:\n engine: %+v\n interp: %+v", seed, counters[0], counters[1])
		}
	}
}

// TestEngineIntrinsicRebinding: compiled call closures bind their handler
// at translate time; re-registering an intrinsic — even from inside a
// running handler, while frames still hold the old compiled form — must
// take effect on the very next call, exactly as the interpreter's
// per-call table lookup would.
func TestEngineIntrinsicRebinding(t *testing.T) {
	build := func() *ir.Module {
		m := ir.NewModule("rebind")
		b := ir.NewBuilder(m)
		hook := m.NewFunc("test.hook", ir.FuncOf(ir.I64, nil, false))
		hook.Intrinsic = true
		b.NewFunc("kmain", ir.FuncOf(ir.I64, nil, false))
		a := b.Call(hook)
		c := b.Call(hook)
		b.Ret(b.Add(a, c))
		return m
	}
	for _, engineOn := range []bool{true, false} {
		v := New(hw.NewMachine(0, 16), ConfigSVALLVM)
		v.SetEngine(engineOn)
		v.RegisterIntrinsic("test.hook", func(v *VM, _ []uint64) (IntrinsicResult, error) {
			// First call: answer 1 and swap the handler underneath the
			// already-compiled caller.
			v.RegisterIntrinsic("test.hook", func(*VM, []uint64) (IntrinsicResult, error) {
				return IntrinsicResult{Value: 2}, nil
			})
			return IntrinsicResult{Value: 1}, nil
		})
		if err := v.LoadModule(build(), false); err != nil {
			t.Fatal(err)
		}
		top, _ := v.AllocKernelStack(16 * 1024)
		ex, err := v.NewExec(v.FuncByName("kmain"), nil, top, hw.PrivKernel)
		if err != nil {
			t.Fatal(err)
		}
		v.SetExec(ex)
		got, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got != 3 {
			t.Errorf("engine=%v: got %d, want 3 (1 from the old handler, 2 from the rebound one)", engineOn, got)
		}
	}
}
