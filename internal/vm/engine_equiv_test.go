package vm

import (
	"math/rand"
	"testing"

	"sva/internal/hw"
	"sva/internal/ir"
)

// randomFunc generates a random (but verifier-clean) function mixing
// arithmetic, comparisons, selects, casts and memory traffic through a
// scratch buffer.
func randomFunc(m *ir.Module, name string, rng *rand.Rand) *ir.Function {
	b := ir.NewBuilder(m)
	f := b.NewFunc(name, ir.FuncOf(ir.I64, []*ir.Type{ir.I64, ir.I64}, false), "x", "y")
	buf := b.Alloca(ir.ArrayOf(8, ir.I64), "buf")
	vals := []ir.Value{b.Param(0), b.Param(1), ir.I64c(rng.Int63n(1000) + 1)}
	pick := func() ir.Value { return vals[rng.Intn(len(vals))] }
	for i := 0; i < 30+rng.Intn(40); i++ {
		var v ir.Value
		switch rng.Intn(10) {
		case 0:
			v = b.Add(pick(), pick())
		case 1:
			v = b.Sub(pick(), pick())
		case 2:
			v = b.Mul(pick(), pick())
		case 3:
			// Safe division: force a nonzero divisor.
			v = b.UDiv(pick(), b.Or(pick(), ir.I64c(1)))
		case 4:
			v = b.Xor(pick(), pick())
		case 5:
			v = b.Shl(pick(), b.And(pick(), ir.I64c(31)))
		case 6:
			c := b.ICmp(ir.Pred(rng.Intn(10)), pick(), pick())
			v = b.Select(c, pick(), pick())
		case 7:
			// Round-trip through a narrower width.
			t := b.Trunc(pick(), ir.I32)
			v = b.ZExt(t, ir.I64)
		case 8:
			slot := b.Index(buf, b.And(pick(), ir.I64c(7)))
			b.Store(pick(), slot)
			v = b.Load(slot)
		default:
			v = b.AShr(pick(), b.And(pick(), ir.I64c(15)))
		}
		vals = append(vals, v)
	}
	acc := vals[0]
	for _, v := range vals[1:] {
		acc = b.Xor(acc, v)
	}
	b.Ret(acc)
	return f
}

// TestEngineEquivalence: the direct interpreter and the translated
// (pre-lowered) engine must compute identical results on random programs —
// translation is an optimization, never a semantic change (§3.4).
func TestEngineEquivalence(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := ir.NewModule("equiv")
		randomFunc(m, "f", rng)
		if errs := ir.VerifyModule(m); len(errs) != 0 {
			t.Fatalf("seed %d: %v", seed, errs[0])
		}
		x, y := rng.Uint64(), rng.Uint64()
		var results [2]uint64
		for i, cfg := range []Config{ConfigSVAGCC, ConfigSVALLVM} {
			v := New(hw.NewMachine(0, 16), cfg)
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
				t.Fatalf("seed %d cfg %v: %v", seed, cfg, err)
			}
			results[i] = got
		}
		if results[0] != results[1] {
			t.Errorf("seed %d: direct=%#x translated=%#x", seed, results[0], results[1])
		}
	}
}

// TestContinuationReplayable: a saved integer state can be loaded more
// than once; each resumption replays from the same point with the same
// register contents (the buffer is opaque data, not consumed).
func TestContinuationReplayable(t *testing.T) {
	m := ir.NewModule("replay")
	b := ir.NewBuilder(m)
	g := m.NewGlobal("counter", ir.I64, ir.I64c(0))
	buf := m.NewGlobal("statebuf", ir.ArrayOf(256, ir.I8), nil)
	b.NewFunc("kmain", ir.FuncOf(ir.I64, nil, false))
	base := b.Load(g) // captured in the continuation's registers
	save := m.NewFunc("llva.save.integer", ir.FuncOf(ir.Void, []*ir.Type{ir.PointerTo(ir.I8)}, false))
	save.Intrinsic = true
	b.Call(save, b.Bitcast(buf, ir.PointerTo(ir.I8)))
	// Post-save: bump the counter and return base*100 + counter.
	b.Store(b.Add(b.Load(g), ir.I64c(1)), g)
	b.Ret(b.Add(b.Mul(base, ir.I64c(100)), b.Load(g)))

	v := New(hw.NewMachine(0, 16), ConfigSVAGCC)
	v.RegisterIntrinsic("llva.save.integer", func(v *VM, a []uint64) (IntrinsicResult, error) {
		v.SaveIntegerState(a[0])
		return IntrinsicResult{}, nil
	})
	if err := v.LoadModule(m, false); err != nil {
		t.Fatal(err)
	}
	top, _ := v.AllocKernelStack(16 * 1024)
	ex, _ := v.NewExec(v.FuncByName("kmain"), nil, top, hw.PrivKernel)
	v.SetExec(ex)
	got, err := v.Run()
	if err != nil || got != 1 { // base=0, counter becomes 1
		t.Fatalf("first run = %d, %v", got, err)
	}
	bufAddr, _ := v.GlobalAddrByName("statebuf")
	for i := uint64(2); i <= 4; i++ {
		if err := v.LoadIntegerState(bufAddr); err != nil {
			t.Fatal(err)
		}
		got, err = v.Run()
		if err != nil {
			t.Fatal(err)
		}
		// base register is still 0 from capture time; counter keeps
		// incrementing in memory.
		if got != i {
			t.Errorf("replay %d = %d, want %d", i, got, i)
		}
	}
}

// TestFPStateSurvivesSwitch: FP registers are per-continuation state when
// the guest uses the lazy save/load protocol.
func TestFPAcrossSaveLoad(t *testing.T) {
	v := New(hw.NewMachine(0, 16), ConfigSVAGCC)
	v.Mach.CPU.FP.Regs[0] = 0x1111
	v.Mach.CPU.FP.Dirty = true
	v.SaveFPState(0x100, false)
	v.Mach.CPU.FP.Regs[0] = 0x2222
	v.Mach.CPU.FP.Dirty = true
	v.SaveFPState(0x200, false)
	v.LoadFPState(0x100)
	if v.Mach.CPU.FP.Regs[0] != 0x1111 {
		t.Errorf("FP restore = %#x", v.Mach.CPU.FP.Regs[0])
	}
	v.LoadFPState(0x200)
	if v.Mach.CPU.FP.Regs[0] != 0x2222 {
		t.Errorf("FP restore = %#x", v.Mach.CPU.FP.Regs[0])
	}
	// Lazy: a clean save must not overwrite the stored state.
	v.Mach.CPU.FP.Dirty = false
	v.Mach.CPU.FP.Regs[0] = 0x3333
	v.SaveFPState(0x200, false)
	v.LoadFPState(0x200)
	if v.Mach.CPU.FP.Regs[0] != 0x2222 {
		t.Errorf("lazy save overwrote state: %#x", v.Mach.CPU.FP.Regs[0])
	}
}
