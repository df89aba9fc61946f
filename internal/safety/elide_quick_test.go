package safety

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sva/internal/hw"
	"sva/internal/ir"
	"sva/internal/metapool"
	"sva/internal/svaops"
	"sva/internal/svaos"
	"sva/internal/typecheck"
	"sva/internal/vm"
)

// buildQuickModule emits a parameterized program exercising both elision
// rules and both kill conditions:
//
//	prog(x):
//	  a = alloca [8 x i64]
//	  for i in 0..limit: a[i] = i        // counted loop: R2 territory;
//	                                     // traps when limit > 8
//	  p = kmalloc(32); p64 = (i64*)p
//	  p64[off] = 7                       // off in [0,3]: in bounds
//	  if uaf: kfree(p)                   // pool mutation kills the fact
//	  p64[off] = 9                       // R1 candidate; traps iff uaf
//	  return a[x]                        // traps iff x >= 8
func buildQuickModule(limit, off int64, uaf bool) *ir.Module {
	m := ir.NewModule("quick")
	addTestAllocator(m)
	b := ir.NewBuilder(m)
	b.NewFunc("prog", ir.FuncOf(ir.I64, []*ir.Type{ir.I64}, false), "x")
	a := b.Alloca(ir.ArrayOf(8, ir.I64), "a")
	b.For("i", ir.I64c(0), ir.I64c(limit), ir.I64c(1), func(i ir.Value) {
		b.Store(i, b.GEP(a, ir.I64c(0), i))
	})
	p := b.Call(m.Func("kmalloc"), ir.I64c(32))
	p64 := b.Bitcast(p, ir.PointerTo(ir.I64))
	b.Store(ir.I64c(7), b.PtrAdd(p64, ir.I64c(off)))
	if uaf {
		b.Call(m.Func("kfree"), p)
	}
	b.Store(ir.I64c(9), b.PtrAdd(p64, ir.I64c(off)))
	b.Ret(b.Load(b.GEP(a, ir.I64c(0), b.Param(0))))
	return m
}

// runQuick compiles m with elision toggled and runs prog(x), returning
// the result, whether a safety violation fired, and the run error.
func runQuick(t *testing.T, m *ir.Module, disable bool, x uint64) (uint64, bool, error) {
	t.Helper()
	cfg := testCfg()
	cfg.DisableElide = disable
	if _, err := Compile(cfg, m); err != nil {
		t.Fatalf("Compile(disable=%v): %v", disable, err)
	}
	if errs := ir.VerifyModule(m); len(errs) != 0 {
		t.Fatalf("module does not verify: %v", errs[0])
	}
	v := vm.New(hw.NewMachine(0, 16), vm.ConfigSafe)
	svaos.Install(v)
	if err := v.LoadModule(m, false); err != nil {
		t.Fatal(err)
	}
	top, _ := v.AllocKernelStack(64 * 1024)
	ex, err := v.NewExec(v.FuncByName("prog"), []uint64{x}, top, hw.PrivKernel)
	if err != nil {
		t.Fatal(err)
	}
	v.SetExec(ex)
	v.StepBudget = 10_000_000
	got, rerr := v.Run()
	return got, len(v.Violations) > 0, rerr
}

// TestElideEquivalenceQuick is the elision soundness property, checked
// over randomized programs: the elided program traps exactly when the
// fully-checked program traps, and produces the same value when neither
// does.  Loop limits straddle the array bound, the heap access is
// optionally turned into a use-after-free, and the returned index is
// sometimes wild — so the generator covers elided-and-safe,
// not-elidable, and must-still-trap territory.
func TestElideEquivalenceQuick(t *testing.T) {
	prop := func(l, o uint8, uaf bool, xi uint16) bool {
		limit := int64(l%12) + 1 // 1..12: beyond 8 the loop itself traps
		off := int64(o % 4)      // always within the 32-byte allocation
		x := uint64(xi % 12)     // beyond 7 the final load traps
		gotE, vioE, errE := runQuick(t, buildQuickModule(limit, off, uaf), false, x)
		gotF, vioF, errF := runQuick(t, buildQuickModule(limit, off, uaf), true, x)
		if vioE != vioF || (errE == nil) != (errF == nil) {
			t.Logf("limit=%d off=%d uaf=%v x=%d: elided (vio=%v err=%v) vs full (vio=%v err=%v)",
				limit, off, uaf, x, vioE, errE, vioF, errF)
			return false
		}
		if errE == nil && gotE != gotF {
			t.Logf("limit=%d off=%d uaf=%v x=%d: value %d vs %d", limit, off, uaf, x, gotE, gotF)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 32,
		Rand:     rand.New(rand.NewSource(20070823)), // deterministic battery
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// versionObj is the byte size of the object the R4 property loop walks;
// kmalloc rounds to 16, so the 16-byte neighbours on both sides sit
// flush against it.
const versionObj = 48

// buildVersionModule emits a runtime-bounded byte loop, R4's shape:
//
//	prog(n):
//	  kmalloc(16); buf = kmalloc(48); kmalloc(16)   // flush neighbours
//	  buf64[k] = pattern(k), k in 0..5              // known contents
//	  base = buf + off                               // off in [0, 48]
//	  sum = 0
//	  for (j = c; j <u n; j++) sum = sum*31 + base[j]
//	  return sum
//
// n arrives at run time, so R1–R3 cannot bound base[j]; only R4 can
// elide its check.
func buildVersionModule(c, off int64) *ir.Module {
	m := ir.NewModule("quickr4")
	addTestAllocator(m)
	b := ir.NewBuilder(m)
	b.NewFunc("prog", ir.FuncOf(ir.I64, []*ir.Type{ir.I64}, false), "n")
	b.Call(m.Func("kmalloc"), ir.I64c(16))
	buf := b.Call(m.Func("kmalloc"), ir.I64c(versionObj))
	b.Call(m.Func("kmalloc"), ir.I64c(16))
	buf64 := b.Bitcast(buf, ir.PointerTo(ir.I64))
	for k := int64(0); k < versionObj/8; k++ {
		b.Store(ir.I64c(0x0102030405060708*(k+1)), b.PtrAdd(buf64, ir.I64c(k)))
	}
	base := b.PtrAdd(buf, ir.I64c(off))
	sum := b.Alloca(ir.I64, "sum")
	b.Store(ir.I64c(0), sum)
	j := b.Alloca(ir.I64, "j")
	b.Store(ir.I64c(c), j)
	b.While(func() ir.Value {
		return b.ICmp(ir.PredULT, b.Load(j), b.Param(0))
	}, func() {
		ch := b.ZExt(b.Load(b.GEP(base, b.Load(j))), ir.I64)
		b.Store(b.Add(b.Mul(b.Load(sum), ir.I64c(31)), ch), sum)
		b.Store(b.Add(b.Load(j), ir.I64c(1)), j)
	})
	b.Ret(b.Load(sum))
	return m
}

// runVersion compiles m with R4 toggled, has the bytecode verifier
// re-derive every elision, and runs prog(n), returning the result, the
// violation records, the elided checks executed and the run error.
func runVersion(t *testing.T, m *ir.Module, disableR4 bool, n uint64) (uint64, []metapool.Violation, uint64, error) {
	t.Helper()
	cfg := testCfg()
	cfg.DisableLoopVersioning = disableR4
	prog, err := Compile(cfg, m)
	if err != nil {
		t.Fatalf("Compile(disableR4=%v): %v", disableR4, err)
	}
	if want := map[bool]int{false: 1, true: 0}[disableR4]; prog.Metrics.BoundsElidedR4 != want {
		t.Fatalf("disableR4=%v: %d loop-versioned checks, want %d", disableR4, prog.Metrics.BoundsElidedR4, want)
	}
	if errs := ir.VerifyModule(m); len(errs) != 0 {
		t.Fatalf("module does not verify: %v", errs[0])
	}
	if errs := typecheck.New(m.Metapools).Check(m); len(errs) != 0 {
		t.Fatalf("verifier rejects disableR4=%v: %v", disableR4, errs[0])
	}
	v := vm.New(hw.NewMachine(0, 16), vm.ConfigSafe)
	svaos.Install(v)
	if err := v.LoadModule(m, false); err != nil {
		t.Fatal(err)
	}
	top, _ := v.AllocKernelStack(64 * 1024)
	ex, err := v.NewExec(v.FuncByName("prog"), []uint64{n}, top, hw.PrivKernel)
	if err != nil {
		t.Fatal(err)
	}
	v.SetExec(ex)
	v.StepBudget = 10_000_000
	got, rerr := v.Run()
	var vs []metapool.Violation
	for _, x := range v.Violations {
		vs = append(vs, *x)
	}
	return got, vs, v.Counters.ElidedBounds, rerr
}

// TestLoopVersioningEquivalenceQuick is the R4 soundness property over
// randomized byte loops: with loop versioning on, a run traps exactly
// when it traps with versioning off — with the same violation records —
// and returns the same value otherwise.  The start c, the base offset
// into the object and the run-time bound n are random; n is drawn from
// the edge classes below c, at c, at c+1, at the object's last byte, one
// past it, 2^32-1, and anywhere in [0, 64).
func TestLoopVersioningEquivalenceQuick(t *testing.T) {
	fast := 0 // runs that took the versioned copy
	prop := func(cs, os, ns, nr uint8) bool {
		c := int64(cs % 8)
		off := int64(os) % (versionObj + 1)
		end := uint64(versionObj - off) // n reading exactly to the last byte
		var n uint64
		switch ns % 7 {
		case 0:
			n = uint64(c) - uint64(nr%2) - 1 // below c (wraps huge when c = 0)
			if c == 0 {
				n = 0
			}
		case 1:
			n = uint64(c)
		case 2:
			n = uint64(c) + 1
		case 3:
			n = end
		case 4:
			n = end + 1
		case 5:
			n = 1<<32 - 1
		default:
			n = uint64(nr % 64)
		}
		gotV, vioV, elided, errV := runVersion(t, buildVersionModule(c, off), false, n)
		gotF, vioF, _, errF := runVersion(t, buildVersionModule(c, off), true, n)
		if elided > 0 {
			fast++
		}
		if (errV == nil) != (errF == nil) || !reflect.DeepEqual(vioV, vioF) {
			t.Logf("c=%d off=%d n=%d: versioned (vio=%v err=%v) vs checked (vio=%v err=%v)",
				c, off, n, vioV, errV, vioF, errF)
			return false
		}
		if errV == nil && gotV != gotF {
			t.Logf("c=%d off=%d n=%d: value %d vs %d", c, off, n, gotV, gotF)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 48,
		Rand:     rand.New(rand.NewSource(19930601)), // deterministic battery
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
	if fast == 0 {
		t.Error("no run took the versioned copy: the property tested only the fallback")
	}
	t.Logf("%d of %d runs took the versioned copy", fast, cfg.MaxCount)
}

// buildExactModule emits global-indexed accesses, rule R5's shape:
//
//	init():        (entry: the global registrations land here)
//	prog(i, n):
//	  tab[i] = 7                       // tab is [size x i64]
//	  memset(&tab, 0, n)               // span check from tab
//	  return rec.arr[i]                // rec is {i64, [size x i32]}
//
// The globals lo and hi sit around tab, so wild indices land in
// registered neighbours as well as in unregistered memory.
func buildExactModule(size int64) *ir.Module {
	m := ir.NewModule("quickr5")
	addTestAllocator(m)
	lo := m.NewGlobal("lo", ir.ArrayOf(4, ir.I64), nil)
	tab := m.NewGlobal("tab", ir.ArrayOf(int(size), ir.I64), nil)
	hi := m.NewGlobal("hi", ir.ArrayOf(4, ir.I64), nil)
	rec := m.NewGlobal("rec", ir.StructOf(ir.I64, ir.ArrayOf(int(size), ir.I32)), nil)
	b := ir.NewBuilder(m)
	b.NewFunc("init", ir.FuncOf(ir.Void, nil, false))
	b.Store(ir.I64c(1), b.Index(lo, ir.I64c(0)))
	b.Store(ir.I64c(2), b.Index(hi, ir.I64c(0)))
	b.Ret(nil)
	b.NewFunc("prog", ir.FuncOf(ir.I64, []*ir.Type{ir.I64, ir.I64}, false), "i", "n")
	b.Store(ir.I64c(7), b.Index(tab, b.Param(0)))
	b.Call(svaops.Get(m, svaops.Memset), b.Bitcast(tab, svaops.BytePtr), ir.I64c(0), b.Param(1))
	b.Ret(b.ZExt(b.Load(b.GEP(rec, ir.I32c(0), ir.I32c(1), b.Param(0))), ir.I64))
	return m
}

// runExactQuick compiles m with R5 toggled, has the verifier re-derive
// the program, runs init() and then prog(i, n), and returns the result,
// the violation records, the bounds checks executed and the run error.
func runExactQuick(t *testing.T, m *ir.Module, disableR5 bool, i, n uint64) (uint64, []metapool.Violation, uint64, error) {
	t.Helper()
	cfg := testCfg()
	cfg.EntryFunc = "init"
	cfg.DisableExactChecks = disableR5
	prog, err := Compile(cfg, m)
	if err != nil {
		t.Fatalf("Compile(disableR5=%v): %v", disableR5, err)
	}
	if want := map[bool]int{false: 3, true: 0}[disableR5]; prog.Metrics.BoundsExactR5 != want {
		t.Fatalf("disableR5=%v: %d exact checks, want %d", disableR5, prog.Metrics.BoundsExactR5, want)
	}
	if errs := ir.VerifyModule(m); len(errs) != 0 {
		t.Fatalf("module does not verify: %v", errs[0])
	}
	if errs := typecheck.New(m.Metapools).Check(m); len(errs) != 0 {
		t.Fatalf("verifier rejects disableR5=%v: %v", disableR5, errs[0])
	}
	v := vm.New(hw.NewMachine(0, 16), vm.ConfigSafe)
	svaos.Install(v)
	if err := v.LoadModule(m, false); err != nil {
		t.Fatal(err)
	}
	run := func(fn string, args ...uint64) (uint64, error) {
		top, _ := v.AllocKernelStack(64 * 1024)
		ex, err := v.NewExec(v.FuncByName(fn), args, top, hw.PrivKernel)
		if err != nil {
			t.Fatal(err)
		}
		v.SetExec(ex)
		v.StepBudget = 10_000_000
		return v.Run()
	}
	if _, err := run("init"); err != nil {
		t.Fatalf("init: %v", err)
	}
	got, rerr := run("prog", i, n)
	var vs []metapool.Violation
	for _, x := range v.Violations {
		vs = append(vs, *x)
	}
	return got, vs, v.Counters.ChecksBounds, rerr
}

// TestExactCheckEquivalenceQuick is the R5 soundness property over
// randomized global-indexed programs: with exact checks, a run traps
// exactly when it traps under the lookup checks, with identical
// violation records (kind, pool, address, message), executes the same
// number of bounds checks, and returns the same value otherwise.
// Indices and lengths are drawn from the edge classes around the
// object: in bounds, the last element, one past it, the neighbours,
// negative, and far away.
func TestExactCheckEquivalenceQuick(t *testing.T) {
	pick := func(size int64, sel, r uint8) uint64 {
		switch sel % 6 {
		case 0:
			return uint64(int64(r) % size)
		case 1:
			return uint64(size - 1)
		case 2:
			return uint64(size)
		case 3:
			return uint64(size + int64(r%6))
		case 4:
			return uint64(-1 - int64(r%6))
		}
		return 1 << 40
	}
	prop := func(ss, is, ir8, ns, nr uint8) bool {
		size := int64(ss%16) + 1
		i := pick(size, is, ir8)
		n := pick(size*8+1, ns, nr) // bytes: [0, size*8] is in bounds
		gotE, vioE, chkE, errE := runExactQuick(t, buildExactModule(size), false, i, n)
		gotL, vioL, chkL, errL := runExactQuick(t, buildExactModule(size), true, i, n)
		if (errE == nil) != (errL == nil) || !reflect.DeepEqual(vioE, vioL) || chkE != chkL {
			t.Logf("size=%d i=%d n=%d: exact (vio=%v err=%v checks=%d) vs lookup (vio=%v err=%v checks=%d)",
				size, int64(i), int64(n), vioE, errE, chkE, vioL, errL, chkL)
			return false
		}
		if errE == nil && gotE != gotL {
			t.Logf("size=%d i=%d n=%d: value %d vs %d", size, int64(i), int64(n), gotE, gotL)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 64,
		Rand:     rand.New(rand.NewSource(20060520)), // deterministic battery
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
