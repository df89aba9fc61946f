package vm

import (
	"testing"

	"sva/internal/hw"
	"sva/internal/ir"
)

// entryModule holds a user-mode summing loop, a trivial function with
// the same signature, and user_main(fn, n): a trap whose handler replaces
// the image with fn(n) through ExecState.
func entryModule() *ir.Module {
	m := ir.NewModule("entry")
	b := ir.NewBuilder(m)
	bp := ir.PointerTo(ir.I8)
	sig := ir.FuncOf(ir.I64, []*ir.Type{ir.I64}, false)

	b.NewFunc("loop", sig, "n")
	acc := b.Alloca(ir.I64, "acc")
	b.Store(ir.I64c(0), acc)
	b.For("i", ir.I64c(0), b.Param(0), ir.I64c(1), func(i ir.Value) {
		b.Store(b.Add(b.Load(acc), i), acc)
	})
	b.Ret(b.Load(acc))

	b.NewFunc("nop", sig, "n")
	b.Ret(b.Param(0))

	trap := m.NewFunc("test.trap", ir.FuncOf(ir.I64, []*ir.Type{bp, ir.I64}, false))
	trap.Intrinsic = true
	exec := m.NewFunc("test.exec", ir.FuncOf(ir.Void, []*ir.Type{ir.I64, bp, ir.I64}, false))
	exec.Intrinsic = true

	b.NewFunc("sys_exec", ir.FuncOf(ir.I64, []*ir.Type{ir.I64, bp, ir.I64}, false), "icp", "fn", "n")
	b.Call(exec, b.Param(0), b.Param(1), b.Param(2))
	b.Ret(ir.I64c(0))

	b.NewFunc("user_main", ir.FuncOf(ir.I64, []*ir.Type{bp, ir.I64}, false), "fn", "n")
	b.Call(trap, b.Param(0), b.Param(1))
	b.Ret(ir.I64c(555)) // never runs: ExecState replaces the image
	return m
}

const (
	entryUStack = UserTop - 0x1000
	entryLoopN  = 1000
	entryStates = 0x2000 // saved-state key; never dereferenced
)

// entryCycles boots a fresh sva-safe VM and returns the virtual cycles of
// running fn(entryLoopN) entered the given way ("newexec", "inituser" or
// "exec"), checking the result.
func entryCycles(t *testing.T, how, fn string) uint64 {
	t.Helper()
	v := newTestVM(t, ConfigSafe, entryModule())
	v.RegisterIntrinsic("test.trap", func(v *VM, a []uint64) (IntrinsicResult, error) {
		return v.TrapEnter(0, a)
	})
	v.RegisterIntrinsic("test.exec", func(v *VM, a []uint64) (IntrinsicResult, error) {
		return IntrinsicResult{}, v.ExecState(a[0], a[1], a[2], entryUStack)
	})
	if err := v.RegisterSyscallHandler(0, v.FuncAddr(v.FuncByName("sys_exec"))); err != nil {
		t.Fatal(err)
	}
	kstack, err := v.AllocKernelStack(64 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	f := v.FuncByName(fn)
	switch how {
	case "newexec":
		ex, err := v.NewExec(f, []uint64{entryLoopN}, entryUStack, hw.PrivUser)
		if err != nil {
			t.Fatal(err)
		}
		ex.SetKStackTop(kstack)
		v.SetExec(ex)
	case "inituser":
		if err := v.InitUserState(entryStates, v.FuncAddr(f), entryLoopN, entryUStack, kstack); err != nil {
			t.Fatal(err)
		}
		if err := v.LoadIntegerState(entryStates); err != nil {
			t.Fatal(err)
		}
	case "exec":
		ex, err := v.NewExec(v.FuncByName("user_main"), []uint64{v.FuncAddr(f), entryLoopN}, entryUStack, hw.PrivUser)
		if err != nil {
			t.Fatal(err)
		}
		ex.SetKStackTop(kstack)
		v.SetExec(ex)
	}
	c0 := v.CPU.Cycles
	got, err := v.Run()
	if err != nil {
		t.Fatalf("%s @%s: %v", how, fn, err)
	}
	want := uint64(entryLoopN)
	if fn == "loop" {
		want = entryLoopN * (entryLoopN - 1) / 2
	}
	if got != want {
		t.Fatalf("%s @%s = %d, want %d", how, fn, got, want)
	}
	return v.CPU.Cycles - c0
}

// TestEntryFramesPayNoGCCDelta pins that an entry frame built by
// InitUserState or ExecState costs what the same code costs entered
// through NewExec: under sva-safe no entry path pays the gcc/llvm delta.
// ExecState enters after a trap, so its loop cost is taken relative to
// the same trap exec'ing a trivial function.
func TestEntryFramesPayNoGCCDelta(t *testing.T) {
	want := entryCycles(t, "newexec", "loop")
	if got := entryCycles(t, "inituser", "loop"); got != want {
		t.Errorf("InitUserState entry: %d cycles, NewExec entry: %d", got, want)
	}
	wantDelta := want - entryCycles(t, "newexec", "nop")
	if got := entryCycles(t, "exec", "loop") - entryCycles(t, "exec", "nop"); got != wantDelta {
		t.Errorf("ExecState entry: loop costs %d cycles over nop, NewExec entry: %d", got, wantDelta)
	}
}
