package svaops

import (
	"testing"

	"sva/internal/ir"
)

func TestGetDeclaresOnce(t *testing.T) {
	m := ir.NewModule("m")
	f1 := Get(m, Trap)
	f2 := Get(m, Trap)
	if f1 != f2 {
		t.Error("Get re-declared an operation")
	}
	if !f1.Intrinsic || !f1.IsDecl() {
		t.Error("operation not declared as a body-less intrinsic")
	}
	if f1.Sig != Signatures[Trap] {
		t.Error("signature mismatch")
	}
}

func TestGetPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown operation did not panic")
		}
	}()
	Get(ir.NewModule("m"), "llva.not.a.thing")
}

func TestEveryOperationHasSignature(t *testing.T) {
	names := []string{
		SaveInteger, LoadInteger, SaveFP, LoadFP,
		IContextSave, IContextLoad, IContextCommit, IPushFunction,
		WasPrivileged, IContextSetRetval, StateSetKStack, StateSetUStack,
		Trap, InitState, ExecState, SetKStack, InitUserState, CPUID,
		RegisterSyscall, RegisterInterrupt,
		MMUMap, MMUUnmap, MMUProtect,
		IOPutc, IOGetc, DiskRead, DiskWrite, NetSend, NetRecv,
		NetRingAttach, NetPost, NetDoorbell, NetReap,
		ChanAttach, ChanPost, ChanDoorbell, ChanReap,
		IntrEnable, TimerArm, Cycles, Halt, PseudoAlloc, PseudoAllocBatch,
		Memcpy, Memmove, Memset, Memcmp,
		ObjRegister, ObjRegisterStack, ObjRegisterBatch, ObjDrop, BoundsCheck, LSCheck,
		ICCheck, GetBoundsLo, GetBoundsHi, ElideBounds, ElideLS, BoundsTest,
	}
	for _, n := range names {
		if Signatures[n] == nil {
			t.Errorf("operation %s has no signature", n)
		}
	}
	if len(names) != len(Signatures) {
		t.Errorf("signature table has %d entries, test lists %d", len(Signatures), len(names))
	}
}

func TestIsCheckOp(t *testing.T) {
	for _, n := range []string{ObjRegister, ObjRegisterStack, ObjDrop, BoundsCheck, LSCheck, ICCheck, ElideBounds, ElideLS, BoundsTest} {
		if !IsCheckOp(n) {
			t.Errorf("%s not classified as a check op", n)
		}
	}
	if IsCheckOp(Trap) || IsCheckOp(Memcpy) {
		t.Error("non-check op classified as check")
	}
}

func TestOpTableConsistent(t *testing.T) {
	seen := map[string]bool{}
	for _, op := range Ops {
		if op.Name == "" || op.Sig == nil {
			t.Fatalf("malformed table entry %+v", op)
		}
		if seen[op.Name] {
			t.Errorf("duplicate op %s", op.Name)
		}
		seen[op.Name] = true
		if Lookup(op.Name) != op {
			t.Errorf("Lookup(%s) does not return the table entry", op.Name)
		}
		if Cost(op.Name) != op.Cost {
			t.Errorf("Cost(%s) = %d, want %d", op.Name, Cost(op.Name), op.Cost)
		}
		if Signatures[op.Name] != op.Sig {
			t.Errorf("derived Signatures[%s] diverged from the table", op.Name)
		}
		if IsCheckOp(op.Name) != (op.Class == ClassCheck) {
			t.Errorf("IsCheckOp(%s) disagrees with class %s", op.Name, op.Class)
		}
	}
	if len(Ops) != len(Signatures) {
		t.Errorf("table has %d ops, Signatures %d", len(Ops), len(Signatures))
	}
	if Lookup("llva.not.a.thing") != nil {
		t.Error("Lookup of unknown op must be nil")
	}
	if Cost("llva.not.a.thing") != 0 {
		t.Error("Cost of unknown op must be 0")
	}
}

func TestClassString(t *testing.T) {
	want := map[Class]string{
		ClassState: "state", ClassIContext: "icontext", ClassSys: "sys",
		ClassMMU: "mmu", ClassIO: "io", ClassMem: "mem", ClassCheck: "check",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Class(%d).String() = %q, want %q", int(c), c.String(), s)
		}
	}
}

func TestCheckOpCosts(t *testing.T) {
	// The deterministic accounting model (DESIGN.md): per-op charges the
	// VM applies on every dynamic execution.
	want := map[string]uint64{
		Trap: 150, BoundsCheck: 25, LSCheck: 20, ObjRegister: 15,
		ObjRegisterStack: 15, ObjDrop: 15, ICCheck: 10, ElideBounds: 1,
		ElideLS: 1, GetBoundsLo: 0, GetBoundsHi: 0, BoundsTest: 25,
	}
	for n, c := range want {
		if Cost(n) != c {
			t.Errorf("Cost(%s) = %d, want %d", n, Cost(n), c)
		}
	}
}
