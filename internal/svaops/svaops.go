// Package svaops defines the names, signatures, classes and virtual-cycle
// costs of every SVA-OS and run-time-check operation in the virtual
// instruction set: the llva.* state-manipulation instructions of Tables 1
// and 2, the pchk.* check operations of Table 3 and §4.5, and the sva.*
// privileged-operation wrappers ("I/O functions, MMU configuration
// functions, and the registration of interrupt and system call handlers",
// §3.3).
//
// Guest modules declare these as body-less intrinsic functions; the SVM
// implements them (internal/vm for checks, internal/svaos for OS support).
// The Ops table below is the single source of truth: the VM dispatches and
// charges from it, internal/telemetry attributes cycles and classifies
// trace events from it, and sva-bench renders the Tables 1–3 inventory
// from it — one table instead of three parallel string switches.
package svaops

import "sva/internal/ir"

// Operation names.
const (
	// Processor state (Table 1).
	SaveInteger = "llva.save.integer"
	LoadInteger = "llva.load.integer"
	SaveFP      = "llva.save.fp"
	LoadFP      = "llva.load.fp"

	// Interrupt contexts (Table 2).
	IContextSave   = "llva.icontext.save"
	IContextLoad   = "llva.icontext.load"
	IContextCommit = "llva.icontext.commit"
	IPushFunction  = "llva.ipush.function"
	WasPrivileged  = "llva.was.privileged"
	// IContextSetRetval sets the trap return value inside a saved integer
	// state (the port of Linux's regs->eax assignment in copy_thread).
	IContextSetRetval = "llva.icontext.set.retval"
	// StateSetKStack sets the kernel-stack top inside a saved integer
	// state (the copy_thread ESP0 assignment for forked children).
	StateSetKStack = "llva.state.set.kstack"
	// StateSetUStack redirects a saved user context's stack pointer to a
	// fresh region, so a forked child's new stack frames do not collide
	// with the parent's in the shared flat address space.
	StateSetUStack = "llva.state.set.stack"

	// Trap entry (the virtual "int" instruction user code executes).
	Trap = "sva.trap"

	// Kernel thread fabrication and exec.
	InitState = "sva.init.state"
	// InitUserState fabricates a saved user-mode state directly (entry
	// function, argument, user stack, kernel stack) — the SMP dispatch
	// primitive: any virtual CPU's scheduler can materialize a runnable
	// user process without forking from an existing context.
	InitUserState = "sva.init.user.state"
	ExecState     = "sva.exec.state"
	SetKStack     = "sva.kstack.set"

	// CPUID returns the executing virtual CPU's index (0 on the boot CPU).
	CPUID = "sva.cpu.id"

	// Handler registration (§4.8 relies on RegisterSyscall for analysis).
	RegisterSyscall   = "sva.register.syscall"
	RegisterInterrupt = "sva.register.interrupt"

	// MMU configuration.
	MMUMap     = "sva.mmu.map"
	MMUUnmap   = "sva.mmu.unmap"
	MMUProtect = "sva.mmu.protect"

	// I/O.
	IOPutc    = "sva.io.putc"
	IOGetc    = "sva.io.getc"
	DiskRead  = "sva.io.disk.read"
	DiskWrite = "sva.io.disk.write"
	NetSend   = "sva.io.net.send"
	NetRecv   = "sva.io.net.recv"
	// Descriptor-ring net I/O (the batched replacement for send/recv;
	// the old pair survives as compat shims over a 1-slot ring).
	NetRingAttach = "sva.io.net.attach"
	NetPost       = "sva.io.net.post"
	NetDoorbell   = "sva.io.net.doorbell"
	NetReap       = "sva.io.net.reap"
	// Inter-domain channel (same descriptor-ring shape on the domain's
	// ChanPort; doorbells at a dead peer fail closed with -EHOSTDOWN).
	ChanAttach   = "sva.io.chan.attach"
	ChanPost     = "sva.io.chan.post"
	ChanDoorbell = "sva.io.chan.doorbell"
	ChanReap     = "sva.io.chan.reap"

	// Interrupt control and time.
	IntrEnable = "sva.intr.enable"
	TimerArm   = "sva.timer.arm"
	Cycles     = "sva.cycles"

	// System control.
	Halt = "sva.halt"

	// Manufactured addresses (§4.7): replaced by ObjRegister during safety
	// compilation; a no-op otherwise.
	PseudoAlloc = "sva.pseudo.alloc"
	// PseudoAllocBatch declares n manufactured objects of esize bytes each,
	// laid out contiguously from a base address (the slab/table shape);
	// replaced by ObjRegisterBatch during safety compilation.
	PseudoAllocBatch = "sva.pseudo.alloc.batch"

	// Optimized memory primitives (the kernel "lib" routines lower to
	// these; they model hand-tuned assembly memcpy/memset).
	Memcpy  = "sva.memcpy"
	Memmove = "sva.memmove"
	Memset  = "sva.memset"
	Memcmp  = "sva.memcmp"

	// Run-time checks (Table 3 and §4.5), inserted by the safety-checking
	// compiler / verifier.
	ObjRegister = "pchk.reg.obj"
	// ObjRegisterStack registers a stack object; the SVM drops it
	// automatically when the owning frame pops (SAFECode's "stack objects
	// are deregistered when returning from the parent function").
	ObjRegisterStack = "pchk.reg.stack"
	// ObjRegisterBatch registers n contiguous objects of uniform size in
	// one call — semantically n ObjRegister calls, but the SVM takes the
	// pool's shard lock once for the whole batch (allocator slab refills).
	ObjRegisterBatch = "sva.pool.regbatch"
	ObjDrop          = "pchk.drop.obj"
	BoundsCheck      = "pchk.bounds"
	LSCheck          = "pchk.lscheck"
	ICCheck          = "pchk.iccheck"
	GetBoundsLo      = "pchk.getbounds.lo"
	GetBoundsHi      = "pchk.getbounds.hi"
	// ElideBounds / ElideLS mark a check the optimizer proved redundant
	// (§7.1.3, "eliminating redundant run-time checks"). They keep the
	// original check's signature so the bytecode verifier can re-derive
	// the proof from the same operands; the SVM executes them as
	// near-free counters.
	ElideBounds = "pchk.elide.bounds"
	ElideLS     = "pchk.elide.ls"
	// BoundsTest is the non-trapping range query behind loop-versioned
	// bounds checks (elision rule R4): bounds.test(pool, src, lo, hi)
	// returns 1 exactly when src lies in a registered object of pool that
	// also covers src+lo and src+hi (one past the end allowed, as for
	// pchk.bounds), with src <= src+lo <= src+hi computed without
	// wrap-around.  It never raises a violation: a failed query only
	// selects the checked copy of the loop.
	BoundsTest = "pchk.bounds.test"
	// ExactCheck is the lookup-free bounds check behind elision rule R5:
	// exact(pool, base, derived, size) passes exactly when
	// base <= derived <= base+size (one past the end allowed, as for
	// pchk.bounds).  The compiler emits it only where base is a registered
	// global of static size, so [base, base+size) is that global's
	// registered object and no metapool lookup is needed to find it; on
	// failure it raises the violation pchk.bounds would have raised.
	ExactCheck = "pchk.exact"
)

// Class partitions the operations the way the paper's tables do.
type Class int

const (
	// ClassState: native processor state save/restore and saved-state
	// surgery (Table 1).
	ClassState Class = iota
	// ClassIContext: interrupt-context manipulation (Table 2).
	ClassIContext
	// ClassSys: privileged system operations — trap entry, state
	// fabrication, handler registration, interrupt control, system
	// control (§3.3).
	ClassSys
	// ClassMMU: MMU configuration.
	ClassMMU
	// ClassIO: I/O operations (console, disk, network).
	ClassIO
	// ClassMem: optimized memory primitives.
	ClassMem
	// ClassCheck: run-time safety checks (Table 3, §4.5).
	ClassCheck
)

var classNames = [...]string{"state", "icontext", "sys", "mmu", "io", "mem", "check"}

func (c Class) String() string {
	if int(c) >= 0 && int(c) < len(classNames) {
		return classNames[c]
	}
	return "class(?)"
}

// Op describes one operation of the virtual instruction set.
type Op struct {
	Name  string
	Class Class
	// Cost is the virtual-cycle charge the SVM adds on top of the call
	// instruction's own cycle when executing the operation.  The check
	// costs model the splay-tree work behind each check (§4.5) and the
	// trap cost models hardware trap entry + return; the constants were
	// set from the relative costs of the corresponding host operations —
	// the evaluation reports *ratios* of cycle counts, so only their
	// proportions matter.  A zero cost means the operation's work is
	// already charged elsewhere (per-instruction cycles, device costs).
	Cost uint64
	// Sig is the operation's function type.
	Sig *ir.Type
}

// BytePtr is the generic pointer type used in operation signatures.
var BytePtr = ir.PointerTo(ir.I8)

// sig builds a function type.
func sig(ret *ir.Type, params ...*ir.Type) *ir.Type {
	return ir.FuncOf(ret, params, false)
}

// Virtual-cycle charges (see Op.Cost).
const (
	costTrap   = 150 // hardware trap entry + return
	costBounds = 25  // splay lookup + range compare
	costLS     = 20  // splay lookup
	costReg    = 15  // splay insert
	costDrop   = 15  // splay delete
	costIC     = 10  // set membership
	// costExact is the range compare alone: an exact check knows its
	// object statically, so it pays costBounds without the lookup that
	// costLS prices.
	costExact = costBounds - costLS
	// costElide is the residual cost of a check the compiler proved
	// redundant (§7.1.3): the annotation itself is free in native code;
	// one cycle models accounting noise so elision never looks better
	// than not inserting the check at all.
	costElide = 1
)

// Ops is the single table of every operation in the virtual instruction
// set.  All other views (Signatures, Lookup, Cost, IsCheckOp) derive
// from it.
var Ops = []*Op{
	{SaveInteger, ClassState, 0, sig(ir.Void, BytePtr)},
	{LoadInteger, ClassState, 0, sig(ir.Void, BytePtr)},
	{SaveFP, ClassState, 0, sig(ir.Void, BytePtr, ir.I64)},
	{LoadFP, ClassState, 0, sig(ir.Void, BytePtr)},
	{StateSetKStack, ClassState, 0, sig(ir.Void, BytePtr, ir.I64)},
	{StateSetUStack, ClassState, 0, sig(ir.Void, BytePtr, ir.I64)},

	{IContextSave, ClassIContext, 0, sig(ir.Void, ir.I64, BytePtr)},
	{IContextLoad, ClassIContext, 0, sig(ir.Void, ir.I64, BytePtr)},
	{IContextCommit, ClassIContext, 0, sig(ir.Void, ir.I64)},
	{IPushFunction, ClassIContext, 0, sig(ir.Void, ir.I64, BytePtr, ir.I64, ir.I64)},
	{WasPrivileged, ClassIContext, 0, sig(ir.I64, ir.I64)},
	{IContextSetRetval, ClassIContext, 0, sig(ir.Void, BytePtr, ir.I64)},

	{Trap, ClassSys, costTrap, sig(ir.I64, ir.I64, ir.I64, ir.I64, ir.I64, ir.I64, ir.I64, ir.I64)},
	{InitState, ClassSys, 0, sig(ir.Void, BytePtr, BytePtr, ir.I64, ir.I64)},
	{InitUserState, ClassSys, 0, sig(ir.Void, BytePtr, BytePtr, ir.I64, ir.I64, ir.I64)},
	{CPUID, ClassSys, 0, sig(ir.I64)},
	{ExecState, ClassSys, 0, sig(ir.Void, ir.I64, BytePtr, ir.I64, ir.I64)},
	{SetKStack, ClassSys, 0, sig(ir.Void, ir.I64)},
	{RegisterSyscall, ClassSys, 0, sig(ir.Void, ir.I64, BytePtr)},
	{RegisterInterrupt, ClassSys, 0, sig(ir.Void, ir.I64, BytePtr)},
	{IntrEnable, ClassSys, 0, sig(ir.I64, ir.I64)},
	{TimerArm, ClassSys, 0, sig(ir.Void, ir.I64)},
	{Cycles, ClassSys, 0, sig(ir.I64)},
	{Halt, ClassSys, 0, sig(ir.Void, ir.I64)},
	{PseudoAlloc, ClassSys, 0, sig(ir.Void, ir.I64, ir.I64)},
	{PseudoAllocBatch, ClassSys, 0, sig(ir.Void, ir.I64, ir.I64, ir.I64)},

	{MMUMap, ClassMMU, 0, sig(ir.I64, ir.I64, ir.I64, ir.I64)},
	{MMUUnmap, ClassMMU, 0, sig(ir.I64, ir.I64)},
	{MMUProtect, ClassMMU, 0, sig(ir.I64, ir.I64, ir.I64)},

	{IOPutc, ClassIO, 0, sig(ir.Void, ir.I64)},
	{IOGetc, ClassIO, 0, sig(ir.I64)},
	{DiskRead, ClassIO, 0, sig(ir.I64, ir.I64, BytePtr)},
	{DiskWrite, ClassIO, 0, sig(ir.I64, ir.I64, BytePtr)},
	{NetSend, ClassIO, 0, sig(ir.I64, BytePtr, ir.I64)},
	{NetRecv, ClassIO, 0, sig(ir.I64, BytePtr, ir.I64)},
	{NetRingAttach, ClassIO, 0, sig(ir.I64, ir.I64, BytePtr, ir.I64)},
	{NetPost, ClassIO, 0, sig(ir.I64, ir.I64, BytePtr, ir.I64)},
	{NetDoorbell, ClassIO, 0, sig(ir.I64, ir.I64)},
	{NetReap, ClassIO, 0, sig(ir.I64, ir.I64)},
	{ChanAttach, ClassIO, 0, sig(ir.I64, ir.I64, BytePtr, ir.I64)},
	{ChanPost, ClassIO, 0, sig(ir.I64, ir.I64, BytePtr, ir.I64)},
	{ChanDoorbell, ClassIO, 0, sig(ir.I64, ir.I64)},
	{ChanReap, ClassIO, 0, sig(ir.I64, ir.I64)},

	{Memcpy, ClassMem, 0, sig(BytePtr, BytePtr, BytePtr, ir.I64)},
	{Memmove, ClassMem, 0, sig(BytePtr, BytePtr, BytePtr, ir.I64)},
	{Memset, ClassMem, 0, sig(BytePtr, BytePtr, ir.I64, ir.I64)},
	{Memcmp, ClassMem, 0, sig(ir.I64, BytePtr, BytePtr, ir.I64)},

	{ObjRegister, ClassCheck, costReg, sig(ir.Void, ir.I32, BytePtr, ir.I64)},
	{ObjRegisterStack, ClassCheck, costReg, sig(ir.Void, ir.I32, BytePtr, ir.I64)},
	{ObjRegisterBatch, ClassCheck, costReg, sig(ir.Void, ir.I32, BytePtr, ir.I64, ir.I64)},
	{ObjDrop, ClassCheck, costDrop, sig(ir.Void, ir.I32, BytePtr)},
	{BoundsCheck, ClassCheck, costBounds, sig(ir.Void, ir.I32, BytePtr, BytePtr)},
	{LSCheck, ClassCheck, costLS, sig(ir.Void, ir.I32, BytePtr)},
	{ICCheck, ClassCheck, costIC, sig(ir.Void, ir.I32, BytePtr)},
	{ElideBounds, ClassCheck, costElide, sig(ir.Void, ir.I32, BytePtr, BytePtr)},
	{ElideLS, ClassCheck, costElide, sig(ir.Void, ir.I32, BytePtr)},
	{BoundsTest, ClassCheck, costBounds, sig(ir.I1, ir.I32, BytePtr, ir.I64, ir.I64)},
	{ExactCheck, ClassCheck, costExact, sig(ir.Void, ir.I32, BytePtr, BytePtr, ir.I64)},
	{GetBoundsLo, ClassCheck, 0, sig(ir.I64, ir.I32, BytePtr)},
	{GetBoundsHi, ClassCheck, 0, sig(ir.I64, ir.I32, BytePtr)},
}

// byName indexes Ops; Signatures is the derived name→type view that the
// module builders and the svaos handler self-check iterate.
var (
	byName     = map[string]*Op{}
	Signatures = map[string]*ir.Type{}
)

func init() {
	for _, op := range Ops {
		if byName[op.Name] != nil {
			panic("svaops: duplicate operation " + op.Name)
		}
		byName[op.Name] = op
		Signatures[op.Name] = op.Sig
	}
}

// Lookup returns the operation named name (nil if unknown).
func Lookup(name string) *Op { return byName[name] }

// Cost returns the virtual-cycle charge for name (0 for unknown names:
// guest intrinsics outside the SVA set carry no SVM charge).
func Cost(name string) uint64 {
	if op := byName[name]; op != nil {
		return op.Cost
	}
	return 0
}

// Get returns the intrinsic declaration for name in module m, declaring it
// on first use.  It panics on unknown names (misspelled operations should
// fail loudly at build time, not at run time).
func Get(m *ir.Module, name string) *ir.Function {
	if f := m.Func(name); f != nil {
		return f
	}
	op := byName[name]
	if op == nil {
		panic("svaops: unknown operation " + name)
	}
	f := m.NewFunc(name, op.Sig)
	f.Intrinsic = true
	return f
}

// IsCheckOp reports whether name is a run-time check operation (pchk.*).
func IsCheckOp(name string) bool {
	op := byName[name]
	return op != nil && op.Class == ClassCheck
}
