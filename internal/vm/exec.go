package vm

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"sva/internal/abi"
	"sva/internal/hw"
	"sva/internal/ir"
	"sva/internal/metapool"
	"sva/internal/telemetry"
)

// Frame is one activation record on the virtual CPU's explicit call stack.
type Frame struct {
	fn     *ir.Function
	cf     *compiledFunc // translated form; nil only if translation failed
	regs   []uint64      // virtual registers indexed by instruction number
	params []uint64
	block  int // index of the current basic block
	idx    int // index of the next instruction within the block
	prev   int // previously executed block (for phi resolution)
	spBase uint64
	retTo  int  // register slot in the caller for the return value (-1: none)
	icTop  bool // popping this frame also pops an interrupt context
	// cleanups are stack-object registrations dropped when the frame pops.
	cleanups []stackObj
}

// stackObj is one frame-scoped object registration (pchk.reg.stack).
type stackObj struct {
	pool int
	addr uint64
}

// dropCleanups deregisters a frame's stack objects.
func (vm *VM) dropCleanups(fr *Frame) {
	for _, c := range fr.cleanups {
		_ = vm.Pools.Pool(c.pool).DropCPU(vm.cpuID, c.addr)
	}
	fr.cleanups = nil
}

// IContext is an interrupt context (paper §3.3, Table 2): the interrupted
// control state the SVM saves on kernel entry, manipulated by the guest
// through an opaque handle.
type IContext struct {
	frameIdx  int // frames[:frameIdx] is the interrupted continuation
	savedSP   uint64
	savedPriv uint8
	retSlot   int // register slot in frames[frameIdx-1] for the trap result
	// entrySteps is the VM step count at trap entry, the reference point
	// for the watchdog instruction-fuel limit.
	entrySteps uint64
	// pending holds functions pushed by llva.ipush.function, run in the
	// interrupted context's privilege when the icontext resumes (signal
	// handler dispatch).
	pending []pendingCall
}

type pendingCall struct {
	fn   *ir.Function
	args []uint64
}

// Exec is the full execution state of the virtual CPU: an explicit frame
// stack plus privilege, stack pointer and the interrupt-context stack.
// llva.save.integer snapshots an Exec; llva.load.integer installs one.
type Exec struct {
	frames    []*Frame
	sp        uint64
	priv      uint8
	kstackTop uint64
	ics       []*IContext
	done      bool
	retVal    uint64
	// pool recycles popped frames (newFrame/popFrame); never cloned or
	// saved with the execution state.
	pool []*Frame
	// icPool recycles popped interrupt contexts (pushIContext/popIContext);
	// like pool, it is never cloned or saved.
	icPool []*IContext
}

// Continuation is a saved copy of an Exec.  retSlot tracks which register
// of its top frame receives a pending trap result (-1: none), so the guest
// can overwrite a forked child's syscall return value.
type Continuation struct {
	ex      Exec
	retSlot int
}

// clone deep-copies the execution state.
func (e *Exec) clone() *Exec {
	cp := &Exec{
		sp:        e.sp,
		priv:      e.priv,
		kstackTop: e.kstackTop,
		done:      e.done,
		retVal:    e.retVal,
	}
	// Bulk-allocate the copied frames and their register files: one Frame
	// array plus one word arena instead of three allocations per frame.
	// Arena slices use full-length caps, so any later append copies out
	// rather than bleeding into a sibling frame's words.
	words := 0
	for _, f := range e.frames {
		words += len(f.regs) + len(f.params)
	}
	arena := make([]uint64, words)
	backing := make([]Frame, len(e.frames))
	cp.frames = make([]*Frame, len(e.frames))
	for i, f := range e.frames {
		nf := &backing[i]
		*nf = *f
		nr, np := len(f.regs), len(f.params)
		nf.regs = arena[:nr:nr]
		arena = arena[nr:]
		nf.params = arena[:np:np]
		arena = arena[np:]
		copy(nf.regs, f.regs)
		copy(nf.params, f.params)
		nf.cleanups = append([]stackObj(nil), f.cleanups...)
		cp.frames[i] = nf
	}
	cp.ics = make([]*IContext, len(e.ics))
	for i, ic := range e.ics {
		nic := *ic
		nic.pending = append([]pendingCall(nil), ic.pending...)
		cp.ics[i] = &nic
	}
	return cp
}

// GuestFault is a hardware-level fault raised by guest execution (null
// dereference, privilege violation, division by zero, bad function
// pointer).
type GuestFault struct {
	Kind string
	Addr uint64
	PC   string
}

func (f *GuestFault) Error() string {
	return fmt.Sprintf("guest fault: %s at %#x (%s)", f.Kind, f.Addr, f.PC)
}

// ErrStepBudget is returned when execution exceeds the VM's step budget.
var ErrStepBudget = errors.New("vm: step budget exhausted")

// FailStop is the terminal rung of the recovery ladder (DESIGN.md §12):
// the SVM stopped the current execution with a structured diagnostic
// because recovery by oops unwind was impossible or unsafe.  The host VM
// itself stays intact — a FailStop is a classified outcome, never a crash.
type FailStop struct {
	Reason string
	Err    error // underlying cause, when one exists
}

func (f *FailStop) Error() string {
	if f.Err != nil {
		return fmt.Sprintf("vm fail-stop: %s: %v", f.Reason, f.Err)
	}
	return "vm fail-stop: " + f.Reason
}

func (f *FailStop) Unwrap() error { return f.Err }

// failStop records and returns a FailStop diagnostic.
func (vm *VM) failStop(reason string, cause error) error {
	vm.Counters.FailStops++
	if vm.trace != nil {
		msg := reason
		if cause != nil {
			msg = reason + ": " + cause.Error()
		}
		vm.trace.Emit(telemetry.EvFailStop, "", nil, msg)
	}
	return &FailStop{Reason: reason, Err: cause}
}

// MaxFrames bounds guest call depth: unbounded recursion becomes a
// recoverable guest fault instead of exhausting host memory.
const MaxFrames = 1 << 15

// oopsStormLimit bounds consecutive oops unwinds with no intervening
// successful trap exit.  A guest that faults again immediately after every
// recovery is livelocked in the oops path (the "double fault" of the
// paper's fail-safe discussion); past the limit the execution fail-stops.
const oopsStormLimit = 64

// NewExec creates an execution state that calls fn(args) with the given
// stack top and privilege.  It does not install it; see SetExec.
func (vm *VM) NewExec(fn *ir.Function, args []uint64, stackTop uint64, priv uint8) (*Exec, error) {
	if fn.IsDecl() {
		return nil, fmt.Errorf("vm: cannot execute body-less @%s", fn.Nm)
	}
	if len(args) != len(fn.Params) {
		return nil, fmt.Errorf("vm: @%s expects %d args, got %d", fn.Nm, len(fn.Params), len(args))
	}
	ex := &Exec{sp: stackTop, priv: priv, kstackTop: stackTop}
	ex.frames = append(ex.frames, vm.entryFrame(fn, append([]uint64(nil), args...), stackTop))
	return ex, nil
}

// entryFrame builds the bottom frame of a fresh execution — fn(params) on
// a stack whose top is sp — translated like every frame pushCall builds.
// NewExec, InitState, InitUserState and ExecState all start here.
func (vm *VM) entryFrame(fn *ir.Function, params []uint64, sp uint64) *Frame {
	return &Frame{
		fn:     fn,
		cf:     vm.translateCached(fn),
		regs:   make([]uint64, fn.NumInstrs()),
		params: params,
		spBase: sp,
		retTo:  -1,
	}
}

// SetExec installs an execution state as the virtual CPU's current state.
func (vm *VM) SetExec(e *Exec) {
	vm.cur = e
	if e != nil {
		vm.CPU.Int.Priv = e.priv
		vm.CPU.Int.SP = e.sp
	}
}

// Exec returns the current execution state.
func (vm *VM) Exec() *Exec { return vm.cur }

// fnMeta caches derived per-function data.
type fnMeta struct {
	blockIdx map[*ir.BasicBlock]int
}

// fnMetaCache is keyed by *ir.Function; modules are shared between the
// VMs that per-config bench goroutines run concurrently, so the cache
// must be safe for mixed read/build access (sync.Map keeps the
// all-but-first lookups lock-free).
var fnMetaCache sync.Map

func meta(f *ir.Function) *fnMeta {
	if m, ok := fnMetaCache.Load(f); ok {
		return m.(*fnMeta)
	}
	m := &fnMeta{blockIdx: make(map[*ir.BasicBlock]int, len(f.Blocks))}
	for i, b := range f.Blocks {
		m.blockIdx[b] = i
	}
	got, _ := fnMetaCache.LoadOrStore(f, m)
	return got.(*fnMeta)
}

// eval resolves an operand value within a frame.
func (vm *VM) eval(fr *Frame, v ir.Value) (uint64, error) {
	switch v := v.(type) {
	case *ir.Instr:
		return fr.regs[v.Num()], nil
	case *ir.ConstInt:
		return v.V, nil
	case *ir.Param:
		return fr.params[v.Idx], nil
	case *ir.ConstNull:
		return 0, nil
	case *ir.ConstFloat:
		return v.Bits(), nil
	case *ir.ConstUndef:
		return 0, nil
	case *ir.Global:
		a, ok := vm.globalAddr[v]
		if !ok {
			return 0, fmt.Errorf("vm: unresolved global @%s", v.Nm)
		}
		return a, nil
	case *ir.Function:
		a, ok := vm.funcAddr[v]
		if !ok {
			return 0, fmt.Errorf("vm: unresolved function @%s", v.Nm)
		}
		return a, nil
	case *ir.GlobalAddr:
		return vm.constAddr(v)
	}
	return 0, fmt.Errorf("vm: unsupported operand %T", v)
}

// checkAccess enforces the hardware-level access rules: the null guard
// page, the SVM's protected reserve, and user/kernel separation.
// MaxAccess bounds any single memory transfer the VM performs on behalf
// of the guest (the virtual architecture's largest legal burst).  Without
// it a guest-supplied length near 2^63 would make the host allocate or
// zero unbounded memory before any range check could fail.
const MaxAccess = 1 << 26

func (vm *VM) checkAccess(addr uint64, size int, write bool) error {
	if size < 0 || size > MaxAccess {
		return &GuestFault{Kind: "transfer length exceeds architecture limit", Addr: addr}
	}
	end := addr + uint64(size)
	if end < addr {
		return &GuestFault{Kind: "access range wraps the address space", Addr: addr}
	}
	if addr < NullGuardTop {
		return &GuestFault{Kind: "null dereference", Addr: addr}
	}
	if addr < SVMTop && end > SVMBase {
		return &GuestFault{Kind: "access to SVM-protected memory", Addr: addr}
	}
	if vm.cur != nil && vm.cur.priv == hw.PrivUser {
		if addr < UserBase || end > UserTop {
			return &GuestFault{Kind: "user access to supervisor memory", Addr: addr}
		}
	}
	return nil
}

func (vm *VM) memLoad(addr uint64, size int) (uint64, error) {
	if err := vm.checkAccess(addr, size, false); err != nil {
		return 0, err
	}
	vm.Counters.MemOps++
	return vm.Mach.Phys.Load(addr, size)
}

func (vm *VM) memStore(addr uint64, v uint64, size int) error {
	if err := vm.checkAccess(addr, size, true); err != nil {
		return err
	}
	vm.Counters.MemOps++
	return vm.Mach.Phys.Store(addr, v, size)
}

// memScratchCap bounds the retained size of the per-VCPU byte scratch:
// larger requests fall back to the allocator so one huge memcpy does not
// pin its buffer for the VM's lifetime.
const memScratchCap = 64 << 10

// memScratch returns an n-byte buffer reused across memory-intrinsic
// calls.  Callers must fully consume it before the next guest operation
// and must never retain it (Phys.ReadAt/WriteAt copy, they do not alias).
func (vm *VM) memScratch(n int) []byte {
	if n > memScratchCap {
		return make([]byte, n)
	}
	if cap(vm.membuf) < n {
		vm.membuf = make([]byte, memScratchCap)
	}
	return vm.membuf[:n]
}

// MemReadBytes copies guest memory for host-side inspection (no privilege
// checks; used by intrinsics and tests).
func (vm *VM) MemReadBytes(addr uint64, n int) ([]byte, error) {
	if n < 0 || n > MaxAccess {
		return nil, &GuestFault{Kind: "transfer length exceeds architecture limit", Addr: addr}
	}
	buf := make([]byte, n)
	if err := vm.Mach.Phys.ReadAt(addr, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// MemWriteBytes writes guest memory directly (host-side).
func (vm *VM) MemWriteBytes(addr uint64, p []byte) error {
	return vm.Mach.Phys.WriteAt(addr, p)
}

// ReadCString reads a NUL-terminated string from guest memory (bounded).
func (vm *VM) ReadCString(addr uint64, max int) (string, error) {
	var out []byte
	for i := 0; i < max; i++ {
		b, err := vm.Mach.Phys.Load(addr+uint64(i), 1)
		if err != nil {
			return "", err
		}
		if b == 0 {
			break
		}
		out = append(out, byte(b))
	}
	return string(out), nil
}

// Run interprets the current execution state until it completes, the VM
// halts, the step budget is exhausted, or an unrecoverable error occurs.
//
// Run is the host/guest robustness boundary: any panic escaping the
// interpreter (the backstop for residual index faults under corrupted
// state) is converted into a FailStop here, so no guest can crash the
// host SVM.  This is the last rung of the recovery ladder; the defer costs
// once per Run call, not per step, so guest-visible cycles and counters
// are unaffected.
func (vm *VM) Run() (ret uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			ret, err = 0, vm.failStop(fmt.Sprintf("host panic absorbed at run boundary: %v", r), nil)
		}
	}()
	for {
		if vm.Halted {
			return vm.ExitCode, nil
		}
		if vm.cur == nil {
			return 0, fmt.Errorf("vm: no execution state installed")
		}
		if vm.cur.done {
			return vm.cur.retVal, nil
		}
		if vm.StepBudget != 0 && vm.Counters.Steps >= vm.StepBudget {
			return 0, ErrStepBudget
		}
		if vm.engine {
			if fr := vm.cur.frames[len(vm.cur.frames)-1]; fr.cf != nil {
				// Translated top frame: the threaded engine dispatches
				// until a frame whose translation failed (or halt,
				// completion, budget) hands control back to this loop.
				if herr := vm.runEngine(); herr != nil {
					return 0, herr
				}
				continue
			}
		}
		if err := vm.step(); err != nil {
			if herr := vm.handleGuestError(err); herr != nil {
				return 0, herr
			}
		}
		if vm.WatchdogFuel != 0 {
			if err := vm.watchdogCheck(); err != nil {
				if herr := vm.handleGuestError(err); herr != nil {
					return 0, herr
				}
			}
		}
		if vm.Counters.Steps&0x3F == 0 {
			vm.pollInterrupts()
		}
	}
}

// watchdogCheck enforces the per-trap instruction-fuel limit: a trap
// handler that loops for more than WatchdogFuel steps is declared runaway
// and raises a recoverable guest fault (the oops unwind aborts the trap).
func (vm *VM) watchdogCheck() error {
	ex := vm.cur
	if ex == nil || len(ex.ics) == 0 {
		return nil
	}
	ic := ex.ics[len(ex.ics)-1]
	if vm.Counters.Steps-ic.entrySteps <= vm.WatchdogFuel {
		return nil
	}
	vm.Counters.WatchdogFaults++
	return &GuestFault{Kind: fmt.Sprintf("watchdog: trap handler exceeded %d-step fuel", vm.WatchdogFuel)}
}

// pollInterrupts advances the timer and delivers one pending interrupt if
// the controller is enabled and a handler is registered.  Under SMP it is
// also the halt-latch observation point: a sibling's sva.halt stops this
// VCPU within one poll interval (64 steps).
func (vm *VM) pollInterrupts() {
	if vm.shared != nil {
		if vm.shared.halted.Load() {
			vm.Halted = true
			vm.ExitCode = vm.shared.exitCode.Load()
			return
		}
		// Only the boot CPU drives the timer; its step counter is the
		// machine's timekeeping reference, as on real hardware where the
		// BSP owns the PIT.
		if vm.cpuID == 0 {
			vm.Mach.Timer.Advance(vm.Counters.Steps, vm.Mach.Intr)
		}
	} else {
		vm.Mach.Timer.Advance(vm.Counters.Steps, vm.Mach.Intr)
	}
	if vm.cur == nil || vm.cur.done {
		return
	}
	vec := vm.Mach.Intr.NextOn(vm.cpuID)
	if vec < 0 {
		return
	}
	h := vm.interrupts[int64(vec)]
	if h == nil {
		return // spurious interrupt: dropped
	}
	vm.Counters.Traps++
	if vm.trace != nil {
		vm.trace.Emit(telemetry.EvTrapEnter, "interrupt", []uint64{uint64(vec)}, "")
	}
	icp := vm.pushIContext(-1)
	vm.pushCall(h, []uint64{uint64(vec), icp}, -1, true)
}

// step executes one instruction of the current frame.  With a profiler
// attached it additionally attributes the instruction's full cycle charge
// (including any intrinsic work it triggered) to the executing guest
// function; the charge itself is identical either way.
func (vm *VM) step() error {
	ex := vm.cur
	fr := ex.frames[len(ex.frames)-1]
	if vm.prof != nil {
		c0 := vm.CPU.Cycles
		fn := fr.fn.Nm
		caller := ""
		if n := len(ex.frames); n >= 2 {
			caller = ex.frames[n-2].fn.Nm
		}
		err := vm.stepIn(ex, fr)
		vm.prof.ChargeFn(fn, caller, vm.CPU.Cycles-c0)
		return err
	}
	return vm.stepIn(ex, fr)
}

func (vm *VM) stepIn(ex *Exec, fr *Frame) error {
	blocks := fr.fn.Blocks
	if fr.block >= len(blocks) || fr.idx >= len(blocks[fr.block].Instrs) {
		return fmt.Errorf("vm: pc fell off block in @%s", fr.fn.Nm)
	}
	in := blocks[fr.block].Instrs[fr.idx]
	var ops []coperand
	if fr.cf != nil {
		ops = fr.cf.ops[fr.block][fr.idx]
	}
	fr.idx++
	vm.Counters.Steps++
	if ex.priv == hw.PrivKernel {
		vm.Counters.KSteps++
	}
	vm.CPU.Cycles += 1 + vm.gccDelta(vm.Counters.Steps-1, 1)
	return vm.exec(ex, fr, in, ops)
}

// gccDelta is the gcc-versus-llvm code-quality charge (the Table 5 delta)
// for retiring steps s+1..s+n: one cycle at every 32nd step, paid only by
// the configs whose kernel gcc compiled.  It depends on the config alone,
// never on which executor retired the steps.
func (vm *VM) gccDelta(s, n uint64) uint64 {
	if vm.Cfg.Translated() {
		return 0
	}
	return (s+n)>>CycDirectPenaltyShift - s>>CycDirectPenaltyShift
}

// arg resolves the i'th operand, via the pre-lowered form when available.
func (vm *VM) arg(fr *Frame, in *ir.Instr, ops []coperand, i int) (uint64, error) {
	if ops != nil {
		return fr.fastEval(ops[i]), nil
	}
	return vm.eval(fr, in.Args[i])
}

func (vm *VM) exec(ex *Exec, fr *Frame, in *ir.Instr, ops []coperand) error {
	var layout ir.Layout
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpUDiv, ir.OpSDiv, ir.OpURem,
		ir.OpSRem, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr:
		x, err := vm.arg(fr, in, ops, 0)
		if err != nil {
			return err
		}
		y, err := vm.arg(fr, in, ops, 1)
		if err != nil {
			return err
		}
		v, err := evalIntBinop(in.Op, x, y, in.Typ.Bits())
		if err != nil {
			return err
		}
		fr.regs[in.Num()] = v

	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		x, err := vm.arg(fr, in, ops, 0)
		if err != nil {
			return err
		}
		y, err := vm.arg(fr, in, ops, 1)
		if err != nil {
			return err
		}
		fx, fy := math.Float64frombits(x), math.Float64frombits(y)
		var r float64
		switch in.Op {
		case ir.OpFAdd:
			r = fx + fy
		case ir.OpFSub:
			r = fx - fy
		case ir.OpFMul:
			r = fx * fy
		case ir.OpFDiv:
			r = fx / fy
		}
		fr.regs[in.Num()] = math.Float64bits(r)
		vm.CPU.FP.Dirty = true

	case ir.OpICmp:
		x, err := vm.arg(fr, in, ops, 0)
		if err != nil {
			return err
		}
		y, err := vm.arg(fr, in, ops, 1)
		if err != nil {
			return err
		}
		bits := 64
		if in.Args[0].Type().IsInt() {
			bits = in.Args[0].Type().Bits()
		}
		fr.regs[in.Num()] = boolVal(evalICmp(in.Pred, x, y, bits))

	case ir.OpFCmp:
		x, err := vm.arg(fr, in, ops, 0)
		if err != nil {
			return err
		}
		y, err := vm.arg(fr, in, ops, 1)
		if err != nil {
			return err
		}
		fr.regs[in.Num()] = boolVal(evalFCmp(in.Pred, math.Float64frombits(x), math.Float64frombits(y)))

	case ir.OpBr:
		return vm.enterBlock(fr, in.Blocks[0])

	case ir.OpCondBr:
		c, err := vm.arg(fr, in, ops, 0)
		if err != nil {
			return err
		}
		if c&1 != 0 {
			return vm.enterBlock(fr, in.Blocks[0])
		}
		return vm.enterBlock(fr, in.Blocks[1])

	case ir.OpSwitch:
		v, err := vm.arg(fr, in, ops, 0)
		if err != nil {
			return err
		}
		target := in.Blocks[0]
		for i := 1; i < len(in.Args); i++ {
			ci, ok := in.Args[i].(*ir.ConstInt)
			if !ok {
				return &GuestFault{Kind: "switch case is not a constant", PC: fr.fn.Nm}
			}
			if ci.V == v {
				target = in.Blocks[i]
				break
			}
		}
		return vm.enterBlock(fr, target)

	case ir.OpRet:
		var v uint64
		if len(in.Args) == 1 {
			var err error
			v, err = vm.arg(fr, in, ops, 0)
			if err != nil {
				return err
			}
		}
		return vm.popFrame(v)

	case ir.OpUnreachable:
		return &GuestFault{Kind: "unreachable executed", PC: fr.fn.Nm}

	case ir.OpPhi:
		// Phis are evaluated by enterBlock; reaching one directly means
		// the entry block starts with a phi, which the verifier rejects.
		return fmt.Errorf("vm: phi executed directly in @%s", fr.fn.Nm)

	case ir.OpAlloca:
		count := uint64(1)
		if len(in.Args) == 1 {
			c, err := vm.arg(fr, in, ops, 0)
			if err != nil {
				return err
			}
			count = c
		}
		elemSz, lerr := layout.TrySize(in.AllocTy)
		if lerr != nil {
			return &GuestFault{Kind: "alloca of malformed type: " + lerr.Error(), PC: fr.fn.Nm}
		}
		size := uint64(elemSz) * count
		if elemSz != 0 && (size/uint64(elemSz) != count || size > MaxAccess) {
			return &GuestFault{Kind: "alloca size exceeds architecture limit", PC: fr.fn.Nm}
		}
		size = uint64(ir.AlignUp(int64(size), 16))
		ex.sp -= size
		addr := ex.sp
		if err := vm.Mach.Phys.Zero(addr, size); err != nil {
			return err
		}
		fr.regs[in.Num()] = addr

	case ir.OpLoad:
		p, err := vm.arg(fr, in, ops, 0)
		if err != nil {
			return err
		}
		sz, lerr := layout.TrySize(in.Typ)
		if lerr != nil {
			return &GuestFault{Kind: "load of malformed type: " + lerr.Error(), PC: fr.fn.Nm}
		}
		v, err := vm.memLoad(p, int(sz))
		if err != nil {
			return err
		}
		fr.regs[in.Num()] = v

	case ir.OpStore:
		v, err := vm.arg(fr, in, ops, 0)
		if err != nil {
			return err
		}
		p, err := vm.arg(fr, in, ops, 1)
		if err != nil {
			return err
		}
		sz, lerr := layout.TrySize(in.Args[0].Type())
		if lerr != nil {
			return &GuestFault{Kind: "store of malformed type: " + lerr.Error(), PC: fr.fn.Nm}
		}
		return vm.memStore(p, v, int(sz))

	case ir.OpGEP:
		base, err := vm.arg(fr, in, ops, 0)
		if err != nil {
			return err
		}
		off, err := vm.gepOffset(fr, in)
		if err != nil {
			return err
		}
		fr.regs[in.Num()] = base + uint64(off)

	case ir.OpCall:
		return vm.execCall(ex, fr, in, ops)

	case ir.OpTrunc:
		v, err := vm.arg(fr, in, ops, 0)
		if err != nil {
			return err
		}
		fr.regs[in.Num()] = ir.Truncate(v, in.Typ.Bits())
	case ir.OpZExt:
		v, err := vm.arg(fr, in, ops, 0)
		if err != nil {
			return err
		}
		fr.regs[in.Num()] = v // invariant: already truncated to source width
	case ir.OpSExt:
		v, err := vm.arg(fr, in, ops, 0)
		if err != nil {
			return err
		}
		fr.regs[in.Num()] = ir.Truncate(uint64(ir.SignExtend(v, in.Args[0].Type().Bits())), in.Typ.Bits())
	case ir.OpPtrToInt:
		v, err := vm.arg(fr, in, ops, 0)
		if err != nil {
			return err
		}
		fr.regs[in.Num()] = ir.Truncate(v, in.Typ.Bits())
	case ir.OpIntToPtr:
		v, err := vm.arg(fr, in, ops, 0)
		if err != nil {
			return err
		}
		fr.regs[in.Num()] = v
	case ir.OpBitcast:
		v, err := vm.arg(fr, in, ops, 0)
		if err != nil {
			return err
		}
		fr.regs[in.Num()] = v
	case ir.OpSIToFP:
		v, err := vm.arg(fr, in, ops, 0)
		if err != nil {
			return err
		}
		fr.regs[in.Num()] = math.Float64bits(float64(ir.SignExtend(v, in.Args[0].Type().Bits())))
	case ir.OpFPToSI:
		v, err := vm.arg(fr, in, ops, 0)
		if err != nil {
			return err
		}
		fr.regs[in.Num()] = ir.Truncate(uint64(int64(math.Float64frombits(v))), in.Typ.Bits())

	case ir.OpSelect:
		c, err := vm.arg(fr, in, ops, 0)
		if err != nil {
			return err
		}
		var v uint64
		if c&1 != 0 {
			v, err = vm.arg(fr, in, ops, 1)
		} else {
			v, err = vm.arg(fr, in, ops, 2)
		}
		if err != nil {
			return err
		}
		fr.regs[in.Num()] = v

	case ir.OpCmpXchg:
		p, err := vm.arg(fr, in, ops, 0)
		if err != nil {
			return err
		}
		expected, err := vm.arg(fr, in, ops, 1)
		if err != nil {
			return err
		}
		repl, err := vm.arg(fr, in, ops, 2)
		if err != nil {
			return err
		}
		sz, lerr := layout.TrySize(in.Typ)
		if lerr != nil {
			return &GuestFault{Kind: "cmpxchg of malformed type: " + lerr.Error(), PC: fr.fn.Nm}
		}
		size := int(sz)
		// Under SMP the load-compare-store must be guest-atomic: one
		// mutex serializes every atomic instruction across VCPUs.
		if vm.shared != nil {
			vm.shared.atomics.Lock()
		}
		old, err := vm.memLoad(p, size)
		if err == nil && old == expected {
			err = vm.memStore(p, repl, size)
		}
		if vm.shared != nil {
			vm.shared.atomics.Unlock()
		}
		if err != nil {
			return err
		}
		fr.regs[in.Num()] = old

	case ir.OpAtomicRMW:
		p, err := vm.arg(fr, in, ops, 0)
		if err != nil {
			return err
		}
		v, err := vm.arg(fr, in, ops, 1)
		if err != nil {
			return err
		}
		sz, lerr := layout.TrySize(in.Typ)
		if lerr != nil {
			return &GuestFault{Kind: "atomicrmw of malformed type: " + lerr.Error(), PC: fr.fn.Nm}
		}
		size := int(sz)
		if vm.shared != nil {
			vm.shared.atomics.Lock()
		}
		old, err := vm.memLoad(p, size)
		if err == nil {
			var nv uint64
			switch in.RMW {
			case ir.RMWAdd:
				nv = old + v
			case ir.RMWSub:
				nv = old - v
			case ir.RMWXchg:
				nv = v
			case ir.RMWAnd:
				nv = old & v
			case ir.RMWOr:
				nv = old | v
			}
			err = vm.memStore(p, ir.Truncate(nv, in.Typ.Bits()), size)
		}
		if vm.shared != nil {
			vm.shared.atomics.Unlock()
		}
		if err != nil {
			return err
		}
		fr.regs[in.Num()] = old

	case ir.OpFence:
		// Ordering-only.  Guest-visible ordering across VCPUs is provided
		// by the atomics mutex (every cross-CPU handoff in the kernel goes
		// through cmpxchg/atomicrmw), so a standalone fence stays free.

	default:
		return fmt.Errorf("vm: unimplemented opcode %s", in.Op)
	}
	return nil
}

func boolVal(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func evalIntBinop(op ir.Op, x, y uint64, bits int) (uint64, error) {
	var r uint64
	switch op {
	case ir.OpAdd:
		r = x + y
	case ir.OpSub:
		r = x - y
	case ir.OpMul:
		r = x * y
	case ir.OpUDiv:
		if y == 0 {
			return 0, &GuestFault{Kind: "division by zero"}
		}
		r = x / y
	case ir.OpSDiv:
		if y == 0 {
			return 0, &GuestFault{Kind: "division by zero"}
		}
		r = uint64(ir.SignExtend(x, bits) / ir.SignExtend(y, bits))
	case ir.OpURem:
		if y == 0 {
			return 0, &GuestFault{Kind: "division by zero"}
		}
		r = x % y
	case ir.OpSRem:
		if y == 0 {
			return 0, &GuestFault{Kind: "division by zero"}
		}
		r = uint64(ir.SignExtend(x, bits) % ir.SignExtend(y, bits))
	case ir.OpAnd:
		r = x & y
	case ir.OpOr:
		r = x | y
	case ir.OpXor:
		r = x ^ y
	case ir.OpShl:
		r = x << (y & 63)
	case ir.OpLShr:
		r = x >> (y & 63)
	case ir.OpAShr:
		r = uint64(ir.SignExtend(x, bits) >> (y & 63))
	}
	return ir.Truncate(r, bits), nil
}

func evalICmp(p ir.Pred, x, y uint64, bits int) bool {
	sx, sy := ir.SignExtend(x, bits), ir.SignExtend(y, bits)
	switch p {
	case ir.PredEQ:
		return x == y
	case ir.PredNE:
		return x != y
	case ir.PredULT:
		return x < y
	case ir.PredULE:
		return x <= y
	case ir.PredUGT:
		return x > y
	case ir.PredUGE:
		return x >= y
	case ir.PredSLT:
		return sx < sy
	case ir.PredSLE:
		return sx <= sy
	case ir.PredSGT:
		return sx > sy
	case ir.PredSGE:
		return sx >= sy
	}
	return false
}

func evalFCmp(p ir.Pred, x, y float64) bool {
	switch p {
	case ir.PredEQ:
		return x == y
	case ir.PredNE:
		return x != y
	case ir.PredULT, ir.PredSLT:
		return x < y
	case ir.PredULE, ir.PredSLE:
		return x <= y
	case ir.PredUGT, ir.PredSGT:
		return x > y
	case ir.PredUGE, ir.PredSGE:
		return x >= y
	}
	return false
}

// enterBlock transfers control to target, resolving its phi nodes.
func (vm *VM) enterBlock(fr *Frame, target *ir.BasicBlock) error {
	m := meta(fr.fn)
	ti, ok := m.blockIdx[target]
	if !ok {
		return fmt.Errorf("vm: branch to foreign block in @%s", fr.fn.Nm)
	}
	cur := fr.fn.Blocks[fr.block]
	// Two-phase phi evaluation.
	var phiVals []uint64
	var phis []*ir.Instr
	for _, in := range target.Instrs {
		if in.Op != ir.OpPhi {
			break
		}
		found := false
		for i, pb := range in.Blocks {
			if pb == cur {
				v, err := vm.eval(fr, in.Args[i])
				if err != nil {
					return err
				}
				phiVals = append(phiVals, v)
				phis = append(phis, in)
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("vm: phi in %s missing edge from %s", target.Nm, cur.Nm)
		}
	}
	for i, p := range phis {
		fr.regs[p.Num()] = phiVals[i]
	}
	fr.prev = fr.block
	fr.block = ti
	fr.idx = len(phis)
	return nil
}

// execCall handles direct, indirect and intrinsic calls.
func (vm *VM) execCall(ex *Exec, fr *Frame, in *ir.Instr, ops []coperand) error {
	vm.Counters.Calls++
	if len(ex.frames) >= MaxFrames {
		return &GuestFault{Kind: "call stack overflow (runaway recursion)", PC: fr.fn.Nm}
	}
	callee, err := vm.resolveCallee(fr, in.Callee)
	if err != nil {
		return err
	}
	args := vm.argScratch(len(in.Args))
	for i := range in.Args {
		args[i], err = vm.arg(fr, in, ops, i)
		if err != nil {
			return err
		}
	}
	if callee.Intrinsic {
		vm.Counters.Intrinsics++
		h := vm.intrinsics[callee.Nm]
		if h == nil {
			return fmt.Errorf("vm: unknown intrinsic @%s", callee.Nm)
		}
		var res IntrinsicResult
		if vm.prof != nil || vm.trace != nil {
			res, err = vm.observedIntrinsic(callee.Nm, h, args)
		} else {
			res, err = h(vm, args)
		}
		if err != nil {
			return err
		}
		if res.Switched {
			vm.Counters.Switches++
			return nil
		}
		retTo := -1
		if !in.Typ.IsVoid() {
			retTo = in.Num()
		}
		if res.Push != nil {
			if res.PushIC {
				vm.Counters.Traps++
				vm.pushIContext(retTo)
			}
			vm.pushCall(res.Push, res.PushArgs, retTo, res.PushIC)
			return nil
		}
		if retTo >= 0 {
			fr.regs[retTo] = res.Value
		}
		return nil
	}
	if callee.IsDecl() {
		return fmt.Errorf("vm: call to external @%s with no body", callee.Nm)
	}
	retTo := -1
	if !in.Typ.IsVoid() {
		retTo = in.Num()
	}
	vm.pushCall(callee, args, retTo, false)
	return nil
}

func (vm *VM) resolveCallee(fr *Frame, callee ir.Value) (*ir.Function, error) {
	if f, ok := callee.(*ir.Function); ok {
		return f, nil
	}
	addr, err := vm.eval(fr, callee)
	if err != nil {
		return nil, err
	}
	f := vm.addrFunc[addr]
	if f == nil {
		return nil, &GuestFault{Kind: "indirect call to non-function address", Addr: addr, PC: fr.fn.Nm}
	}
	return f, nil
}

// newFrame hands out a recycled frame from the Exec's pool, or a fresh
// one.  Frames cycle constantly on syscall-heavy workloads; recycling
// them (and their register files) keeps the call path off the host
// allocator.  Pools are per-Exec, so saved continuations and cloned
// executions (which deep-copy their frames) never share frame storage
// with a live stack.
func (ex *Exec) newFrame() *Frame {
	if n := len(ex.pool); n > 0 {
		fr := ex.pool[n-1]
		ex.pool[n-1] = nil
		ex.pool = ex.pool[:n-1]
		return fr
	}
	return &Frame{}
}

// pushCall pushes a new frame calling fn(args).
func (vm *VM) pushCall(fn *ir.Function, args []uint64, retTo int, icTop bool) {
	ex := vm.cur
	fr := ex.newFrame()
	nregs := fn.NumInstrs()
	if cap(fr.regs) < nregs {
		fr.regs = make([]uint64, nregs)
	} else {
		fr.regs = fr.regs[:nregs]
		clear(fr.regs)
	}
	// Copy rather than alias the arguments: params are read-only once the
	// frame exists (no caller observes writes through them), and copying
	// lets both the callers' argument buffers and this frame's params
	// storage recycle through their pools.
	na := len(args)
	if cap(fr.params) < na {
		fr.params = make([]uint64, na)
	} else {
		fr.params = fr.params[:na]
	}
	copy(fr.params, args)
	fr.fn = fn
	fr.cf = vm.translateCached(fn)
	fr.block = 0
	fr.idx = 0
	fr.prev = 0
	fr.spBase = ex.sp
	fr.retTo = retTo
	fr.icTop = icTop
	fr.cleanups = nil
	ex.frames = append(ex.frames, fr)
}

// translateCached fronts translate with a per-VCPU plain map: the shared
// engineCache needs a concurrent map, but each VCPU's hot call path can
// memoize the answer lock-free.  The cache keys on the intrinsic-binding
// generation so an intrinsic-table mutation flushes it along with the
// shared cache.  Failed translations are not memoized — a later LoadModule
// can resolve the missing symbol, and retrying matches the shared cache's
// behavior.
func (vm *VM) translateCached(fn *ir.Function) *compiledFunc {
	if g := vm.eng.intrGen.Load(); g != vm.tcGen || vm.tcache == nil {
		vm.tcache = make(map[*ir.Function]*compiledFunc)
		vm.tcGen = g
	}
	if cf, ok := vm.tcache[fn]; ok {
		return cf
	}
	cf, err := vm.translate(fn)
	if err != nil {
		return nil
	}
	vm.tcache[fn] = cf
	return cf
}

// argScratch returns a reusable per-VCPU buffer for building call
// arguments.  Callers must hand the buffer off before the next guest
// operation: pushCall copies it into frame params, and intrinsic handlers
// never retain their argument slice past the call (the two that keep
// argument data — TrapEnter, IContextPushFunction — copy it).
func (vm *VM) argScratch(n int) []uint64 {
	if cap(vm.argbuf) < n {
		vm.argbuf = make([]uint64, n)
	}
	return vm.argbuf[:n]
}

// popFrame returns from the top frame with the given value.
func (vm *VM) popFrame(val uint64) error {
	ex := vm.cur
	fr := ex.frames[len(ex.frames)-1]
	ex.frames = ex.frames[:len(ex.frames)-1]
	vm.dropCleanups(fr)
	ex.sp = fr.spBase
	if len(ex.frames) == 0 {
		ex.done = true
		ex.retVal = val
		ex.pool = append(ex.pool, fr)
		return nil
	}
	parent := ex.frames[len(ex.frames)-1]
	if fr.retTo >= 0 {
		if fr.retTo >= len(parent.regs) {
			return vm.failStop(fmt.Sprintf("corrupt continuation: return slot %d outside %d registers of @%s", fr.retTo, len(parent.regs), parent.fn.Nm), nil)
		}
		parent.regs[fr.retTo] = val
	}
	icTop := fr.icTop
	// Recycle before popIContext: nothing below reads fr, and pending
	// signal dispatch inside popIContext may immediately reuse the slot.
	ex.pool = append(ex.pool, fr)
	if icTop {
		vm.popIContext()
	}
	return nil
}

// pushIContext enters a trap: saves sp/priv, switches to the kernel stack
// and kernel privilege, and returns the opaque icontext handle.
func (vm *VM) pushIContext(retSlot int) uint64 {
	ex := vm.cur
	var ic *IContext
	if n := len(ex.icPool); n > 0 {
		ic = ex.icPool[n-1]
		ex.icPool[n-1] = nil
		ex.icPool = ex.icPool[:n-1]
		*ic = IContext{pending: ic.pending[:0]}
	} else {
		ic = &IContext{}
	}
	ic.frameIdx = len(ex.frames)
	ic.savedSP = ex.sp
	ic.savedPriv = ex.priv
	ic.retSlot = retSlot
	ic.entrySteps = vm.Counters.Steps
	ex.ics = append(ex.ics, ic)
	// Switch to the kernel stack only on a user→kernel transition; nested
	// (internal) traps keep the current kernel stack pointer.
	if ex.priv == hw.PrivUser && ex.kstackTop != 0 {
		ex.sp = ex.kstackTop
	}
	ex.priv = hw.PrivKernel
	vm.CPU.Int.Priv = hw.PrivKernel
	return uint64(len(ex.ics))
}

// popIContext resumes the interrupted context, dispatching any functions
// pushed by llva.ipush.function first.
func (vm *VM) popIContext() {
	ex := vm.cur
	if len(ex.ics) == 0 {
		return
	}
	ic := ex.ics[len(ex.ics)-1]
	ex.ics = ex.ics[:len(ex.ics)-1]
	ex.sp = ic.savedSP
	ex.priv = ic.savedPriv
	vm.CPU.Int.Priv = ic.savedPriv
	// A trap completed without faulting: the guest is making progress, so
	// the oops-storm streak starts over.
	vm.oopsStreak = 0
	if vm.trace != nil {
		vm.trace.Emit(telemetry.EvTrapExit, "", nil, "")
	}
	// Signal-handler dispatch: pushed functions run in the interrupted
	// context before it resumes.
	for i := len(ic.pending) - 1; i >= 0; i-- {
		p := ic.pending[i]
		vm.pushCall(p.fn, p.args, -1, false)
	}
	// Recycle last: the pending dispatch above may push a new trap frame,
	// but it never re-enters this interrupt context.
	ex.icPool = append(ex.icPool, ic)
}

// icontext returns the interrupt context for a guest handle.
func (vm *VM) icontext(handle uint64) (*IContext, error) {
	ex := vm.cur
	if handle == 0 || handle > uint64(len(ex.ics)) {
		return nil, fmt.Errorf("vm: bad interrupt context handle %d", handle)
	}
	return vm.ics()[handle-1], nil
}

func (vm *VM) ics() []*IContext { return vm.cur.ics }

// handleGuestError is the recovery ladder (DESIGN.md §12).  Rung 1, the
// oops unwind: safety violations, guest faults, and hardware-level memory
// faults occurring inside a trap handler become an aborted system call —
// the kernel frames unwind to the interrupt context boundary and the
// interrupted context resumes with an EFAULT result.  Rung 2, fail-stop:
// errors with no enclosing interrupt context, oops storms (livelock in the
// recovery path itself), and structurally corrupt interrupt contexts stop
// the execution with a structured diagnostic.  A nil return means the
// fault was absorbed; non-nil is the error Run must surface.
func (vm *VM) handleGuestError(err error) error {
	var viol *metapool.Violation
	var fault *GuestFault
	var mfault *hw.MemFault
	var pfault *hw.PageFault
	switch {
	case errors.As(err, &viol):
		vm.Violations = append(vm.Violations, viol)
		if viol.Kind == metapool.MetadataCorruption {
			vm.Counters.Quarantines++
		}
	case errors.As(err, &fault):
		vm.FaultLog = append(vm.FaultLog, fault.Error())
	case errors.As(err, &mfault), errors.As(err, &pfault):
		// Hardware-level faults (physical memory exhaustion, paging) are
		// the guest's problem, not the host's: same oops treatment.
		vm.FaultLog = append(vm.FaultLog, err.Error())
	default:
		return err // host-side error: not recoverable by unwinding the guest
	}
	ex := vm.cur
	if ex == nil || len(ex.ics) == 0 {
		if vm.trace != nil {
			vm.trace.Emit(telemetry.EvOops, "fatal", nil, err.Error())
		}
		return err
	}
	vm.Counters.Oops++
	vm.oopsStreak++
	if vm.oopsStreak > oopsStormLimit {
		return vm.failStop(fmt.Sprintf("oops storm: %d consecutive faults in the recovery path", vm.oopsStreak), err)
	}
	ic := ex.ics[len(ex.ics)-1]
	ex.ics = ex.ics[:len(ex.ics)-1]
	if ic.frameIdx < 0 || ic.frameIdx > len(ex.frames) {
		// The interrupt context itself is corrupt (e.g. a chaos-mutated
		// restore): unwinding through it would index outside the frame
		// stack.  A double fault in the oops path fail-stops cleanly.
		return vm.failStop(fmt.Sprintf("corrupt interrupt context: frame index %d outside stack of %d", ic.frameIdx, len(ex.frames)), err)
	}
	for _, fr := range ex.frames[ic.frameIdx:] {
		vm.dropCleanups(fr)
	}
	ex.frames = ex.frames[:ic.frameIdx]
	ex.sp = ic.savedSP
	ex.priv = ic.savedPriv
	vm.CPU.Int.Priv = ic.savedPriv
	if vm.trace != nil {
		vm.trace.Emit(telemetry.EvOops, "", []uint64{uint64(len(ex.ics))}, err.Error())
	}
	if len(ex.frames) == 0 {
		ex.done = true
		ex.retVal = abi.Errno(abi.EFAULT)
		return nil
	}
	if ic.retSlot >= 0 {
		fr := ex.frames[len(ex.frames)-1]
		if ic.retSlot >= len(fr.regs) {
			return vm.failStop(fmt.Sprintf("corrupt interrupt context: return slot %d outside %d registers of @%s", ic.retSlot, len(fr.regs), fr.fn.Nm), err)
		}
		fr.regs[ic.retSlot] = abi.Errno(abi.EFAULT)
	}
	return nil
}

// gepPlan caches the offset computation of one getelementptr instruction.
type gepPlan struct {
	constOff int64
	// scaled steps: offset += scale * signext(argvalue)
	steps []gepStep
}

type gepStep struct {
	argIdx int
	scale  int64
	bits   int
}

func (vm *VM) gepOffset(fr *Frame, in *ir.Instr) (int64, error) {
	var plan *gepPlan
	if p, ok := vm.eng.gepPlans.Load(in); ok {
		plan = p.(*gepPlan)
	} else {
		var err error
		plan, err = buildGEPPlan(in)
		if err != nil {
			return 0, err
		}
		// Plans are immutable once built; LoadOrStore keeps concurrent
		// builders (the interpreter has no eng.mu serialization)
		// agreeing on one canonical plan.
		got, _ := vm.eng.gepPlans.LoadOrStore(in, plan)
		plan = got.(*gepPlan)
	}
	off := plan.constOff
	for _, s := range plan.steps {
		v, err := vm.eval(fr, in.Args[s.argIdx])
		if err != nil {
			return 0, err
		}
		off += s.scale * ir.SignExtend(v, s.bits)
	}
	return off, nil
}

func buildGEPPlan(in *ir.Instr) (*gepPlan, error) {
	// Every malformed-shape exit below is a GuestFault, not a plain error:
	// GEP types arrive from untrusted bytecode, so a bad plan must be a
	// classified guest outcome (verified modules never hit these).
	var layout ir.Layout
	plan := &gepPlan{}
	cur := in.Args[0].Type() // pointer
	for k := 1; k < len(in.Args); k++ {
		idx := in.Args[k]
		var elem *ir.Type
		if k == 1 {
			if cur.Kind() != ir.PointerKind && cur.Kind() != ir.ArrayKind {
				return nil, &GuestFault{Kind: "getelementptr base is not a pointer"}
			}
			elem = cur.Elem()
		} else {
			switch cur.Kind() {
			case ir.ArrayKind:
				elem = cur.Elem()
			case ir.StructKind:
				ci, ok := idx.(*ir.ConstInt)
				if !ok {
					return nil, &GuestFault{Kind: "getelementptr struct index is not a constant"}
				}
				fi := int(ci.SignedValue())
				off, err := layout.TryFieldOffset(cur, fi)
				if err != nil {
					return nil, &GuestFault{Kind: "getelementptr: " + err.Error()}
				}
				plan.constOff += off
				cur = cur.Field(fi)
				continue
			default:
				return nil, &GuestFault{Kind: fmt.Sprintf("bad getelementptr step into %s", cur)}
			}
		}
		scale, err := layout.TrySize(elem)
		if err != nil {
			return nil, &GuestFault{Kind: "getelementptr: " + err.Error()}
		}
		if ci, ok := idx.(*ir.ConstInt); ok {
			plan.constOff += scale * ci.SignedValue()
		} else {
			if !idx.Type().IsInt() {
				return nil, &GuestFault{Kind: "getelementptr index is not an integer"}
			}
			plan.steps = append(plan.steps, gepStep{argIdx: k, scale: scale, bits: idx.Type().Bits()})
		}
		cur = elem
	}
	return plan, nil
}
