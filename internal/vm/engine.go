package vm

import (
	"fmt"
	"math"

	"sva/internal/hw"
	"sva/internal/ir"
)

// This file is the direct-threaded execution engine (the run-time half of
// the §3.4 bytecode→native translation).  compileInstr turns one verified
// instruction into a Go closure with every decision the interpreter makes
// per step — operand lowering, type sizes, GEP plans, branch targets and
// phi moves, intrinsic handler binding — resolved once at translate time.
// runEngine then dispatches closure-to-closure for as long as the top
// frame is translated, trapping back to the interpreter (vm.step) for the
// rare instructions compileInstr declines (nil closure).  Every config
// runs here; what the config changes is the virtual cost (gccDelta), not
// the executor.
//
// The interpreter remains the engine's oracle: every closure replicates
// the exec switch's semantics bit for bit — same virtual cycle charges,
// same counters, same fault values, same recovery-ladder routing — so an
// engine-on system and an engine-off twin are indistinguishable to the
// guest, to telemetry and to the exploit batteries (the equivalence suite
// in internal/exploits pins this).  Closures are shared by every VCPU of
// the machine, so they capture only immutable translate-time data and act
// on the VM passed at dispatch.

// threadedOp executes one translated instruction.
type threadedOp func(vm *VM, ex *Exec, fr *Frame) error

// phiMove is one pre-resolved phi assignment on a block edge.
type phiMove struct {
	dst int
	src coperand
}

// blockEdge is a pre-resolved branch target: block index, first
// non-phi instruction index, and the phi moves the edge performs.
type blockEdge struct {
	target int
	start  int
	moves  []phiMove
}

// enter transfers control along the edge (the compiled enterBlock).
// Phi moves are two-phase — reads complete before writes begin — through
// a stack buffer so the closure stays free of captured mutable state.
func (e *blockEdge) enter(fr *Frame) {
	if n := len(e.moves); n > 0 {
		var stk [8]uint64
		buf := stk[:]
		if n > len(stk) {
			buf = make([]uint64, n)
		}
		for i, m := range e.moves {
			buf[i] = fr.fastEval(m.src)
		}
		for i, m := range e.moves {
			fr.regs[m.dst] = buf[i]
		}
	}
	fr.prev = fr.block
	fr.block = e.target
	fr.idx = e.start
}

// compileEdge pre-resolves the edge from f.Blocks[fromBi] to target,
// pulling phi operands out of the already-lowered cf.ops.  A nil return
// means the edge cannot be proven well-formed at translate time (foreign
// block, missing phi entry); the branch then stays on the interpreter,
// which raises the exact diagnostic at run time.
func compileEdge(f *ir.Function, cf *compiledFunc, fromBi int, target *ir.BasicBlock) *blockEdge {
	ti, ok := meta(f).blockIdx[target]
	if !ok {
		return nil
	}
	cur := f.Blocks[fromBi]
	var moves []phiMove
	for pi, in := range target.Instrs {
		if in.Op != ir.OpPhi {
			break
		}
		found := false
		for i, pb := range in.Blocks {
			if pb == cur {
				moves = append(moves, phiMove{dst: in.Num(), src: cf.ops[ti][pi][i]})
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	return &blockEdge{target: ti, start: len(moves), moves: moves}
}

// switchCase is one pre-resolved switch arm.
type switchCase struct {
	val  uint64
	edge *blockEdge
}

// compileInstr compiles one instruction to a threaded closure, or returns
// nil to leave it on the interpreter (the fallback is always correct: the
// engine runs vm.step for nil entries).
func (vm *VM) compileInstr(f *ir.Function, cf *compiledFunc, bi int, in *ir.Instr, ops []coperand, plans map[*ir.Instr]*gepPlan) threadedOp {
	var layout ir.Layout
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpLShr, ir.OpAShr:
		dst, bits, a, b := in.Num(), in.Typ.Bits(), ops[0], ops[1]
		switch in.Op {
		case ir.OpAdd:
			return func(vm *VM, ex *Exec, fr *Frame) error {
				fr.regs[dst] = ir.Truncate(fr.fastEval(a)+fr.fastEval(b), bits)
				return nil
			}
		case ir.OpSub:
			return func(vm *VM, ex *Exec, fr *Frame) error {
				fr.regs[dst] = ir.Truncate(fr.fastEval(a)-fr.fastEval(b), bits)
				return nil
			}
		case ir.OpMul:
			return func(vm *VM, ex *Exec, fr *Frame) error {
				fr.regs[dst] = ir.Truncate(fr.fastEval(a)*fr.fastEval(b), bits)
				return nil
			}
		case ir.OpAnd:
			return func(vm *VM, ex *Exec, fr *Frame) error {
				fr.regs[dst] = ir.Truncate(fr.fastEval(a)&fr.fastEval(b), bits)
				return nil
			}
		case ir.OpOr:
			return func(vm *VM, ex *Exec, fr *Frame) error {
				fr.regs[dst] = ir.Truncate(fr.fastEval(a)|fr.fastEval(b), bits)
				return nil
			}
		case ir.OpXor:
			return func(vm *VM, ex *Exec, fr *Frame) error {
				fr.regs[dst] = ir.Truncate(fr.fastEval(a)^fr.fastEval(b), bits)
				return nil
			}
		case ir.OpShl:
			return func(vm *VM, ex *Exec, fr *Frame) error {
				fr.regs[dst] = ir.Truncate(fr.fastEval(a)<<(fr.fastEval(b)&63), bits)
				return nil
			}
		case ir.OpLShr:
			return func(vm *VM, ex *Exec, fr *Frame) error {
				fr.regs[dst] = ir.Truncate(fr.fastEval(a)>>(fr.fastEval(b)&63), bits)
				return nil
			}
		default: // ir.OpAShr
			return func(vm *VM, ex *Exec, fr *Frame) error {
				fr.regs[dst] = ir.Truncate(uint64(ir.SignExtend(fr.fastEval(a), bits)>>(fr.fastEval(b)&63)), bits)
				return nil
			}
		}

	case ir.OpUDiv, ir.OpSDiv, ir.OpURem, ir.OpSRem:
		// Division shares evalIntBinop so the division-by-zero fault is
		// the interpreter's, object for object.
		opc, dst, bits, a, b := in.Op, in.Num(), in.Typ.Bits(), ops[0], ops[1]
		return func(vm *VM, ex *Exec, fr *Frame) error {
			v, err := evalIntBinop(opc, fr.fastEval(a), fr.fastEval(b), bits)
			if err != nil {
				return err
			}
			fr.regs[dst] = v
			return nil
		}

	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		opc, dst, a, b := in.Op, in.Num(), ops[0], ops[1]
		return func(vm *VM, ex *Exec, fr *Frame) error {
			fx := math.Float64frombits(fr.fastEval(a))
			fy := math.Float64frombits(fr.fastEval(b))
			var r float64
			switch opc {
			case ir.OpFAdd:
				r = fx + fy
			case ir.OpFSub:
				r = fx - fy
			case ir.OpFMul:
				r = fx * fy
			default:
				r = fx / fy
			}
			fr.regs[dst] = math.Float64bits(r)
			vm.CPU.FP.Dirty = true
			return nil
		}

	case ir.OpICmp:
		dst, pred, a, b := in.Num(), in.Pred, ops[0], ops[1]
		bits := 64
		if in.Args[0].Type().IsInt() {
			bits = in.Args[0].Type().Bits()
		}
		return func(vm *VM, ex *Exec, fr *Frame) error {
			fr.regs[dst] = boolVal(evalICmp(pred, fr.fastEval(a), fr.fastEval(b), bits))
			return nil
		}

	case ir.OpFCmp:
		dst, pred, a, b := in.Num(), in.Pred, ops[0], ops[1]
		return func(vm *VM, ex *Exec, fr *Frame) error {
			fr.regs[dst] = boolVal(evalFCmp(pred, math.Float64frombits(fr.fastEval(a)), math.Float64frombits(fr.fastEval(b))))
			return nil
		}

	case ir.OpBr:
		e := compileEdge(f, cf, bi, in.Blocks[0])
		if e == nil {
			return nil
		}
		return func(vm *VM, ex *Exec, fr *Frame) error {
			e.enter(fr)
			return nil
		}

	case ir.OpCondBr:
		et := compileEdge(f, cf, bi, in.Blocks[0])
		ef := compileEdge(f, cf, bi, in.Blocks[1])
		if et == nil || ef == nil {
			return nil
		}
		c := ops[0]
		return func(vm *VM, ex *Exec, fr *Frame) error {
			if fr.fastEval(c)&1 != 0 {
				et.enter(fr)
			} else {
				ef.enter(fr)
			}
			return nil
		}

	case ir.OpSwitch:
		def := compileEdge(f, cf, bi, in.Blocks[0])
		if def == nil {
			return nil
		}
		cases := make([]switchCase, 0, len(in.Args)-1)
		for i := 1; i < len(in.Args); i++ {
			ci, ok := in.Args[i].(*ir.ConstInt)
			if !ok {
				return nil // non-constant case: interpreter raises the fault
			}
			e := compileEdge(f, cf, bi, in.Blocks[i])
			if e == nil {
				return nil
			}
			cases = append(cases, switchCase{val: ci.V, edge: e})
		}
		sel := ops[0]
		return func(vm *VM, ex *Exec, fr *Frame) error {
			v := fr.fastEval(sel)
			for _, c := range cases {
				if c.val == v {
					c.edge.enter(fr)
					return nil
				}
			}
			def.enter(fr)
			return nil
		}

	case ir.OpRet:
		if len(in.Args) == 1 {
			a := ops[0]
			return func(vm *VM, ex *Exec, fr *Frame) error {
				return vm.popFrame(fr.fastEval(a))
			}
		}
		return func(vm *VM, ex *Exec, fr *Frame) error {
			return vm.popFrame(0)
		}

	case ir.OpUnreachable:
		return func(vm *VM, ex *Exec, fr *Frame) error {
			return &GuestFault{Kind: "unreachable executed", PC: fr.fn.Nm}
		}

	case ir.OpAlloca:
		elemSz, lerr := layout.TrySize(in.AllocTy)
		if lerr != nil {
			return nil // interpreter raises the malformed-type fault
		}
		dst := in.Num()
		var cnt coperand
		hasCount := len(in.Args) == 1
		if hasCount {
			cnt = ops[0]
		}
		return func(vm *VM, ex *Exec, fr *Frame) error {
			count := uint64(1)
			if hasCount {
				count = fr.fastEval(cnt)
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
			fr.regs[dst] = addr
			return nil
		}

	case ir.OpLoad:
		sz, lerr := layout.TrySize(in.Typ)
		if lerr != nil {
			return nil
		}
		dst, p, size := in.Num(), ops[0], int(sz)
		return func(vm *VM, ex *Exec, fr *Frame) error {
			v, err := vm.memLoad(fr.fastEval(p), size)
			if err != nil {
				return err
			}
			fr.regs[dst] = v
			return nil
		}

	case ir.OpStore:
		sz, lerr := layout.TrySize(in.Args[0].Type())
		if lerr != nil {
			return nil
		}
		v, p, size := ops[0], ops[1], int(sz)
		return func(vm *VM, ex *Exec, fr *Frame) error {
			return vm.memStore(fr.fastEval(p), fr.fastEval(v), size)
		}

	case ir.OpGEP:
		plan := plans[in]
		if plan == nil {
			if p, ok := vm.eng.gepPlans.Load(in); ok {
				plan = p.(*gepPlan)
			}
		}
		if plan == nil {
			return nil
		}
		dst, base := in.Num(), ops[0]
		if len(plan.steps) == 0 {
			off := uint64(plan.constOff)
			return func(vm *VM, ex *Exec, fr *Frame) error {
				fr.regs[dst] = fr.fastEval(base) + off
				return nil
			}
		}
		// Pair each scaled step with its pre-lowered index operand.
		stepOps := make([]coperand, len(plan.steps))
		for i, s := range plan.steps {
			stepOps[i] = ops[s.argIdx]
		}
		steps, constOff := plan.steps, plan.constOff
		return func(vm *VM, ex *Exec, fr *Frame) error {
			off := constOff
			for i, s := range steps {
				off += s.scale * ir.SignExtend(fr.fastEval(stepOps[i]), s.bits)
			}
			fr.regs[dst] = fr.fastEval(base) + uint64(off)
			return nil
		}

	case ir.OpCall:
		return vm.compileCall(in, ops)

	case ir.OpTrunc, ir.OpPtrToInt:
		dst, bits, a := in.Num(), in.Typ.Bits(), ops[0]
		return func(vm *VM, ex *Exec, fr *Frame) error {
			fr.regs[dst] = ir.Truncate(fr.fastEval(a), bits)
			return nil
		}
	case ir.OpZExt, ir.OpIntToPtr, ir.OpBitcast:
		dst, a := in.Num(), ops[0]
		return func(vm *VM, ex *Exec, fr *Frame) error {
			fr.regs[dst] = fr.fastEval(a) // invariant: already truncated
			return nil
		}
	case ir.OpSExt:
		dst, srcBits, dstBits, a := in.Num(), in.Args[0].Type().Bits(), in.Typ.Bits(), ops[0]
		return func(vm *VM, ex *Exec, fr *Frame) error {
			fr.regs[dst] = ir.Truncate(uint64(ir.SignExtend(fr.fastEval(a), srcBits)), dstBits)
			return nil
		}
	case ir.OpSIToFP:
		dst, srcBits, a := in.Num(), in.Args[0].Type().Bits(), ops[0]
		return func(vm *VM, ex *Exec, fr *Frame) error {
			fr.regs[dst] = math.Float64bits(float64(ir.SignExtend(fr.fastEval(a), srcBits)))
			return nil
		}
	case ir.OpFPToSI:
		dst, bits, a := in.Num(), in.Typ.Bits(), ops[0]
		return func(vm *VM, ex *Exec, fr *Frame) error {
			fr.regs[dst] = ir.Truncate(uint64(int64(math.Float64frombits(fr.fastEval(a)))), bits)
			return nil
		}

	case ir.OpSelect:
		dst, c, a, b := in.Num(), ops[0], ops[1], ops[2]
		return func(vm *VM, ex *Exec, fr *Frame) error {
			if fr.fastEval(c)&1 != 0 {
				fr.regs[dst] = fr.fastEval(a)
			} else {
				fr.regs[dst] = fr.fastEval(b)
			}
			return nil
		}

	case ir.OpCmpXchg:
		sz, lerr := layout.TrySize(in.Typ)
		if lerr != nil {
			return nil
		}
		dst, p, exp, repl, size := in.Num(), ops[0], ops[1], ops[2], int(sz)
		return func(vm *VM, ex *Exec, fr *Frame) error {
			// Guest-atomic across VCPUs: same mutex as the interpreter.
			if vm.shared != nil {
				vm.shared.atomics.Lock()
			}
			old, err := vm.memLoad(fr.fastEval(p), size)
			if err == nil && old == fr.fastEval(exp) {
				err = vm.memStore(fr.fastEval(p), fr.fastEval(repl), size)
			}
			if vm.shared != nil {
				vm.shared.atomics.Unlock()
			}
			if err != nil {
				return err
			}
			fr.regs[dst] = old
			return nil
		}

	case ir.OpAtomicRMW:
		sz, lerr := layout.TrySize(in.Typ)
		if lerr != nil {
			return nil
		}
		dst, rmw, bits, p, v, size := in.Num(), in.RMW, in.Typ.Bits(), ops[0], ops[1], int(sz)
		return func(vm *VM, ex *Exec, fr *Frame) error {
			addr, val := fr.fastEval(p), fr.fastEval(v)
			if vm.shared != nil {
				vm.shared.atomics.Lock()
			}
			old, err := vm.memLoad(addr, size)
			if err == nil {
				var nv uint64
				switch rmw {
				case ir.RMWAdd:
					nv = old + val
				case ir.RMWSub:
					nv = old - val
				case ir.RMWXchg:
					nv = val
				case ir.RMWAnd:
					nv = old & val
				case ir.RMWOr:
					nv = old | val
				}
				err = vm.memStore(addr, ir.Truncate(nv, bits), size)
			}
			if vm.shared != nil {
				vm.shared.atomics.Unlock()
			}
			if err != nil {
				return err
			}
			fr.regs[dst] = old
			return nil
		}

	case ir.OpFence:
		return func(vm *VM, ex *Exec, fr *Frame) error { return nil }
	}
	// Phi (skipped by enterBlock; direct execution is an interpreter
	// diagnostic) and any future opcode: interpreter.
	return nil
}

// compileCall compiles direct and indirect calls.  Calls to handlerless
// intrinsics and calls to body-less externals stay on the interpreter.
func (vm *VM) compileCall(in *ir.Instr, ops []coperand) threadedOp {
	retTo := -1
	if !in.Typ.IsVoid() {
		retTo = in.Num()
	}
	argOps := ops
	callee, ok := in.Callee.(*ir.Function)
	if !ok {
		// Indirect call: pre-lower the callee operand, resolve the target
		// per dispatch.  Mirrors execCall's sequence exactly — Calls++,
		// depth check, resolve (the call-set check), argument evaluation,
		// then the intrinsic / body-less / direct cases.
		calleeOp, err := vm.lowerOperand(in.Callee)
		if err != nil {
			return nil
		}
		return func(vm *VM, ex *Exec, fr *Frame) error {
			vm.Counters.Calls++
			if len(ex.frames) >= MaxFrames {
				return &GuestFault{Kind: "call stack overflow (runaway recursion)", PC: fr.fn.Nm}
			}
			addr := fr.fastEval(calleeOp)
			callee := vm.addrFunc[addr]
			if callee == nil {
				return &GuestFault{Kind: "indirect call to non-function address", Addr: addr, PC: fr.fn.Nm}
			}
			args := vm.argScratch(len(argOps))
			for i, op := range argOps {
				args[i] = fr.fastEval(op)
			}
			if callee.Intrinsic {
				vm.Counters.Intrinsics++
				h := vm.intrinsics[callee.Nm]
				if h == nil {
					return fmt.Errorf("vm: unknown intrinsic @%s", callee.Nm)
				}
				var res IntrinsicResult
				var err error
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
			vm.pushCall(callee, args, retTo, false)
			return nil
		}
	}
	if callee.Intrinsic {
		boundH := vm.intrinsics[callee.Nm]
		if boundH == nil {
			return nil // not registered yet: interpreter (or later rebind)
		}
		name := callee.Nm
		boundGen := vm.eng.intrGen.Load()
		return func(vm *VM, ex *Exec, fr *Frame) error {
			vm.Counters.Calls++
			if len(ex.frames) >= MaxFrames {
				return &GuestFault{Kind: "call stack overflow (runaway recursion)", PC: fr.fn.Nm}
			}
			args := vm.argScratch(len(argOps))
			for i, op := range argOps {
				args[i] = fr.fastEval(op)
			}
			vm.Counters.Intrinsics++
			h := boundH
			if vm.eng.intrGen.Load() != boundGen {
				// The intrinsic table changed after translation: this frame
				// still runs the old compiled form, so resolve through the
				// live table per call.
				h = vm.intrinsics[name]
				if h == nil {
					return fmt.Errorf("vm: unknown intrinsic @%s", name)
				}
			}
			var res IntrinsicResult
			var err error
			if vm.prof != nil || vm.trace != nil {
				res, err = vm.observedIntrinsic(name, h, args)
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
	}
	if callee.IsDecl() {
		return nil // interpreter raises the no-body diagnostic
	}
	return func(vm *VM, ex *Exec, fr *Frame) error {
		vm.Counters.Calls++
		if len(ex.frames) >= MaxFrames {
			return &GuestFault{Kind: "call stack overflow (runaway recursion)", PC: fr.fn.Nm}
		}
		args := vm.argScratch(len(argOps))
		for i, op := range argOps {
			args[i] = fr.fastEval(op)
		}
		vm.pushCall(callee, args, retTo, false)
		return nil
	}
}

// runLeaf is the engine's inner dispatch loop: it retires consecutive
// *leaf* closures (no calls, returns or interpreter traps — see
// compiledFunc.leaf) with every per-step check hoisted out.  The hoisting
// is exact, not approximate: the quota is the distance to the nearest
// event the outer loop must observe — the next interrupt-poll boundary
// (Steps ≡ 0 mod 64), the step budget, and the watchdog trigger — so the
// batch stops on precisely the step where the per-step loop would have
// acted, and Steps/EngineSteps/KSteps/Cycles are flushed in one add.
// Leaf closures cannot change privilege, halt the machine, switch
// executions or touch the frame stack, which is what makes the single
// flush equal to per-step bookkeeping; nothing a leaf op calls reads the
// live counters mid-batch (the fault injector advances its own stream).
// Returns the steps retired and the error of the final closure, if any —
// an erroring step is counted (the interpreter charges counters before
// executing), but a PC that fell off its block is not (stepIn raises that
// before any counter moves, and the outer loop re-detects it).
func (vm *VM) runLeaf(ex *Exec, fr *Frame, cf *compiledFunc) (uint64, error) {
	steps := vm.Counters.Steps
	quota := 64 - (steps & 63)
	if vm.StepBudget != 0 {
		if rem := vm.StepBudget - steps; rem < quota {
			quota = rem
		}
	}
	if vm.WatchdogFuel != 0 && len(ex.ics) > 0 {
		trigger := ex.ics[len(ex.ics)-1].entrySteps + vm.WatchdogFuel + 1
		if trigger <= steps {
			// The watchdog is already due; let the per-step path fire it.
			return 0, nil
		}
		if rem := trigger - steps; rem < quota {
			quota = rem
		}
	}
	kernel := ex.priv == hw.PrivKernel
	thread, leaf, runs := cf.thread, cf.leaf, cf.runs
	var n uint64
	var err error
	// Hoist the per-block slices out of the loop; they reload only when a
	// branch closure moved fr.block.  Straight-line runs (cf.runs) retire
	// back to back with no per-step checks: no closure in a run touches
	// fr.block or fr.idx, so the program counter flushes once per run —
	// or mid-run on the erroring step, keeping fault PCs exact.
	b := fr.block
	if b >= len(thread) {
		return 0, nil
	}
	tb, lb, rb := thread[b], leaf[b], runs[b]
	for n < quota {
		if nb := fr.block; nb != b {
			b = nb
			if b >= len(thread) {
				break
			}
			tb, lb, rb = thread[b], leaf[b], runs[b]
		}
		i := fr.idx
		if i >= len(tb) {
			break // fell off the block: caller re-raises step-wise
		}
		if rl := uint64(rb[i]); rl > 0 {
			if rem := quota - n; rl > rem {
				rl = rem
			}
			for e, op := range tb[i : i+int(rl)] {
				if err = op(vm, ex, fr); err != nil {
					fr.idx = i + e + 1
					n += uint64(e + 1)
					goto flush
				}
			}
			fr.idx = i + int(rl)
			n += rl
			continue
		}
		if !lb[i] {
			if tb[i] == nil {
				break // interpreter fallback: the outer path runs vm.step
			}
			// Compiled call or return: retire it here instead of bouncing
			// through a full outer iteration.  The batch — including this
			// step — flushes BEFORE the closure runs, because the outer
			// step-wise path moves counters first and trap entry snapshots
			// Steps (watchdog fuel) while guests can read Cycles.  The
			// entry privilege still attributes this step correctly: leaf
			// closures never change priv.  Control then returns to the
			// outer loop — the frame stack, privilege or even vm.cur may
			// have changed under us.
			fr.idx = i + 1
			n++
			vm.retire(n, kernel)
			return n, tb[i](vm, ex, fr)
		}
		fr.idx = i + 1
		n++
		if err = tb[i](vm, ex, fr); err != nil {
			break
		}
	}
flush:
	vm.retire(n, kernel)
	return n, err
}

// retire books n steps the engine retired at the given privilege: the
// step counters, one cycle per step, and the config's gcc/llvm delta.
func (vm *VM) retire(n uint64, kernel bool) {
	s := vm.Counters.Steps
	vm.Counters.Steps = s + n
	vm.Counters.EngineSteps += n
	if kernel {
		vm.Counters.KSteps += n
	}
	vm.CPU.Cycles += n + vm.gccDelta(s, n)
}

// runEngine dispatches threaded code for as long as the top frame is
// translated.  It mirrors Run's per-step sequence exactly — same check
// order, same counter and cycle bookkeeping, same recovery routing — and
// returns nil whenever the interpreter should take over (a frame whose
// translation failed, halt, completion, exhausted budget); a non-nil
// return is the error Run must surface.  Host panics under corrupted
// state unwind to Run's recover, the same backstop the interpreter uses.
// Runs of leaf closures go through runLeaf's batched loop; everything
// else — calls, returns, interpreter fallbacks, and every step under an
// attached profiler (ChargeFn attribution is inherently per-step) — takes
// the step-wise path below.
func (vm *VM) runEngine() error {
	for {
		if vm.Halted {
			return nil
		}
		ex := vm.cur
		if ex == nil || ex.done {
			return nil
		}
		if vm.StepBudget != 0 && vm.Counters.Steps >= vm.StepBudget {
			return nil
		}
		fr := ex.frames[len(ex.frames)-1]
		cf := fr.cf
		if cf == nil {
			return nil
		}
		if vm.prof == nil {
			if n, err := vm.runLeaf(ex, fr, cf); n > 0 || err != nil {
				if err != nil {
					if herr := vm.handleGuestError(err); herr != nil {
						return herr
					}
				}
				if vm.WatchdogFuel != 0 {
					if werr := vm.watchdogCheck(); werr != nil {
						if herr := vm.handleGuestError(werr); herr != nil {
							return herr
						}
					}
				}
				if vm.Counters.Steps&0x3F == 0 {
					vm.pollInterrupts()
				}
				continue
			}
		}
		var err error
		if fr.block >= len(cf.thread) || fr.idx >= len(cf.thread[fr.block]) {
			// Raised before any counter moves, exactly like stepIn.
			err = fmt.Errorf("vm: pc fell off block in @%s", fr.fn.Nm)
		} else if top := cf.thread[fr.block][fr.idx]; top == nil {
			err = vm.step() // rare op: one full interpreter step
		} else if vm.prof != nil {
			c0 := vm.CPU.Cycles
			fn := fr.fn.Nm
			caller := ""
			if n := len(ex.frames); n >= 2 {
				caller = ex.frames[n-2].fn.Nm
			}
			fr.idx++
			vm.retire(1, ex.priv == hw.PrivKernel)
			err = top(vm, ex, fr)
			vm.prof.ChargeFn(fn, caller, vm.CPU.Cycles-c0)
		} else {
			fr.idx++
			vm.retire(1, ex.priv == hw.PrivKernel)
			err = top(vm, ex, fr)
		}
		if err != nil {
			if herr := vm.handleGuestError(err); herr != nil {
				return herr
			}
		}
		if vm.WatchdogFuel != 0 {
			if werr := vm.watchdogCheck(); werr != nil {
				if herr := vm.handleGuestError(werr); herr != nil {
					return herr
				}
			}
		}
		if vm.Counters.Steps&0x3F == 0 {
			vm.pollInterrupts()
		}
	}
}
