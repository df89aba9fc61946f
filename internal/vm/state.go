package vm

import (
	"fmt"

	"sva/internal/abi"
	"sva/internal/faultinject"
	"sva/internal/hw"
	"sva/internal/ir"
	"sva/internal/telemetry"
)

// This file implements the state-manipulation semantics behind the SVA-OS
// operations (paper §3.3): saved Integer State is an opaque continuation
// keyed by the guest buffer address, and interrupt contexts expose the
// interrupted computation to the kernel without revealing its
// representation.

// HasIntrinsic reports whether a handler is registered for name.
func (vm *VM) HasIntrinsic(name string) bool { return vm.intrinsics[name] != nil }

// SetKStackTop updates the kernel stack pointer used at the next
// user→kernel transition.
func (e *Exec) SetKStackTop(top uint64) { e.kstackTop = top }

// KStackTop returns the execution state's kernel stack top.
func (e *Exec) KStackTop() uint64 { return e.kstackTop }

// Done reports whether the execution state has completed.
func (e *Exec) Done() bool { return e.done }

// RetVal returns the completed execution state's value.
func (e *Exec) RetVal() uint64 { return e.retVal }

// Priv returns the execution state's privilege level.
func (e *Exec) Priv() uint8 { return e.priv }

// Depth returns the frame-stack depth (diagnostics).
func (e *Exec) Depth() int { return len(e.frames) }

// SaveIntegerState snapshots the current continuation under the guest
// buffer address (llva.save.integer).  Execution later resumes at the
// instruction after the save (the pc has already advanced past the call).
func (vm *VM) SaveIntegerState(buf uint64) {
	c := &Continuation{ex: *vm.cur.clone(), retSlot: -1}
	vm.stateMu.Lock()
	vm.savedStates[buf] = c
	vm.stateMu.Unlock()
	// Mirror the live CPU control registers into the machine model.
	vm.CPU.Int.SP = vm.cur.sp
	vm.CPU.Int.Priv = vm.cur.priv
}

// LoadIntegerState installs the continuation saved under buf
// (llva.load.integer).  The saved state remains loadable again.
//
// This is the interrupt-context restore seam: the restored continuation is
// structurally validated before it becomes the current state, so a
// corrupted save (hardware fault, ClassICRestore injection) surfaces as a
// recoverable guest fault in the *current* context rather than installing
// state the interpreter would later index-panic on.
func (vm *VM) LoadIntegerState(buf uint64) error {
	// Clone under the state lock: a sibling VCPU may be retargeting this
	// continuation (set.retval / set.kstack) concurrently.
	vm.stateMu.Lock()
	c := vm.savedStates[buf]
	var restored *Exec
	if c != nil {
		restored = c.ex.clone()
	}
	vm.stateMu.Unlock()
	if restored == nil {
		return &GuestFault{Kind: "load.integer of buffer with no saved state", Addr: buf}
	}
	if vm.chaos != nil && vm.chaos.Should(faultinject.ClassICRestore) {
		vm.corruptRestore(restored)
	}
	if err := validateExec(restored); err != nil {
		return err
	}
	vm.cur = restored
	vm.CPU.Int.SP = vm.cur.sp
	vm.CPU.Int.Priv = vm.cur.priv
	return nil
}

// corruptRestore is the ClassICRestore injection payload: damage one field
// of a continuation about to be installed, the way a flipped bit in the
// SVM's saved-state memory would.
func (vm *VM) corruptRestore(e *Exec) {
	mode := vm.chaos.Rand(4)
	switch mode {
	case 0:
		bit := 16 + vm.chaos.Rand(16)
		e.sp ^= 1 << bit
		vm.chaos.Note("state.restore", "flip sp bit %d -> %#x", bit, e.sp)
	case 1:
		e.priv |= 4 // structurally invalid privilege: validation rejects it
		vm.chaos.Note("state.restore", "corrupt privilege -> %d", e.priv)
	case 2:
		if len(e.ics) > 0 {
			k := vm.chaos.Rand(uint64(len(e.ics)))
			skew := int(1 + vm.chaos.Rand(8))
			e.ics[k].frameIdx += skew
			vm.chaos.Note("state.restore", "skew ic %d frameIdx by %d", k, skew)
		} else {
			e.sp ^= 1 << (20 + vm.chaos.Rand(8))
			vm.chaos.Note("state.restore", "flip sp (no ics) -> %#x", e.sp)
		}
	case 3:
		if len(e.frames) > 1 {
			k := 1 + vm.chaos.Rand(uint64(len(e.frames)-1))
			e.frames[k].retTo += int(1 + vm.chaos.Rand(1<<16))
			vm.chaos.Note("state.restore", "skew frame %d retTo -> %d", k, e.frames[k].retTo)
		} else {
			e.priv |= 4
			vm.chaos.Note("state.restore", "corrupt privilege (single frame) -> %d", e.priv)
		}
	}
}

// validateExec structurally validates a continuation before installation:
// every index the interpreter will later trust must be in range and the
// privilege level must be one the architecture defines.  A violation is a
// recoverable guest fault ("corrupted integer state").
func validateExec(e *Exec) error {
	if len(e.frames) == 0 && !e.done {
		return &GuestFault{Kind: "corrupted integer state: empty frame stack"}
	}
	if e.priv != hw.PrivKernel && e.priv != hw.PrivUser {
		return &GuestFault{Kind: fmt.Sprintf("corrupted integer state: privilege %d", e.priv)}
	}
	for i, f := range e.frames {
		if f.fn == nil || f.block < 0 || f.idx < 0 {
			return &GuestFault{Kind: fmt.Sprintf("corrupted integer state: frame %d malformed", i)}
		}
		if f.retTo >= 0 && i > 0 && f.retTo >= len(e.frames[i-1].regs) {
			return &GuestFault{Kind: fmt.Sprintf("corrupted integer state: frame %d return slot %d out of range", i, f.retTo)}
		}
	}
	for i, ic := range e.ics {
		if ic.frameIdx < 0 || ic.frameIdx > len(e.frames) {
			return &GuestFault{Kind: fmt.Sprintf("corrupted integer state: ic %d frame index %d outside stack of %d", i, ic.frameIdx, len(e.frames))}
		}
		if ic.retSlot >= 0 && ic.frameIdx > 0 && ic.retSlot >= len(e.frames[ic.frameIdx-1].regs) {
			return &GuestFault{Kind: fmt.Sprintf("corrupted integer state: ic %d return slot %d out of range", i, ic.retSlot)}
		}
	}
	return nil
}

// SaveFPState implements llva.save.fp's lazy protocol: with always==false
// the state is only saved if it changed since the last load.
func (vm *VM) SaveFPState(buf uint64, always bool) {
	if !always && !vm.CPU.FP.Dirty {
		return
	}
	vm.stateMu.Lock()
	vm.savedFP[buf] = vm.CPU.FP
	vm.stateMu.Unlock()
	vm.CPU.FP.Dirty = false
}

// LoadFPState implements llva.load.fp.
func (vm *VM) LoadFPState(buf uint64) {
	vm.stateMu.Lock()
	s, ok := vm.savedFP[buf]
	vm.stateMu.Unlock()
	if ok {
		vm.CPU.FP = s
		vm.CPU.FP.Dirty = false
	}
}

// IContextSaveState copies an interrupt context's interrupted computation
// into a saved Integer State buffer (llva.icontext.save).  This is how the
// kernel forks: the child's state is a copy of the parent's user context.
func (vm *VM) IContextSaveState(icp, isp uint64) error {
	ic, err := vm.icontext(icp)
	if err != nil {
		return err
	}
	ex := vm.cur
	c := &Exec{
		sp:        ic.savedSP,
		priv:      ic.savedPriv,
		kstackTop: ex.kstackTop,
	}
	// Bulk-copy the interrupted frames: one Frame array and one word arena
	// (full-cap slices, so appends copy out) instead of three allocations
	// per frame.  Fork saves state once per trap, making this the hottest
	// copy in process creation.
	words := 0
	for _, f := range ex.frames[:ic.frameIdx] {
		words += len(f.regs) + len(f.params)
	}
	arena := make([]uint64, words)
	backing := make([]Frame, ic.frameIdx)
	c.frames = make([]*Frame, ic.frameIdx)
	for i, f := range ex.frames[:ic.frameIdx] {
		nf := &backing[i]
		*nf = *f
		nr, np := len(f.regs), len(f.params)
		nf.regs = arena[:nr:nr]
		arena = arena[nr:]
		nf.params = arena[:np:np]
		arena = arena[np:]
		copy(nf.regs, f.regs)
		copy(nf.params, f.params)
		c.frames[i] = nf
	}
	// Interrupt contexts nested beneath this one belong to the interrupted
	// computation.
	for _, nic := range ex.ics[:icp-1] {
		cp := *nic
		cp.pending = append([]pendingCall(nil), nic.pending...)
		c.ics = append(c.ics, &cp)
	}
	vm.stateMu.Lock()
	vm.savedStates[isp] = &Continuation{ex: *c, retSlot: ic.retSlot}
	vm.stateMu.Unlock()
	return nil
}

// IContextLoadState replaces an interrupt context's interrupted computation
// with a previously saved Integer State (llva.icontext.load) — the
// mechanism beneath sigreturn.
func (vm *VM) IContextLoadState(icp, isp uint64) error {
	ic, err := vm.icontext(icp)
	if err != nil {
		return err
	}
	vm.stateMu.Lock()
	c := vm.savedStates[isp]
	var restored *Exec
	var restoredRetSlot int
	if c != nil {
		restored = c.ex.clone()
		restoredRetSlot = c.retSlot
	}
	vm.stateMu.Unlock()
	if restored == nil {
		return &GuestFault{Kind: "icontext.load of buffer with no saved state", Addr: isp}
	}
	ex := vm.cur
	newFrames := append([]*Frame{}, restored.frames...)
	newFrames = append(newFrames, ex.frames[ic.frameIdx:]...)
	// Adjust the boundary and saved registers of this icontext.
	delta := len(restored.frames) - ic.frameIdx
	ic.frameIdx = len(restored.frames)
	ic.savedSP = restored.sp
	ic.savedPriv = restored.priv
	ic.retSlot = restoredRetSlot
	ex.frames = newFrames
	// Re-point the in-flight trap's result at the restored context's
	// pending slot.
	if len(newFrames) > ic.frameIdx {
		ex.frames[ic.frameIdx].retTo = restoredRetSlot
	}
	// Fix frame boundaries of any icontexts above this one.
	for i := int(icp); i < len(ex.ics); i++ {
		ex.ics[i].frameIdx += delta
	}
	return nil
}

// IContextCommit commits the entire interrupt context to memory
// (llva.icontext.commit).  In this VM saved state already lives in SVM
// memory, so commit only validates the handle; the operation exists so the
// ported kernel has the same structure as the paper's.
func (vm *VM) IContextCommit(icp uint64) error {
	_, err := vm.icontext(icp)
	return err
}

// IContextPushFunction arranges for fn(args...) to run in the interrupted
// context when it resumes (llva.ipush.function) — signal-handler dispatch.
func (vm *VM) IContextPushFunction(icp, fnAddr uint64, args []uint64) error {
	ic, err := vm.icontext(icp)
	if err != nil {
		return err
	}
	f := vm.addrFunc[fnAddr]
	if f == nil {
		return &GuestFault{Kind: "ipush.function of non-function address", Addr: fnAddr}
	}
	want := len(f.Params)
	if want > len(args) {
		return fmt.Errorf("vm: ipush.function @%s wants %d args, got %d", f.Nm, want, len(args))
	}
	ic.pending = append(ic.pending, pendingCall{fn: f, args: append([]uint64(nil), args[:want]...)})
	return nil
}

// IContextWasPrivileged reports whether the interrupted context ran in
// kernel mode (llva.was.privileged).
func (vm *VM) IContextWasPrivileged(icp uint64) (uint64, error) {
	ic, err := vm.icontext(icp)
	if err != nil {
		return 0, err
	}
	if ic.savedPriv == hw.PrivKernel {
		return 1, nil
	}
	return 0, nil
}

// SetSavedRetval overwrites the trap return value inside a saved Integer
// State (the fork child's "return 0").
func (vm *VM) SetSavedRetval(isp, val uint64) error {
	vm.stateMu.Lock()
	defer vm.stateMu.Unlock()
	c := vm.savedStates[isp]
	if c == nil {
		return &GuestFault{Kind: "set.retval of buffer with no saved state", Addr: isp}
	}
	if c.retSlot < 0 || len(c.ex.frames) == 0 {
		return &GuestFault{Kind: "set.retval of state with no pending trap result", Addr: isp}
	}
	top := c.ex.frames[len(c.ex.frames)-1]
	if c.retSlot >= len(top.regs) {
		return &GuestFault{Kind: "set.retval slot outside saved frame registers", Addr: isp}
	}
	top.regs[c.retSlot] = val
	return nil
}

// SetSavedKStack overwrites the kernel-stack top inside a saved Integer
// State (llva.state.set.kstack), so a forked child traps onto its own
// kernel stack.
func (vm *VM) SetSavedKStack(isp, top uint64) error {
	vm.stateMu.Lock()
	defer vm.stateMu.Unlock()
	c := vm.savedStates[isp]
	if c == nil {
		return &GuestFault{Kind: "state.set.kstack of buffer with no saved state", Addr: isp}
	}
	c.ex.kstackTop = top
	return nil
}

// SetSavedUStack redirects the saved continuation's stack pointer
// (llva.state.set.stack): future stack allocations of the resumed context
// come from the new region.
func (vm *VM) SetSavedUStack(isp, sp uint64) error {
	vm.stateMu.Lock()
	defer vm.stateMu.Unlock()
	c := vm.savedStates[isp]
	if c == nil {
		return &GuestFault{Kind: "state.set.stack of buffer with no saved state", Addr: isp}
	}
	c.ex.sp = sp
	return nil
}

// TrapEnter implements the user/kernel trap (sva.trap): it locates the
// registered syscall handler and instructs the stepper to invoke it inside
// a fresh interrupt context.
func (vm *VM) TrapEnter(num int64, args []uint64) (IntrinsicResult, error) {
	vm.CPU.Cycles += cycTrap
	var h *ir.Function
	if un := uint64(num); un < denseSyscalls {
		vm.syscallCountsDense[un]++
		if h = vm.syscallsDense[un]; h == nil {
			// Registered after this VCPU was cloned: the shared map is
			// authoritative.
			h = vm.syscalls[num]
		}
	} else {
		vm.syscallCounts[num]++
		h = vm.syscalls[num]
	}
	if vm.trace != nil {
		vm.trace.Emit(telemetry.EvTrapEnter, "syscall", []uint64{uint64(num)}, "")
	}
	if h == nil {
		return IntrinsicResult{Value: abi.Errno(abi.ENOSYS)}, nil
	}
	// On kernel entry the SVM spills the control state that the kernel
	// will overwrite onto the kernel stack (§3.3).  The native-port
	// configuration models hand-written assembly that avoids the generic
	// spill.
	if vm.Cfg != ConfigNative {
		var buf [hw.IntegerStateSize]byte
		vm.CPU.Int.Encode(buf[:])
		spill := vm.cur.kstackTop
		if spill == 0 {
			spill = vm.cur.sp
		}
		_ = vm.Mach.Phys.WriteAt(spill-hw.IntegerStateSize, buf[:])
		vm.CPU.Cycles += CycTrapSpill
	}
	// The handler receives the icontext handle it will have after entry,
	// followed by the six trap arguments.  The buffer is per-VCPU scratch:
	// the stepper copies PushArgs into the handler frame's params before
	// the next trap can run.
	icp := uint64(len(vm.cur.ics) + 1)
	if cap(vm.hargs) < len(h.Params)+len(args)+1 {
		vm.hargs = make([]uint64, 0, len(h.Params)+len(args)+1)
	}
	hargs := vm.hargs[:0]
	hargs = append(hargs, icp)
	hargs = append(hargs, args...)
	for len(hargs) < len(h.Params) {
		hargs = append(hargs, 0)
	}
	return IntrinsicResult{Push: h, PushArgs: hargs[:len(h.Params)], PushIC: true}, nil
}

// firstParam is the parameter list of an entry call fn(arg): arg in the
// first slot, if fn has one, and zero in the rest.
func firstParam(f *ir.Function, arg uint64) []uint64 {
	params := make([]uint64, len(f.Params))
	if len(params) > 0 {
		params[0] = arg
	}
	return params
}

// InitState fabricates a fresh saved Integer State that, when loaded, runs
// fn(arg) on the given kernel stack (sva.init.state) — the mechanism
// beneath kernel-thread creation / copy_thread.
func (vm *VM) InitState(buf, fnAddr, arg, kstackTop uint64) error {
	f := vm.addrFunc[fnAddr]
	if f == nil {
		return &GuestFault{Kind: "init.state of non-function address", Addr: fnAddr}
	}
	if f.IsDecl() {
		return &GuestFault{Kind: "init.state of body-less function", Addr: fnAddr}
	}
	ex := &Exec{sp: kstackTop, priv: hw.PrivKernel, kstackTop: kstackTop}
	ex.frames = append(ex.frames, vm.entryFrame(f, firstParam(f, arg), kstackTop))
	vm.stateMu.Lock()
	vm.savedStates[buf] = &Continuation{ex: *ex, retSlot: -1}
	vm.stateMu.Unlock()
	return nil
}

// InitUserState fabricates a fresh saved Integer State that, when loaded,
// runs fn(arg) in *user* mode on the given user stack, trapping onto the
// given kernel stack (sva.init.user.state).  This is the SMP dispatch
// primitive: a scheduler on any virtual CPU materializes a runnable user
// process directly, without forking it from an existing context the way
// sva.init.state + icontext surgery would require.
func (vm *VM) InitUserState(buf, fnAddr, arg, ustackTop, kstackTop uint64) error {
	f := vm.addrFunc[fnAddr]
	if f == nil {
		return &GuestFault{Kind: "init.user.state of non-function address", Addr: fnAddr}
	}
	if f.IsDecl() {
		return &GuestFault{Kind: "init.user.state of body-less function", Addr: fnAddr}
	}
	ex := &Exec{sp: ustackTop, priv: hw.PrivUser, kstackTop: kstackTop}
	ex.frames = append(ex.frames, vm.entryFrame(f, firstParam(f, arg), ustackTop))
	vm.stateMu.Lock()
	vm.savedStates[buf] = &Continuation{ex: *ex, retSlot: -1}
	vm.stateMu.Unlock()
	return nil
}

// ExecState replaces the computation interrupted by icontext icp with a
// fresh user-mode call to fn(arg) on a new user stack (sva.exec.state) —
// the mechanism beneath execve.
func (vm *VM) ExecState(icp, fnAddr, arg, ustackTop uint64) error {
	ic, err := vm.icontext(icp)
	if err != nil {
		return err
	}
	if int(icp) != len(vm.cur.ics) {
		return &GuestFault{Kind: "exec.state on non-innermost interrupt context"}
	}
	f := vm.addrFunc[fnAddr]
	if f == nil || f.IsDecl() {
		return &GuestFault{Kind: "exec.state of bad entry address", Addr: fnAddr}
	}
	ex := vm.cur
	kept := append([]*Frame{vm.entryFrame(f, firstParam(f, arg), ustackTop)}, ex.frames[ic.frameIdx:]...)
	delta := 1 - ic.frameIdx
	ex.frames = kept
	// The in-flight trap no longer has a result slot in the (replaced)
	// interrupted frame.
	if len(kept) > 1 {
		kept[1].retTo = -1
	}
	ic.frameIdx = 1
	ic.savedSP = ustackTop
	ic.savedPriv = hw.PrivUser
	ic.retSlot = -1
	ic.pending = nil
	for i := int(icp); i < len(ex.ics); i++ {
		ex.ics[i].frameIdx += delta
	}
	return nil
}
