package vm

import (
	"sva/internal/svaops"
	"sva/internal/telemetry"
)

// This file wires the VM into the telemetry subsystem.  Profiling and
// tracing are strictly observational: they never charge cycles or alter
// guest-visible state, so enabling them leaves every program result, trap
// verdict and cycle count bit-identical (the telemetry-off invariance
// property the tests pin).

// EnableProfiling attaches a fresh virtual-cycle profiler and returns it.
// While enabled, every charged cycle is attributed to the guest function
// (and SVA operation) executing when the charge landed.
func (vm *VM) EnableProfiling() *telemetry.Profiler {
	vm.prof = telemetry.NewProfiler()
	return vm.prof
}

// DisableProfiling detaches the profiler, restoring the unobserved step
// path.
func (vm *VM) DisableProfiling() { vm.prof = nil }

// Profiler returns the attached profiler (nil when profiling is off).
func (vm *VM) Profiler() *telemetry.Profiler { return vm.prof }

// EnableTrace attaches a bounded event-trace ring holding up to capacity
// events and returns it.  Events are stamped with the virtual-cycle clock.
func (vm *VM) EnableTrace(capacity int) *telemetry.Trace {
	t := telemetry.NewTrace(capacity)
	t.CycleSource = func() uint64 { return vm.CPU.Cycles }
	vm.trace = t
	vm.Pools.SetTrace(t)
	return t
}

// DisableTrace detaches the trace ring.
func (vm *VM) DisableTrace() {
	vm.trace = nil
	vm.Pools.SetTrace(nil)
}

// Trace returns the attached trace ring (nil when tracing is off).
func (vm *VM) Trace() *telemetry.Trace { return vm.trace }

// SyscallCounts returns the per-syscall-number trap dispatch tallies.
func (vm *VM) SyscallCounts() map[int64]uint64 { return vm.syscallTally() }

// observedIntrinsic wraps an intrinsic handler call when a profiler or
// trace is attached: the handler's cycle delta is booked against the
// operation, and check/MMU outcomes become trace events.
//
// Check-class operations are also booked against their call site (the
// calling frame's function and block, and the pool argument), read before
// the handler runs.
func (vm *VM) observedIntrinsic(name string, h IntrinsicFn, args []uint64) (IntrinsicResult, error) {
	var site telemetry.SiteKey
	if vm.prof != nil && len(args) > 0 && svaops.IsCheckOp(name) {
		fr := vm.cur.frames[len(vm.cur.frames)-1]
		site = telemetry.SiteKey{Fn: fr.fn.Nm, Block: fr.block, Op: name, Pool: args[0]}
	}
	c0 := vm.CPU.Cycles
	res, err := h(vm, args)
	if vm.prof != nil {
		vm.prof.ChargeOp(name, vm.CPU.Cycles-c0)
		if site.Op != "" {
			vm.prof.ChargeSite(site, vm.CPU.Cycles-c0)
		}
	}
	if vm.trace != nil {
		vm.traceIntrinsic(name, args, err)
	}
	return res, err
}

// traceIntrinsic emits the trace event (if any) for one executed
// operation.  Trap entry/exit events are emitted by TrapEnter,
// pollInterrupts and popIContext instead, where the trap arguments are
// known.
func (vm *VM) traceIntrinsic(name string, args []uint64, err error) {
	op := svaops.Lookup(name)
	if op == nil {
		return
	}
	var kind telemetry.EventKind
	switch op.Class {
	case svaops.ClassCheck:
		kind = telemetry.EvCheck
	case svaops.ClassMMU:
		kind = telemetry.EvMMU
	default:
		return
	}
	if len(args) > 3 {
		args = args[:3]
	}
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	vm.trace.Emit(kind, name, args, errMsg)
}
