package vm

import (
	"fmt"

	"sva/internal/svaops"
)

// Per-operation cycle charges come from the svaops cost table, so the
// accounting model is stated once alongside each operation's class and
// signature.
var (
	cycRegObj  = svaops.Cost(svaops.ObjRegister)
	cycDropObj = svaops.Cost(svaops.ObjDrop)
	cycBounds  = svaops.Cost(svaops.BoundsCheck)
	cycExact   = svaops.Cost(svaops.ExactCheck)
	cycLS      = svaops.Cost(svaops.LSCheck)
	cycIC      = svaops.Cost(svaops.ICCheck)
	cycElide   = svaops.Cost(svaops.ElideBounds)
	cycTrap    = svaops.Cost(svaops.Trap)
)

// installCoreIntrinsics installs the operations the SVM itself implements:
// the run-time checks (pchk.*), the optimized memory primitives, and basic
// system control.  SVA-OS state/trap/MMU/IO operations are installed by
// internal/svaos.
func (vm *VM) installCoreIntrinsics() {
	reg := vm.RegisterIntrinsic

	// --- Run-time checks (§4.5, Table 3) ---------------------------------

	reg(svaops.ObjRegister, func(vm *VM, a []uint64) (IntrinsicResult, error) {
		vm.CPU.Cycles += cycRegObj
		pool, err := vm.Pools.PoolChecked(int(a[0]))
		if err != nil {
			return IntrinsicResult{}, err
		}
		return IntrinsicResult{}, pool.RegisterCPU(vm.cpuID, a[1], a[2], 0)
	})
	reg(svaops.ObjRegisterStack, func(vm *VM, a []uint64) (IntrinsicResult, error) {
		vm.CPU.Cycles += cycRegObj
		pool, err := vm.Pools.PoolChecked(int(a[0]))
		if err != nil {
			return IntrinsicResult{}, err
		}
		if err := pool.RegisterStackCPU(vm.cpuID, a[1], a[2]); err != nil {
			return IntrinsicResult{}, err
		}
		// The registration dies with the owning frame.
		ex := vm.cur
		fr := ex.frames[len(ex.frames)-1]
		fr.cleanups = append(fr.cleanups, stackObj{pool: int(a[0]), addr: a[1]})
		return IntrinsicResult{}, nil
	})
	reg(svaops.ObjRegisterBatch, func(vm *VM, a []uint64) (IntrinsicResult, error) {
		// One registration charge covers the whole batch: the point of the
		// operation is amortizing per-object overhead on slab refills.
		vm.CPU.Cycles += cycRegObj
		pool, err := vm.Pools.PoolChecked(int(a[0]))
		if err != nil {
			return IntrinsicResult{}, err
		}
		return IntrinsicResult{}, pool.RegisterBatchCPU(vm.cpuID, a[1], a[2], a[3])
	})
	reg(svaops.ObjDrop, func(vm *VM, a []uint64) (IntrinsicResult, error) {
		vm.CPU.Cycles += cycDropObj
		pool, err := vm.Pools.PoolChecked(int(a[0]))
		if err != nil {
			return IntrinsicResult{}, err
		}
		return IntrinsicResult{}, pool.DropCPU(vm.cpuID, a[1])
	})
	reg(svaops.BoundsCheck, func(vm *VM, a []uint64) (IntrinsicResult, error) {
		vm.Counters.ChecksBounds++
		vm.CPU.Cycles += cycBounds
		pool, err := vm.Pools.PoolChecked(int(a[0]))
		if err != nil {
			return IntrinsicResult{}, err
		}
		return IntrinsicResult{}, pool.BoundsCheckCPU(vm.cpuID, a[1], a[2])
	})
	reg(svaops.ExactCheck, func(vm *VM, a []uint64) (IntrinsicResult, error) {
		// Elision rule R5: the object is the global at a[1], so the check
		// is a range compare with no page-map or tree lookup.
		vm.Counters.ChecksBounds++
		vm.CPU.Cycles += cycExact
		pool, err := vm.Pools.PoolChecked(int(a[0]))
		if err != nil {
			return IntrinsicResult{}, err
		}
		return IntrinsicResult{}, pool.ExactCheckCPU(vm.cpuID, a[1], a[2], a[3])
	})
	reg(svaops.LSCheck, func(vm *VM, a []uint64) (IntrinsicResult, error) {
		vm.Counters.ChecksLS++
		vm.CPU.Cycles += cycLS
		pool, err := vm.Pools.PoolChecked(int(a[0]))
		if err != nil {
			return IntrinsicResult{}, err
		}
		return IntrinsicResult{}, pool.LoadStoreCheckCPU(vm.cpuID, a[1])
	})
	reg(svaops.ICCheck, func(vm *VM, a []uint64) (IntrinsicResult, error) {
		vm.Counters.ChecksIC++
		vm.CPU.Cycles += cycIC
		return IntrinsicResult{}, vm.Pools.IndirectCallCheckCPU(vm.cpuID, int(a[0]), a[1])
	})
	reg(svaops.ElideBounds, func(vm *VM, a []uint64) (IntrinsicResult, error) {
		vm.Counters.ElidedBounds++
		vm.CPU.Cycles += cycElide
		pool, err := vm.Pools.PoolChecked(int(a[0]))
		if err != nil {
			return IntrinsicResult{}, err
		}
		pool.NoteElidedBoundsCPU(vm.cpuID)
		return IntrinsicResult{}, nil
	})
	reg(svaops.ElideLS, func(vm *VM, a []uint64) (IntrinsicResult, error) {
		vm.Counters.ElidedLS++
		vm.CPU.Cycles += cycElide
		pool, err := vm.Pools.PoolChecked(int(a[0]))
		if err != nil {
			return IntrinsicResult{}, err
		}
		pool.NoteElidedLSCPU(vm.cpuID)
		return IntrinsicResult{}, nil
	})
	reg(svaops.BoundsTest, func(vm *VM, a []uint64) (IntrinsicResult, error) {
		vm.Counters.ChecksBounds++
		vm.CPU.Cycles += cycBounds
		pool, err := vm.Pools.PoolChecked(int(a[0]))
		if err != nil || !pool.BoundsTestCPU(vm.cpuID, a[1], a[2], a[3]) {
			return IntrinsicResult{Value: 0}, nil
		}
		return IntrinsicResult{Value: 1}, nil
	})
	reg(svaops.GetBoundsLo, func(vm *VM, a []uint64) (IntrinsicResult, error) {
		pool, err := vm.Pools.PoolChecked(int(a[0]))
		if err != nil {
			return IntrinsicResult{}, err
		}
		lo, _, ok := pool.GetBoundsCPU(vm.cpuID, a[1])
		if !ok {
			return IntrinsicResult{Value: 0}, nil
		}
		return IntrinsicResult{Value: lo}, nil
	})
	reg(svaops.GetBoundsHi, func(vm *VM, a []uint64) (IntrinsicResult, error) {
		pool, err := vm.Pools.PoolChecked(int(a[0]))
		if err != nil {
			return IntrinsicResult{}, err
		}
		_, hi, ok := pool.GetBoundsCPU(vm.cpuID, a[1])
		if !ok {
			return IntrinsicResult{Value: ^uint64(0)}, nil
		}
		return IntrinsicResult{Value: hi}, nil
	})

	// PseudoAlloc (§4.7) is rewritten to ObjRegister by the safety
	// compiler; in unchecked configurations it is a no-op.  Likewise
	// PseudoAllocBatch → ObjRegisterBatch.
	reg(svaops.PseudoAlloc, func(vm *VM, a []uint64) (IntrinsicResult, error) {
		return IntrinsicResult{}, nil
	})
	reg(svaops.PseudoAllocBatch, func(vm *VM, a []uint64) (IntrinsicResult, error) {
		return IntrinsicResult{}, nil
	})

	// --- Memory primitives ------------------------------------------------
	//
	// These model the hand-optimized memcpy/memset assembly of a real
	// kernel's lib/ directory.  They respect the current privilege level.

	reg(svaops.Memcpy, memcpyIntrinsic)
	reg(svaops.Memmove, memcpyIntrinsic) // flat copy handles overlap via buffer
	reg(svaops.Memset, func(vm *VM, a []uint64) (IntrinsicResult, error) {
		dst, c, n := a[0], byte(a[1]), a[2]
		if err := vm.checkAccess(dst, int(n), true); err != nil {
			return IntrinsicResult{}, err
		}
		buf := vm.memScratch(int(n)) // n ≤ MaxAccess after checkAccess
		for i := range buf {
			buf[i] = c
		}
		if err := vm.Mach.Phys.WriteAt(dst, buf); err != nil {
			return IntrinsicResult{}, err
		}
		vm.Counters.MemOps += n
		return IntrinsicResult{Value: dst}, nil
	})
	reg(svaops.Memcmp, func(vm *VM, a []uint64) (IntrinsicResult, error) {
		p, q, n := a[0], a[1], a[2]
		if err := vm.checkAccess(p, int(n), false); err != nil {
			return IntrinsicResult{}, err
		}
		if err := vm.checkAccess(q, int(n), false); err != nil {
			return IntrinsicResult{}, err
		}
		s := vm.memScratch(int(2 * n)) // n ≤ MaxAccess after checkAccess
		bp, bq := s[:n], s[n:]
		if err := vm.Mach.Phys.ReadAt(p, bp); err != nil {
			return IntrinsicResult{}, err
		}
		if err := vm.Mach.Phys.ReadAt(q, bq); err != nil {
			return IntrinsicResult{}, err
		}
		for i := range bp {
			if bp[i] != bq[i] {
				if bp[i] < bq[i] {
					return IntrinsicResult{Value: ^uint64(0)}, nil
				}
				return IntrinsicResult{Value: 1}, nil
			}
		}
		return IntrinsicResult{Value: 0}, nil
	})

	// --- System control ---------------------------------------------------

	reg(svaops.Halt, func(vm *VM, a []uint64) (IntrinsicResult, error) {
		vm.Halted = true
		vm.ExitCode = a[0]
		if vm.shared != nil {
			// First halt wins the machine-wide exit code; siblings observe
			// the latch at their next interrupt poll.
			if !vm.shared.halted.Swap(true) {
				vm.shared.exitCode.Store(a[0])
			}
		}
		return IntrinsicResult{}, nil
	})
	reg(svaops.Cycles, func(vm *VM, a []uint64) (IntrinsicResult, error) {
		return IntrinsicResult{Value: vm.CPU.Cycles}, nil
	})
	reg(svaops.CPUID, func(vm *VM, a []uint64) (IntrinsicResult, error) {
		return IntrinsicResult{Value: uint64(vm.cpuID)}, nil
	})
}

// memcpyIntrinsic is a plain function, not a method: handlers must act on
// the virtual CPU passed at dispatch, never on the VM they were registered
// against (a bound receiver would cross-wire sibling VCPUs under SMP).
func memcpyIntrinsic(vm *VM, a []uint64) (IntrinsicResult, error) {
	dst, src, n := a[0], a[1], a[2]
	if n == 0 {
		return IntrinsicResult{Value: dst}, nil
	}
	if int64(n) < 0 {
		// A negative length interpreted as unsigned: fail like hardware
		// would on the gigantic copy, after the access check.
		return IntrinsicResult{}, &GuestFault{Kind: "memcpy length overflow", Addr: dst}
	}
	if err := vm.checkAccess(src, int(n), false); err != nil {
		return IntrinsicResult{}, err
	}
	if err := vm.checkAccess(dst, int(n), true); err != nil {
		return IntrinsicResult{}, err
	}
	buf := vm.memScratch(int(n)) // n ≤ MaxAccess after both checkAccess calls
	if err := vm.Mach.Phys.ReadAt(src, buf); err != nil {
		return IntrinsicResult{}, err
	}
	if err := vm.Mach.Phys.WriteAt(dst, buf); err != nil {
		return IntrinsicResult{}, err
	}
	vm.Counters.MemOps += n
	return IntrinsicResult{Value: dst}, nil
}

// RegisterSyscallHandler records a guest syscall handler (invoked by the
// svaos RegisterSyscall operation, and directly by tests).
func (vm *VM) RegisterSyscallHandler(num int64, fnAddr uint64) error {
	f := vm.addrFunc[fnAddr]
	if f == nil {
		return fmt.Errorf("vm: register syscall %d: bad handler address %#x", num, fnAddr)
	}
	vm.syscalls[num] = f
	if un := uint64(num); un < denseSyscalls {
		vm.syscallsDense[un] = f
	}
	return nil
}

// RegisterInterruptHandler records a guest interrupt handler.
func (vm *VM) RegisterInterruptHandler(vec int64, fnAddr uint64) error {
	f := vm.addrFunc[fnAddr]
	if f == nil {
		return fmt.Errorf("vm: register interrupt %d: bad handler address %#x", vec, fnAddr)
	}
	vm.interrupts[vec] = f
	return nil
}
