// Package svaos implements the SVA-OS operations (paper §3.3, Tables 1–2):
// saving/restoring native processor state, interrupt-context manipulation,
// trap entry, MMU configuration, I/O, and handler registration.  Install
// binds them to a VM as intrinsic handlers.
//
// SVA-OS provides only mechanisms, never policy: scheduling, signal
// semantics, memory-management policy all live in the guest kernel.
package svaos

import (
	"errors"
	"fmt"

	"sva/internal/abi"
	"sva/internal/hw"
	"sva/internal/svaops"
	"sva/internal/vm"
)

type none = vm.IntrinsicResult

func requireKernel(m *vm.VM, op string) error {
	if ex := m.Exec(); ex != nil && ex.Priv() != hw.PrivKernel {
		return &vm.GuestFault{Kind: "privileged operation " + op + " in user mode"}
	}
	return nil
}

// Install registers every SVA-OS operation on the VM.
func Install(m *vm.VM) {
	reg := m.RegisterIntrinsic

	// --- Native processor state (Table 1) --------------------------------

	reg(svaops.SaveInteger, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.SaveInteger); err != nil {
			return none{}, err
		}
		m.SaveIntegerState(a[0])
		return none{}, nil
	})
	reg(svaops.LoadInteger, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.LoadInteger); err != nil {
			return none{}, err
		}
		if err := m.LoadIntegerState(a[0]); err != nil {
			return none{}, err
		}
		return none{Switched: true}, nil
	})
	reg(svaops.SaveFP, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.SaveFP); err != nil {
			return none{}, err
		}
		m.SaveFPState(a[0], a[1] != 0)
		return none{}, nil
	})
	reg(svaops.LoadFP, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.LoadFP); err != nil {
			return none{}, err
		}
		m.LoadFPState(a[0])
		return none{}, nil
	})

	// --- Interrupt contexts (Table 2) ------------------------------------

	reg(svaops.IContextSave, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.IContextSave); err != nil {
			return none{}, err
		}
		return none{}, m.IContextSaveState(a[0], a[1])
	})
	reg(svaops.IContextLoad, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.IContextLoad); err != nil {
			return none{}, err
		}
		return none{}, m.IContextLoadState(a[0], a[1])
	})
	reg(svaops.IContextCommit, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.IContextCommit); err != nil {
			return none{}, err
		}
		return none{}, m.IContextCommit(a[0])
	})
	reg(svaops.IPushFunction, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.IPushFunction); err != nil {
			return none{}, err
		}
		return none{}, m.IContextPushFunction(a[0], a[1], a[2:])
	})
	reg(svaops.WasPrivileged, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.WasPrivileged); err != nil {
			return none{}, err
		}
		priv, err := m.IContextWasPrivileged(a[0])
		if err != nil {
			return none{}, err
		}
		return none{Value: priv}, nil
	})
	reg(svaops.IContextSetRetval, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.IContextSetRetval); err != nil {
			return none{}, err
		}
		return none{}, m.SetSavedRetval(a[0], a[1])
	})

	reg(svaops.StateSetKStack, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.StateSetKStack); err != nil {
			return none{}, err
		}
		return none{}, m.SetSavedKStack(a[0], a[1])
	})
	reg(svaops.StateSetUStack, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.StateSetUStack); err != nil {
			return none{}, err
		}
		return none{}, m.SetSavedUStack(a[0], a[1])
	})

	// --- Trap entry --------------------------------------------------------

	reg(svaops.Trap, func(m *vm.VM, a []uint64) (none, error) {
		return m.TrapEnter(int64(a[0]), a[1:])
	})

	// --- State fabrication (kernel threads, exec) -------------------------

	reg(svaops.InitState, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.InitState); err != nil {
			return none{}, err
		}
		return none{}, m.InitState(a[0], a[1], a[2], a[3])
	})
	reg(svaops.InitUserState, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.InitUserState); err != nil {
			return none{}, err
		}
		return none{}, m.InitUserState(a[0], a[1], a[2], a[3], a[4])
	})
	reg(svaops.ExecState, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.ExecState); err != nil {
			return none{}, err
		}
		return none{}, m.ExecState(a[0], a[1], a[2], a[3])
	})
	reg(svaops.SetKStack, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.SetKStack); err != nil {
			return none{}, err
		}
		m.Exec().SetKStackTop(a[0])
		return none{}, nil
	})

	// --- Handler registration ---------------------------------------------

	reg(svaops.RegisterSyscall, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.RegisterSyscall); err != nil {
			return none{}, err
		}
		return none{}, m.RegisterSyscallHandler(int64(a[0]), a[1])
	})
	reg(svaops.RegisterInterrupt, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.RegisterInterrupt); err != nil {
			return none{}, err
		}
		return none{}, m.RegisterInterruptHandler(int64(a[0]), a[1])
	})

	// --- MMU ----------------------------------------------------------------

	reg(svaops.MMUMap, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.MMUMap); err != nil {
			return none{}, err
		}
		if err := m.Mach.MMU.Map(a[0], a[1], int(a[2])); err != nil {
			return none{Value: ^uint64(0)}, nil
		}
		return none{Value: 0}, nil
	})
	reg(svaops.MMUUnmap, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.MMUUnmap); err != nil {
			return none{}, err
		}
		if err := m.Mach.MMU.Unmap(a[0]); err != nil {
			return none{Value: ^uint64(0)}, nil
		}
		return none{Value: 0}, nil
	})
	reg(svaops.MMUProtect, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.MMUProtect); err != nil {
			return none{}, err
		}
		if err := m.Mach.MMU.Protect(a[0], int(a[1])); err != nil {
			return none{Value: ^uint64(0)}, nil
		}
		return none{Value: 0}, nil
	})

	// --- I/O -----------------------------------------------------------------

	reg(svaops.IOPutc, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.IOPutc); err != nil {
			return none{}, err
		}
		return none{}, m.Mach.Console.WriteByte(byte(a[0]))
	})
	reg(svaops.IOGetc, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.IOGetc); err != nil {
			return none{}, err
		}
		b, ok := m.Mach.Console.ReadInput()
		if !ok {
			return none{Value: ^uint64(0)}, nil
		}
		return none{Value: uint64(b)}, nil
	})
	reg(svaops.DiskRead, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.DiskRead); err != nil {
			return none{}, err
		}
		buf := make([]byte, hw.SectorSize)
		if err := m.Mach.Disk.ReadSector(int(a[0]), buf); err != nil {
			return none{Value: ^uint64(0)}, nil
		}
		if err := m.MemWriteBytes(a[1], buf); err != nil {
			return none{}, err
		}
		m.CPU.Cycles += m.Mach.Disk.SeekCost
		return none{Value: 0}, nil
	})
	reg(svaops.DiskWrite, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.DiskWrite); err != nil {
			return none{}, err
		}
		buf, err := m.MemReadBytes(a[1], hw.SectorSize)
		if err != nil {
			return none{}, err
		}
		if err := m.Mach.Disk.WriteSector(int(a[0]), buf); err != nil {
			return none{Value: ^uint64(0)}, nil
		}
		m.CPU.Cycles += m.Mach.Disk.SeekCost
		return none{Value: 0}, nil
	})
	// sva.io.net.send/recv are compat shims over the ring NIC's implicit
	// 1-slot ring (CompatSend/CompatRecv): guest-visible behavior — trap
	// conditions, return values, chaos ordering and cycle charges — is
	// bit-identical to the retired pre-ring synchronous handlers, whose
	// results the netshim goldens (exploits and svaos testdata) keep.
	reg(svaops.NetSend, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.NetSend); err != nil {
			return none{}, err
		}
		buf, err := m.MemReadBytes(a[0], int(a[1]))
		if err != nil {
			return none{}, err
		}
		if err := m.Mach.NIC.CompatSend(buf); err != nil {
			return none{Value: ^uint64(0)}, nil
		}
		m.CPU.Cycles += m.Mach.NIC.PerFrameCost
		return none{Value: 0}, nil
	})
	reg(svaops.NetRecv, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.NetRecv); err != nil {
			return none{}, err
		}
		f := m.Mach.NIC.CompatRecv()
		if f == nil {
			return none{Value: ^uint64(0)}, nil
		}
		if uint64(len(f)) > a[1] {
			f = f[:a[1]]
		}
		if err := m.MemWriteBytes(a[0], f); err != nil {
			return none{}, err
		}
		return none{Value: uint64(len(f))}, nil
	})

	// --- Descriptor-ring net I/O -------------------------------------------
	//
	// Amortized batch costing (the well-founded model the old per-frame
	// charge lacked): every doorbell charges PerBatchCost once plus
	// PerFrameCost per descriptor CONSUMED — successful or errored — so a
	// guest pays for the work the device actually did, and error paths
	// cost the same as success paths.  Post and reap are index
	// bookkeeping and charge nothing beyond their instruction cost.

	reg(svaops.NetRingAttach, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.NetRingAttach); err != nil {
			return none{}, err
		}
		if err := m.Mach.NIC.AttachRing(int(int64(a[0])), a[1], a[2], m.DMA()); err != nil {
			// Re-attaching a live ring is the hostile re-window move; it
			// gets the distinguishable -EBUSY, other failures the generic -1.
			if errors.Is(err, hw.ErrRingAttached) {
				return none{Value: abi.Errno(abi.EBUSY)}, nil
			}
			return none{Value: ^uint64(0)}, nil
		}
		return none{Value: 0}, nil
	})
	reg(svaops.NetPost, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.NetPost); err != nil {
			return none{}, err
		}
		ok, err := m.Mach.NIC.Post(int(int64(a[0])), a[1], a[2])
		if err != nil || !ok {
			return none{Value: ^uint64(0)}, nil
		}
		return none{Value: 0}, nil
	})
	reg(svaops.NetDoorbell, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.NetDoorbell); err != nil {
			return none{}, err
		}
		nic := m.Mach.NIC
		consumed, err := nic.Doorbell(int(int64(a[0])), m.CPU.Cycles)
		m.CPU.Cycles += nic.PerBatchCost + nic.PerFrameCost*uint64(consumed)
		if err != nil {
			return none{Value: ^uint64(0)}, nil
		}
		return none{Value: uint64(consumed)}, nil
	})
	reg(svaops.NetReap, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.NetReap); err != nil {
			return none{}, err
		}
		cons, err := m.Mach.NIC.Reap(int(int64(a[0])))
		if err != nil {
			return none{Value: ^uint64(0)}, nil
		}
		return none{Value: cons}, nil
	})

	// --- Inter-domain channel ------------------------------------------------
	//
	// Same ring ABI and amortized costing on the domain's ChanPort.  The
	// distinguishable failures: re-attaching a live ring is -EBUSY, a
	// doorbell at a dead/rebooting/unbound peer is -EHOSTDOWN (fail
	// closed, never blocking — see hw.ErrPeerDown).

	reg(svaops.ChanAttach, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.ChanAttach); err != nil {
			return none{}, err
		}
		if err := m.Mach.Chan.AttachRing(int(int64(a[0])), a[1], a[2], m.DMA()); err != nil {
			if errors.Is(err, hw.ErrRingAttached) {
				return none{Value: abi.Errno(abi.EBUSY)}, nil
			}
			return none{Value: ^uint64(0)}, nil
		}
		return none{Value: 0}, nil
	})
	reg(svaops.ChanPost, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.ChanPost); err != nil {
			return none{}, err
		}
		ok, err := m.Mach.Chan.Post(int(int64(a[0])), a[1], a[2])
		if err != nil || !ok {
			return none{Value: ^uint64(0)}, nil
		}
		return none{Value: 0}, nil
	})
	reg(svaops.ChanDoorbell, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.ChanDoorbell); err != nil {
			return none{}, err
		}
		ch := m.Mach.Chan
		consumed, err := ch.Doorbell(int(int64(a[0])), m.CPU.Cycles)
		m.CPU.Cycles += ch.PerBatchCost + ch.PerFrameCost*uint64(consumed)
		if err != nil {
			if errors.Is(err, hw.ErrPeerDown) {
				return none{Value: abi.Errno(abi.EHOSTDOWN)}, nil
			}
			return none{Value: ^uint64(0)}, nil
		}
		return none{Value: uint64(consumed)}, nil
	})
	reg(svaops.ChanReap, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.ChanReap); err != nil {
			return none{}, err
		}
		cons, err := m.Mach.Chan.Reap(int(int64(a[0])))
		if err != nil {
			return none{Value: ^uint64(0)}, nil
		}
		return none{Value: cons}, nil
	})

	// --- Interrupt control and time ----------------------------------------

	reg(svaops.IntrEnable, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.IntrEnable); err != nil {
			return none{}, err
		}
		prev := m.Mach.Intr.Enable(a[0] != 0)
		if prev {
			return none{Value: 1}, nil
		}
		return none{Value: 0}, nil
	})
	reg(svaops.TimerArm, func(m *vm.VM, a []uint64) (none, error) {
		if err := requireKernel(m, svaops.TimerArm); err != nil {
			return none{}, err
		}
		m.Mach.Timer.Arm(m.Counters.Steps, a[0])
		return none{}, nil
	})
}

// Verify checks that every operation in svaops.Signatures has a handler
// registered — a build-time self-check used by tests.
func Verify(m *vm.VM) error {
	for name := range svaops.Signatures {
		if !m.HasIntrinsic(name) {
			return fmt.Errorf("svaos: operation %s has no handler", name)
		}
	}
	return nil
}
