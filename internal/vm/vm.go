// Package vm implements the Secure Virtual Machine (SVM): the run-time
// system that loads SVA bytecode, translates/interprets it, implements the
// SVA-OS operations together with internal/svaos, and enforces the run-time
// safety checks (paper §3.4, §4.5).
//
// Execution uses an explicit, heap-allocated frame stack rather than the
// host call stack, because SVA-OS requires the processor's control state to
// be saved, restored and manipulated as opaque data (llva.save.integer and
// friends, Table 1 of the paper): a continuation here *is* the saved
// Integer State.
package vm

import (
	"fmt"
	"sync"

	"sva/internal/faultinject"
	"sva/internal/hw"
	"sva/internal/ir"
	"sva/internal/metapool"
	"sva/internal/telemetry"
)

// Config selects one of the four kernel/VM configurations evaluated in the
// paper (§7.1).
type Config int

const (
	// ConfigNative models Linux-native: the kernel port that keeps
	// hand-written fast paths (direct trap dispatch, single-operation
	// context switch) and runs without safety checks.
	ConfigNative Config = iota
	// ConfigSVAGCC models Linux-SVA-GCC: the SVA-ported kernel (all
	// privileged operations through SVA-OS) without safety checks.
	ConfigSVAGCC
	// ConfigSVALLVM models Linux-SVA-LLVM: the SVA-ported kernel executed
	// through the bytecode translator (per-function translation to the
	// pre-lowered form, cached and signed).
	ConfigSVALLVM
	// ConfigSafe models Linux-SVA-Safe: translator plus the run-time
	// safety checks inserted by the safety-checking compiler.
	ConfigSafe
)

var configNames = [...]string{"native", "sva-gcc", "sva-llvm", "sva-safe"}

func (c Config) String() string {
	if int(c) < len(configNames) {
		return configNames[c]
	}
	return fmt.Sprintf("config(%d)", int(c))
}

// Translated reports whether this configuration's kernel code comes out of
// the SVM's bytecode translator (§3.4) rather than gcc.  It sets the
// virtual gcc/llvm delta (see VM.gccDelta) and whether bytecode keeps a
// signed translation; it does not choose the executor — every config runs
// on the threaded engine.
func (c Config) Translated() bool { return c == ConfigSVALLVM || c == ConfigSafe }

// Virtual address space layout (part of the virtual architecture).
const (
	// NullGuard: [0, NullGuardTop) never maps; dereferencing a null or
	// near-null pointer faults (supports guarantee T4).
	NullGuardTop = 0x1000
	// SVMBase..SVMTop is the SVM's bootstrap reserve (~20KB, §3.4): the
	// guest kernel may never read or write it.
	SVMBase = 0x4000
	SVMTop  = SVMBase + 20*1024
	// Globals segment for kernel/supervisor modules.
	KGlobalBase = 0x0010_0000
	KGlobalTop  = 0x0100_0000
	// Code segment: every function gets a unique, non-writable address.
	CodeBase = 0x0100_0000
	CodeTop  = 0x0200_0000
	// User space: user-module globals, user heaps and user stacks.
	UserBase = 0x1000_0000
	UserTop  = 0x5000_0000
	// Kernel dynamic memory: the guest kernel's allocators manage this.
	KHeapBase = 0x8000_0000
	KHeapTop  = 0xC000_0000
	// Kernel stacks.
	KStackBase = 0xC000_0000
	KStackTop  = 0xE000_0000
)

// FuncStride spaces function addresses in the code segment.
const FuncStride = 16

// Virtual cycle charges.  Each interpreted instruction costs one cycle;
// the SVM's own work is charged on top so the cycle counter reflects what
// a native implementation would pay.  The per-operation charges (trap
// entry, the splay-tree work behind each run-time check) live in the
// svaops.Ops table — the single cost source the VM, svaos and telemetry
// share; only the charges with no operation of their own remain here.
const (
	CycTrapSpill = 60 // SVA configs: llva-mediated kernel entry/exit
	// CycDirectPenaltyShift models gcc-vs-llvm code quality: configs whose
	// kernel gcc compiled pay one extra cycle every 32 instructions (~3%,
	// within the ±13% band the paper measured between the two code
	// generators).
	CycDirectPenaltyShift = 5
)

// denseSyscalls is the syscall-number window served by the dense trap
// dispatch arrays (see VM.syscallsDense).
const denseSyscalls = 512

// syscallTally merges this VCPU's dense trap tallies with the overflow
// map into a fresh per-number count map.
func (vm *VM) syscallTally() map[int64]uint64 {
	out := make(map[int64]uint64, len(vm.syscallCounts)+16)
	for num, n := range vm.syscallCounts {
		out[num] = n
	}
	for num, n := range vm.syscallCountsDense {
		if n != 0 {
			out[int64(num)] += n
		}
	}
	return out
}

// Counters aggregates execution statistics.  It is the telemetry schema's
// VM block; the alias keeps the historical vm.Counters name working.
type Counters = telemetry.VMStats

// IntrinsicResult is what an intrinsic handler returns to the stepper.
type IntrinsicResult struct {
	// Value is the intrinsic's result (ignored for void intrinsics).
	Value uint64
	// Push, if non-nil, makes the stepper call this guest function; its
	// return value becomes the intrinsic's result.
	Push     *ir.Function
	PushArgs []uint64
	// PushIC wraps the pushed call in a new interrupt context (trap entry).
	PushIC bool
	// Switched indicates the handler replaced the current continuation
	// (llva.load.integer); the stepper must not touch the old frame.
	Switched bool
}

// IntrinsicFn implements one intrinsic operation (llva.*, sva.*, pchk.*).
type IntrinsicFn func(vm *VM, args []uint64) (IntrinsicResult, error)

// VM is a Secure Virtual Machine instance bound to one simulated machine.
// Under SMP one VM value exists per virtual CPU: EnableSMP clones the boot
// VM into siblings that share the kernel image, metapools, devices and
// saved-state tables while owning private processor state, execution
// stack, counters and caches.
type VM struct {
	Mach *hw.Machine
	// CPU is this virtual CPU's processor state.  On the boot VM it aliases
	// Mach.CPU (so existing readers of Mach.CPU stay correct); sibling
	// VCPUs own a private CPU.
	CPU *hw.CPU
	Cfg Config
	// Pools is the run-time metapool registry (populated when a
	// safety-compiled module is loaded).
	Pools *metapool.Registry

	mods       []*ir.Module
	funcAddr   map[*ir.Function]uint64
	addrFunc   map[uint64]*ir.Function
	globalAddr map[*ir.Global]uint64
	symFunc    map[string]*ir.Function

	intrinsics map[string]IntrinsicFn

	// cur is this virtual CPU's current execution state.
	cur *Exec
	// cpuID is this virtual CPU's index (0 on the boot CPU).
	cpuID int
	// shared is the SMP rendezvous state; nil on a uniprocessor VM.
	shared *smpShared
	// stateMu guards savedStates, savedFP and the kernel-stack allocator —
	// tables shared across VCPUs.  The pointer is shared by EnableSMP;
	// uncontended on a uniprocessor.
	stateMu *sync.Mutex
	// savedStates holds continuations stored by llva.save.integer, keyed
	// by the (opaque) buffer address the guest passed.
	savedStates map[uint64]*Continuation
	savedFP     map[uint64]hw.FPState

	// syscalls and interrupts registered through SVA-OS.
	syscalls   map[int64]*ir.Function
	interrupts map[int64]*ir.Function

	// eng is the machine-wide translation cache (compiled functions, GEP
	// plans, intrinsic-binding generation).  Shared by reference across
	// every VCPU — a function translates once per machine, not per CPU.
	eng *engineCache
	// engine gates direct-threaded dispatch of translated frames (the §3.4
	// engine; see engine.go) in every config.  Default on; SetEngine(false)
	// yields the pre-lowered interpreter the equivalence suite uses as
	// oracle.
	engine bool
	// tcache/tcGen memoize eng.translated per VCPU without the concurrent
	// map (see translateCached); argbuf is the per-VCPU call-argument
	// scratch (see argScratch).  All private to this VCPU.
	tcache map[*ir.Function]*compiledFunc
	tcGen  uint64
	argbuf []uint64
	// hargs is TrapEnter's handler-argument scratch, also per-VCPU.
	hargs []uint64
	// membuf is the memory-intrinsic byte scratch (see memScratch).
	membuf []byte

	// Violations records every safety violation detected at run time.
	Violations []*metapool.Violation
	// FaultLog records hardware faults (null derefs, privilege faults).
	FaultLog []string

	Counters Counters

	// Telemetry is this VM's stats registry: the VM, its metapool
	// registry and (when safety-compiled) the compiler publish into it.
	Telemetry *telemetry.Registry
	// prof/trace are nil unless enabled — the interpreter hot path pays
	// one nil check per step and nothing else (see EnableProfiling).
	prof  *telemetry.Profiler
	trace *telemetry.Trace
	// syscallCounts tallies trap dispatches per syscall number.
	syscallCounts map[int64]uint64
	// syscallsDense/syscallCountsDense are the trap hot path for small
	// syscall numbers (the only kind real kernels use): a direct array
	// index instead of two map operations per trap.  The maps remain
	// authoritative for registration and for numbers outside the window;
	// readers merge the dense tallies via syscallTally.
	syscallsDense      *[denseSyscalls]*ir.Function
	syscallCountsDense [denseSyscalls]uint64

	Halted   bool
	ExitCode uint64

	nextKGlobal uint64
	nextUGlobal uint64
	nextFunc    uint64
	nextKStack  uint64

	// StepBudget bounds total interpreted steps (0 = unlimited); exceeding
	// it stops execution with an error (runaway-guest protection).
	StepBudget uint64

	// WatchdogFuel bounds the steps any single trap handler may run
	// (0 = disabled).  A runaway handler raises a recoverable guest fault
	// instead of burning the whole step budget inside one trap.
	WatchdogFuel uint64
	// oopsStreak counts consecutive oops unwinds with no successful trap
	// exit in between; past oopsStormLimit the execution fail-stops.
	oopsStreak int
	// chaos is the installed fault injector (nil in production); see
	// InstallChaos.  The VM consults it only on the interrupt-context
	// restore seam — hardware seams hold their own reference.
	chaos *faultinject.Injector

	pendingCallSets [][]string
}

// New creates a VM on the given machine.
func New(mach *hw.Machine, cfg Config) *VM { return newVM(mach, cfg, newEngineCache()) }

// NewWithCache creates a VM whose translation cache is a SharedCache —
// the multi-domain configuration, where N machines share one compiled
// form of the (identical, identically laid out) kernel image.  See
// SharedCache for the soundness conditions.
func NewWithCache(mach *hw.Machine, cfg Config, sc *SharedCache) *VM {
	return newVM(mach, cfg, sc.eng)
}

func newVM(mach *hw.Machine, cfg Config, eng *engineCache) *VM {
	vm := &VM{
		Mach:          mach,
		CPU:           mach.CPU,
		Cfg:           cfg,
		stateMu:       &sync.Mutex{},
		Pools:         metapool.NewRegistry(),
		funcAddr:      map[*ir.Function]uint64{},
		addrFunc:      map[uint64]*ir.Function{},
		globalAddr:    map[*ir.Global]uint64{},
		symFunc:       map[string]*ir.Function{},
		intrinsics:    map[string]IntrinsicFn{},
		savedStates:   map[uint64]*Continuation{},
		savedFP:       map[uint64]hw.FPState{},
		syscalls:      map[int64]*ir.Function{},
		syscallsDense: &[denseSyscalls]*ir.Function{},
		interrupts:    map[int64]*ir.Function{},
		eng:           eng,
		engine:        true,
		nextKGlobal:   KGlobalBase,
		nextUGlobal:   UserBase,
		nextFunc:      CodeBase,
		nextKStack:    KStackBase,

		Telemetry:     telemetry.NewRegistry(),
		syscallCounts: map[int64]uint64{},
	}
	vm.Telemetry.Register(func(s *telemetry.Snapshot) {
		s.VM = vm.Counters
		s.Kernel.Syscalls = vm.syscallTally()
		if vm.shared != nil {
			// SMP: fold every sibling VCPU's private counters into the one
			// machine-wide snapshot (taken after the VCPUs have joined).
			for _, v := range vm.shared.vcpus {
				if v == vm {
					continue
				}
				s.VM.Add(v.Counters)
				for num, n := range v.syscallTally() {
					s.Kernel.Syscalls[num] += n
				}
			}
		}
		nic := vm.Mach.NIC
		net := &telemetry.NetStats{
			TxFrames:   nic.TxFrames,
			RxFrames:   nic.RxFrames,
			Doorbells:  nic.Doorbells,
			Completed:  nic.Completed,
			IntrRaised: nic.IntrRaised,
			BadDescs:   nic.BadDescs,
			Dropped:    nic.Dropped,
			Batches:    append([]uint64(nil), nic.BatchHist[:]...),
		}
		for _, d := range vm.Mach.Devices() {
			st := d.Stats()
			net.Devices = append(net.Devices, telemetry.DeviceStats{
				Name: st.Name, Ops: st.Ops, Bytes: st.Bytes, Errors: st.Errors,
			})
		}
		s.Net = net
		if vm.prof != nil {
			s.Profile = vm.prof.Snapshot()
		}
		if vm.trace != nil {
			s.Events = vm.trace.Events()
		}
	})
	vm.Pools.Attach(vm.Telemetry)
	// SVM bootstrap reserve: mapped for the SVM only (paper §3.4).
	// Reserve is per-page, so cover every page of [SVMBase, SVMTop) —
	// otherwise the guest could llva.mmu-remap the tail pages.
	for a := uint64(SVMBase); a < SVMTop; a += hw.PageSize {
		mach.MMU.Reserve(a, a, hw.PermRead|hw.PermWrite)
	}
	vm.installCoreIntrinsics()
	return vm
}

// RegisterIntrinsic installs (or replaces) a handler for a named intrinsic.
func (vm *VM) RegisterIntrinsic(name string, fn IntrinsicFn) {
	vm.intrinsics[name] = fn
	// Compiled call closures bind handlers at translate time; flush so
	// future translations rebind, and bump the generation so frames still
	// holding old compiled forms re-resolve through the live table.
	vm.eng.invalidate()
}

// SetEngine toggles direct-threaded dispatch on every VCPU of the machine.
// Off, every config runs the pre-lowered interpreter — the engine's
// differential-testing oracle.  Verdicts, virtual cycles, counters and
// trap behavior are bit-identical either way (the equivalence suite in
// internal/exploits enforces this).
func (vm *VM) SetEngine(on bool) {
	for _, v := range vm.VCPUs() {
		v.engine = on
	}
}

// EngineOn reports whether threaded-code dispatch is enabled.
func (vm *VM) EngineOn() bool { return vm.engine }

// LoadModule links a module into the VM: assigns code addresses to
// functions, allocates and initializes globals, and registers metapool
// descriptors.  user selects the user-space globals segment.  Functions
// are renumbered, which writes nothing when their numbering is current —
// so loading a pre-numbered module that other machines are executing (a
// domain microrebooting from a shared image) is read-only.
func (vm *VM) LoadModule(m *ir.Module, user bool) error {
	vm.mods = append(vm.mods, m)
	for _, f := range m.Funcs {
		f.Renumber()
		if first, dup := vm.symFunc[f.Nm]; dup {
			// Cross-module references resolve to the first definition.
			// The shadowed definition still needs a code address (a
			// GlobalAddr may name it directly) and numbered values so
			// its module prints and verifies.
			vm.funcAddr[f] = vm.funcAddr[first]
			continue
		}
		addr := vm.nextFunc
		vm.nextFunc += FuncStride
		if vm.nextFunc > CodeTop {
			return fmt.Errorf("vm: code segment exhausted")
		}
		vm.funcAddr[f] = addr
		vm.addrFunc[addr] = f
		vm.symFunc[f.Nm] = f
	}
	var layout ir.Layout
	for _, g := range m.Globals {
		// Module contents may come from decoded (untrusted) bytecode, so a
		// malformed global type is a load error, not a host panic.
		size, err := layout.TrySize(g.ValueType)
		if err != nil {
			return fmt.Errorf("vm: global @%s: %w", g.Nm, err)
		}
		align, err := layout.TryAlign(g.ValueType)
		if err != nil {
			return fmt.Errorf("vm: global @%s: %w", g.Nm, err)
		}
		var base *uint64
		if user {
			base = &vm.nextUGlobal
		} else {
			base = &vm.nextKGlobal
		}
		addr := uint64(ir.AlignUp(int64(*base), align))
		*base = addr + uint64(size)
		if !user && *base > KGlobalTop {
			return fmt.Errorf("vm: kernel globals segment exhausted")
		}
		vm.globalAddr[g] = addr
		if g.Init != nil {
			if err := vm.initGlobal(addr, g.ValueType, g.Init); err != nil {
				return fmt.Errorf("vm: init @%s: %w", g.Nm, err)
			}
		}
	}
	for _, mp := range m.Metapools {
		pool := metapool.NewPool(mp.Name, mp.TypeHomogeneous, mp.Complete, elemSizeOf(mp))
		if mp.UserSpace {
			pool.RegisterUserSpace(UserBase, UserTop)
		}
		vm.Pools.AddPool(pool)
	}
	for _, set := range m.CallSets {
		// Callee names may live in modules loaded later; remember the set
		// and (re)resolve in FinalizeProgram.
		vm.pendingCallSets = append(vm.pendingCallSets, set)
		vm.Pools.AddCallSet(map[uint64]bool{})
	}
	vm.FinalizeProgram()
	return nil
}

// FinalizeProgram re-resolves indirect-call target sets against all loaded
// modules.  LoadModule calls it automatically; it is idempotent.
func (vm *VM) FinalizeProgram() {
	for i, set := range vm.pendingCallSets {
		targets := vm.Pools.CallSets[i]
		for _, name := range set {
			if f := vm.symFunc[name]; f != nil {
				targets[vm.funcAddr[f]] = true
			}
		}
	}
}

func elemSizeOf(mp *ir.MetapoolDesc) uint64 {
	if mp.ElemType == nil {
		return 0
	}
	var layout ir.Layout
	sz, err := layout.TrySize(mp.ElemType)
	if err != nil {
		return 0 // malformed descriptor: treat as untyped (no TH fast path)
	}
	return uint64(sz)
}

// initGlobal writes a constant initializer into guest memory.
func (vm *VM) initGlobal(addr uint64, t *ir.Type, c ir.Constant) error {
	var layout ir.Layout
	switch c := c.(type) {
	case *ir.ConstInt:
		sz, err := layout.TrySize(c.Typ)
		if err != nil {
			return err
		}
		return vm.Mach.Phys.Store(addr, c.V, int(sz))
	case *ir.ConstFloat:
		return vm.Mach.Phys.Store(addr, c.Bits(), 8)
	case *ir.ConstNull:
		return vm.Mach.Phys.Store(addr, 0, 8)
	case *ir.ConstUndef:
		return nil
	case *ir.ConstString:
		data := append([]byte(c.S), 0)
		return vm.Mach.Phys.WriteAt(addr, data)
	case *ir.ConstArray:
		if !t.IsArray() {
			return fmt.Errorf("array initializer for %s", t)
		}
		esz, err := layout.TrySize(t.Elem())
		if err != nil {
			return err
		}
		for i, e := range c.Elems {
			if err := vm.initGlobal(addr+uint64(int64(i)*esz), t.Elem(), e); err != nil {
				return err
			}
		}
		return nil
	case *ir.ConstStruct:
		if !t.IsStruct() {
			return fmt.Errorf("struct initializer for %s", t)
		}
		for i, e := range c.Fields {
			off, err := layout.TryFieldOffset(t, i)
			if err != nil {
				return err
			}
			if err := vm.initGlobal(addr+uint64(off), t.Field(i), e); err != nil {
				return err
			}
		}
		return nil
	case *ir.GlobalAddr:
		v, err := vm.constAddr(c)
		if err != nil {
			return err
		}
		return vm.Mach.Phys.Store(addr, v, 8)
	}
	return fmt.Errorf("unsupported initializer %T", c)
}

func (vm *VM) constAddr(c *ir.GlobalAddr) (uint64, error) {
	switch g := c.G.(type) {
	case *ir.Global:
		a, ok := vm.globalAddr[g]
		if !ok {
			return 0, fmt.Errorf("unresolved global @%s", g.Nm)
		}
		return a, nil
	case *ir.Function:
		a, ok := vm.funcAddr[g]
		if !ok {
			return 0, fmt.Errorf("unresolved function @%s", g.Nm)
		}
		return a, nil
	}
	return 0, fmt.Errorf("bad global address %T", c.G)
}

// LayoutFingerprint summarizes the address layout the loaded modules
// produced: the post-load allocator cursors plus the loaded module and
// function counts.  Two VMs that loaded the same modules in the same
// order report the same fingerprint; SharedCache.AdoptLayout compares
// them before letting domains share compiled closures (which burn
// resolved global/function addresses in as constants).
func (vm *VM) LayoutFingerprint() uint64 {
	fp := uint64(14695981039346656037) // FNV offset basis
	mix := func(v uint64) {
		fp ^= v
		fp *= 1099511628211
	}
	mix(vm.nextFunc)
	mix(vm.nextKGlobal)
	mix(vm.nextUGlobal)
	mix(uint64(len(vm.mods)))
	mix(uint64(len(vm.funcAddr)))
	mix(uint64(vm.Cfg) + 1)
	return fp
}

// FuncByName resolves a loaded function by symbol name.
func (vm *VM) FuncByName(name string) *ir.Function { return vm.symFunc[name] }

// FuncAddr returns the code address of a loaded function.
func (vm *VM) FuncAddr(f *ir.Function) uint64 { return vm.funcAddr[f] }

// FuncAt returns the function at a code address (nil if none).
func (vm *VM) FuncAt(addr uint64) *ir.Function { return vm.addrFunc[addr] }

// GlobalAddr returns the address of a loaded global.
func (vm *VM) GlobalAddr(g *ir.Global) uint64 { return vm.globalAddr[g] }

// GlobalAddrByName resolves a global address by name across all modules.
func (vm *VM) GlobalAddrByName(name string) (uint64, bool) {
	for _, m := range vm.mods {
		if g := m.Global(name); g != nil {
			a, ok := vm.globalAddr[g]
			return a, ok
		}
	}
	return 0, false
}

// AllocKernelStack reserves a kernel stack region and returns its top.
// The allocator cursor lives on the boot VM so all VCPUs carve from one
// region; stateMu serializes concurrent guest allocations.
func (vm *VM) AllocKernelStack(size uint64) (uint64, error) {
	size = uint64(ir.AlignUp(int64(size), hw.PageSize))
	owner := vm.bootVM()
	vm.stateMu.Lock()
	defer vm.stateMu.Unlock()
	base := owner.nextKStack
	owner.nextKStack += size + hw.PageSize // guard page between stacks
	if owner.nextKStack > KStackTop {
		return 0, fmt.Errorf("vm: kernel stack space exhausted")
	}
	return base + size, nil
}

// bootVM returns the boot (CPU 0) VM, which owns the shared allocator
// cursors.
func (vm *VM) bootVM() *VM {
	if vm.shared != nil {
		return vm.shared.vcpus[0]
	}
	return vm
}

// Syscall returns the handler registered for a syscall number.
func (vm *VM) Syscall(num int64) *ir.Function { return vm.syscalls[num] }

// NumSyscalls returns how many syscalls are registered.
func (vm *VM) NumSyscalls() int { return len(vm.syscalls) }
