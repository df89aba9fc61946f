package kernel

import (
	"fmt"
	"sync"

	"sva/internal/hw"
	"sva/internal/ir"
	"sva/internal/pointer"
	"sva/internal/safety"
	"sva/internal/svaos"
	"sva/internal/vm"
)

// SafetyConfig returns the safety-compiler configuration for this kernel:
// the §4.4 allocator declarations (allocation/deallocation routines, size
// functions, pool vs ordinary classification), the user-copy routines, and
// — when asTested is true — the subsystem exclusions of §7.1 (mm, lib and
// the character drivers).
func SafetyConfig(asTested bool) safety.Config {
	cfg := safety.Config{
		Pointer: pointer.Config{
			TrackIntToPtrNull: true,
			Allocators: []pointer.AllocatorInfo{
				{Name: "kmalloc", Kind: pointer.OrdinaryAllocator, SizeArg: 0,
					FreeName: "kfree", FreePtrArg: 0, SizeClasses: true},
				{Name: "kmem_cache_alloc", Kind: pointer.PoolAllocator, SizeArg: -1,
					PoolArg: 0, FreeName: "kmem_cache_free", FreePtrArg: 1},
				// vmalloc and the boot allocator are not brought under the
				// registration scheme — the paper §6.2 likewise was "still
				// working on" vmalloc; their partitions stay incomplete and
				// receive reduced checks.
			},
			UserCopyFuncs: []string{"__copy_from_user", "__copy_to_user", "strncpy_from_user"},
		},
		EntryFunc: "kernel_entry",
		SizeFuncs: map[string]string{
			"kmem_cache_alloc": "kmem_cache_size",
		},
		PromoteAlloc: "kmalloc",
		PromoteFree:  "kfree",
	}
	if asTested {
		cfg.Pointer.ExcludeSubsystems = []string{SubMM, SubLib, SubCharDrv}
	} else {
		// "Compiling an additional kernel library": the copy library joins
		// the safety-compiled set.  The memory subsystem and character
		// drivers stay excluded — like the paper's kernel, a build that
		// instruments the allocator internals does not boot (its free-list
		// manipulation is exactly the metadata the checks must not see).
		cfg.Pointer.ExcludeSubsystems = []string{SubMM, SubCharDrv}
	}
	return cfg
}

// System is a booted guest: machine, VM and kernel image.
type System struct {
	VM   *vm.VM
	Img  *Image
	Prog *safety.Program // nil unless safety-compiled
	// Extra holds the user modules loaded alongside the kernel.
	Extra []*ir.Module
	boots uint64
	// vcpus holds every virtual CPU once RunSMP has enabled SMP
	// (nil on a uniprocessor system).
	vcpus []*vm.VM
}

// NewSystem builds the kernel, optionally safety-compiles it (ConfigSafe),
// loads it and boots it.  asTested=true excludes mm/lib/char-drivers from
// safety compilation (§7.1); asTested=false additionally compiles the copy
// library (the §7.2 "additional kernel library").  extra modules (user
// programs) are loaded into user space before boot.
func NewSystem(cfg vm.Config, asTested bool, extra ...*ir.Module) (*System, error) {
	return NewSystemWith(cfg, SafetyConfig(asTested), extra...)
}

// NewSystemWith is NewSystem with an explicit safety-compilation config
// (elision ablations, exploit equivalence runs).  scfg is ignored unless
// cfg is ConfigSafe.  It is the one boot sequence: prepare an image, then
// boot a system from it — the same path every domain takes.
func NewSystemWith(cfg vm.Config, scfg safety.Config, extra ...*ir.Module) (*System, error) {
	si, err := BuildSharedWith(cfg, scfg, extra...)
	if err != nil {
		return nil, err
	}
	return NewSystemShared(si)
}

// SharedImage is a pristine kernel image prepared once and booted by
// many domains: the built (and, for ConfigSafe, safety-compiled) module
// set with every function renumbered up front, plus the cross-domain
// translation cache.  The image and cache are read-only from the
// domains' perspective — a microrebooting domain re-links the same
// pre-numbered modules, which vm.LoadModule only reads, so sibling
// domains can keep executing the shared IR throughout.
type SharedImage struct {
	Img   *Image
	Prog  *safety.Program // nil unless ConfigSafe
	Cfg   vm.Config
	Extra []*ir.Module
	Cache *vm.SharedCache
}

// BuildShared builds and prepares a kernel image for multi-domain use.
func BuildShared(cfg vm.Config, asTested bool, extra ...*ir.Module) (*SharedImage, error) {
	return BuildSharedWith(cfg, SafetyConfig(asTested), extra...)
}

// BuildSharedWith is BuildShared with an explicit safety config.
func BuildSharedWith(cfg vm.Config, scfg safety.Config, extra ...*ir.Module) (*SharedImage, error) {
	img := Build()
	var prog *safety.Program
	if cfg == vm.ConfigSafe {
		mods := append([]*ir.Module{img.Kernel}, extra...)
		p, err := safety.Compile(scfg, mods...)
		if err != nil {
			return nil, fmt.Errorf("kernel: safety compile: %w", err)
		}
		prog = p
	}
	if errs := ir.VerifyModule(img.Kernel); len(errs) != 0 {
		return nil, fmt.Errorf("kernel: module does not verify: %v", errs[0])
	}
	// Renumber every function of every module exactly once, before any
	// domain boots: Renumber writes per-instruction state only when the
	// numbering is stale, so every later (re)boot's LoadModule is
	// read-only and a microreboot cannot race siblings executing the
	// shared IR.
	for _, m := range append([]*ir.Module{img.Kernel}, extra...) {
		for _, f := range m.Funcs {
			f.Renumber()
		}
	}
	return &SharedImage{Img: img, Prog: prog, Cfg: cfg, Extra: extra, Cache: vm.NewSharedCache()}, nil
}

// NewSystemShared boots one domain from a shared image: a private
// machine, VM, metapool registry and device set over the shared
// read-only modules and translation cache.  Safe to call concurrently
// with sibling domains executing (microreboot).
func NewSystemShared(si *SharedImage) (*System, error) {
	mach := hw.NewMachine(0, 256)
	v := vm.NewWithCache(mach, si.Cfg, si.Cache)
	svaos.Install(v)
	if si.Prog != nil {
		si.Prog.Attach(v.Telemetry)
	}
	if err := v.LoadModule(si.Img.Kernel, false); err != nil {
		return nil, err
	}
	for _, m := range si.Extra {
		if err := v.LoadModule(m, true); err != nil {
			return nil, err
		}
	}
	// Sharing compiled closures is only sound when every domain resolved
	// the same addresses; refuse to boot a divergent layout.
	if err := si.Cache.AdoptLayout(v.LayoutFingerprint()); err != nil {
		return nil, err
	}
	sys := &System{VM: v, Img: si.Img, Prog: si.Prog, Extra: si.Extra}
	if err := sys.Boot(); err != nil {
		return nil, err
	}
	return sys, nil
}

// Boot runs kernel_entry on a fresh kernel stack.
func (s *System) Boot() error {
	entry := s.VM.FuncByName(s.Img.Entry)
	if entry == nil {
		return fmt.Errorf("kernel: no entry function")
	}
	top, err := s.VM.AllocKernelStack(KStackSize)
	if err != nil {
		return err
	}
	ex, err := s.VM.NewExec(entry, []uint64{top}, top, hw.PrivKernel)
	if err != nil {
		return err
	}
	s.VM.SetExec(ex)
	s.VM.StepBudget = s.VM.Counters.Steps + 50_000_000
	if _, err := s.VM.Run(); err != nil {
		return fmt.Errorf("kernel: boot: %w", err)
	}
	s.boots++
	return nil
}

// RegisterProgram installs a user program in the kernel's exec table (the
// boot loader writing the "filesystem").
func (s *System) RegisterProgram(name string, fn *ir.Function) error {
	addr := s.VM.FuncAddr(fn)
	if addr == 0 {
		return fmt.Errorf("kernel: program %s not loaded", name)
	}
	base, ok := s.VM.GlobalAddrByName("prog_table")
	if !ok {
		return fmt.Errorf("kernel: no prog_table")
	}
	const entSize = 32 // [24]i8 name + i64 addr
	for i := 0; i < 16; i++ {
		ent := base + uint64(i*entSize)
		cur, err := s.VM.Mach.Phys.Load(ent+24, 8)
		if err != nil {
			return err
		}
		if cur != 0 {
			continue
		}
		nb := make([]byte, 24)
		copy(nb, name)
		if err := s.VM.MemWriteBytes(ent, nb); err != nil {
			return err
		}
		return s.VM.Mach.Phys.Store(ent+24, addr, 8)
	}
	return fmt.Errorf("kernel: prog_table full")
}

// SpawnUser creates an execution state running fn(arg) in user mode on a
// fresh user stack, with traps landing on the boot task's kernel stack.
// It returns after installing the state; call s.VM.Run() to execute.
// The boot task (pid 1) becomes the current task again, so consecutive
// spawns behave like successive programs run by init.
func (s *System) SpawnUser(fn *ir.Function, arg uint64) error {
	kstackTop, err := s.taskKStack(1)
	if err != nil {
		return err
	}
	t0, err := s.TaskPtr(1)
	if err != nil {
		return err
	}
	var layout ir.Layout
	taskT := ir.NamedStruct("task_t")
	stateOff := uint64(layout.FieldOffset(taskT, 1))
	if err := s.VM.Mach.Phys.Store(t0+stateOff, TaskRunnable, 8); err != nil {
		return err
	}
	// Fresh program image: the boot task's heap break rewinds to its
	// arena base (the arena itself is reused across spawns).
	brkBaseOff := uint64(layout.FieldOffset(taskT, 9))
	brkCurOff := uint64(layout.FieldOffset(taskT, 10))
	base, err := s.VM.Mach.Phys.Load(t0+brkBaseOff, 8)
	if err != nil {
		return err
	}
	if base != 0 {
		if err := s.VM.Mach.Phys.Store(t0+brkCurOff, base, 8); err != nil {
			return err
		}
	}
	for _, g := range []string{"current_task", "sched_target"} {
		addr, ok := s.VM.GlobalAddrByName(g)
		if !ok {
			return fmt.Errorf("kernel: no global %s", g)
		}
		if err := s.VM.Mach.Phys.Store(addr, t0, 8); err != nil {
			return err
		}
	}
	ex, err := s.VM.NewExec(fn, userArgs(fn, arg), UserStackTop-16, hw.PrivUser)
	if err != nil {
		return err
	}
	ex.SetKStackTop(kstackTop)
	s.VM.SetExec(ex)
	return nil
}

// RunUser spawns fn(arg) and runs it to completion, returning its value.
func (s *System) RunUser(fn *ir.Function, arg uint64, budget uint64) (uint64, error) {
	if err := s.SpawnUser(fn, arg); err != nil {
		return 0, err
	}
	if budget == 0 {
		budget = 500_000_000
	}
	s.VM.StepBudget = s.VM.Counters.Steps + budget
	return s.VM.Run()
}

func userArgs(fn *ir.Function, arg uint64) []uint64 {
	args := make([]uint64, len(fn.Params))
	if len(args) > 0 {
		args[0] = arg
	}
	return args
}

// taskKStack reads pid's kernel-stack top out of the guest task struct.
func (s *System) taskKStack(pid int) (uint64, error) {
	t, err := s.TaskPtr(pid)
	if err != nil {
		return 0, err
	}
	var layout ir.Layout
	off := layout.FieldOffset(ir.NamedStruct("task_t"), 3)
	return s.VM.Mach.Phys.Load(t+uint64(off), 8)
}

// TaskPtr returns the guest address of pid's task struct.
func (s *System) TaskPtr(pid int) (uint64, error) {
	base, ok := s.VM.GlobalAddrByName("pid_table")
	if !ok {
		return 0, fmt.Errorf("kernel: no pid_table")
	}
	t, err := s.VM.Mach.Phys.Load(base+uint64(pid)*8, 8)
	if err != nil {
		return 0, err
	}
	if t == 0 {
		return 0, fmt.Errorf("kernel: pid %d has no task", pid)
	}
	return t, nil
}

// callKernel runs a kernel function serially on the boot CPU — host glue
// playing the boot loader (smp_spawn, smp_finish).  Must not be called
// while virtual CPUs are running.
func (s *System) callKernel(name string, args ...uint64) (uint64, error) {
	f := s.VM.FuncByName(name)
	if f == nil {
		return 0, fmt.Errorf("kernel: no function %s", name)
	}
	top, err := s.taskKStack(1)
	if err != nil {
		return 0, err
	}
	ex, err := s.VM.NewExec(f, args, top, hw.PrivKernel)
	if err != nil {
		return 0, err
	}
	s.VM.SetExec(ex)
	s.VM.StepBudget = s.VM.Counters.Steps + 10_000_000
	return s.VM.Run()
}

// SpawnSMP fabricates a user task running fn(arg), parked in the
// TaskSMPReady state until RunSMP dispatches it to a virtual CPU.  Spawning
// is serialized on the boot CPU: the stack free lists it manipulates are
// guest globals with no cross-CPU discipline.
func (s *System) SpawnSMP(fn *ir.Function, arg uint64) (uint64, error) {
	addr := s.VM.FuncAddr(fn)
	if addr == 0 {
		return 0, fmt.Errorf("kernel: program %s not loaded", fn.Name())
	}
	pid, err := s.callKernel("smp_spawn", addr, arg)
	if err != nil {
		return 0, err
	}
	if int64(pid) < 0 {
		return 0, fmt.Errorf("kernel: smp_spawn: errno %d", -int64(pid))
	}
	return pid, nil
}

// HostPanicError wraps a panic that escaped a virtual CPU's interpreter
// during RunSMP.  Panics cannot cross goroutines, so the dispatch loop
// absorbs them into this error; the fault campaign classifies it as a host
// escape.
type HostPanicError struct {
	CPU int
	Val any
}

func (e *HostPanicError) Error() string {
	return fmt.Sprintf("host panic on vcpu %d: %v", e.CPU, e.Val)
}

// SMPRun is one virtual CPU's outcome from RunSMP.
type SMPRun struct {
	CPU      int
	Pids     []uint64 // tasks this CPU claimed and ran, in order
	Rets     []uint64 // their user-function return values
	Err      error    // first failure (ends this CPU's dispatch loop)
	Cycles   uint64   // virtual cycles this CPU consumed during the run
	Syscalls uint64   // traps dispatched on this CPU during the run
}

// RunSMP dispatches every parked SMP task across ncpu virtual CPUs and
// waits for all of them.  Each CPU's host goroutine loops: activate
// smp_take, which CAS-claims one task from its static partition (pid mod
// ncpu) and load.integers into it; the task's user function returning ends
// the activation, and the loop re-enters smp_take until the partition
// drains.  Completed tasks are reaped serially afterwards.  budget is the
// per-activation step budget (0 = default).  The first call fixes the
// machine's CPU count; later calls must pass the same ncpu.
func (s *System) RunSMP(ncpu int, budget uint64) ([]SMPRun, error) {
	if ncpu < 1 || ncpu > MaxCPUs {
		return nil, fmt.Errorf("kernel: RunSMP with %d CPUs (max %d)", ncpu, MaxCPUs)
	}
	if s.vcpus == nil {
		vcpus, err := s.VM.EnableSMP(ncpu)
		if err != nil {
			return nil, err
		}
		s.vcpus = vcpus
	}
	if len(s.vcpus) != ncpu {
		return nil, fmt.Errorf("kernel: machine has %d CPUs, RunSMP asked for %d", len(s.vcpus), ncpu)
	}
	takeFn := s.VM.FuncByName("smp_take")
	if takeFn == nil {
		return nil, fmt.Errorf("kernel: no smp_take")
	}
	claimedBase, ok := s.VM.GlobalAddrByName("smp_claimed")
	if !ok {
		return nil, fmt.Errorf("kernel: no smp_claimed")
	}
	if budget == 0 {
		budget = 500_000_000
	}
	// Dispatch-loop kernel stacks, allocated serially up front (the stack
	// cursor lives on the boot VM and is not meant for concurrent use).
	tops := make([]uint64, ncpu)
	for i := range tops {
		t, err := s.VM.AllocKernelStack(KStackSize)
		if err != nil {
			return nil, err
		}
		tops[i] = t
	}
	runs := make([]SMPRun, ncpu)
	var wg sync.WaitGroup
	for i := 0; i < ncpu; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := s.vcpus[i]
			r := &runs[i]
			r.CPU = i
			startCyc, startTraps := v.CPU.Cycles, v.Counters.Traps
			for {
				ex, err := v.NewExec(takeFn, []uint64{uint64(i), uint64(ncpu)}, tops[i], hw.PrivKernel)
				if err != nil {
					r.Err = err
					break
				}
				v.SetExec(ex)
				v.StepBudget = v.Counters.Steps + budget
				ret, err := func() (ret uint64, err error) {
					defer func() {
						if rec := recover(); rec != nil {
							err = &HostPanicError{CPU: i, Val: rec}
						}
					}()
					return v.Run()
				}()
				if err != nil {
					r.Err = err
					break
				}
				claimed, err := s.VM.Mach.Phys.Load(claimedBase+uint64(i)*8, 8)
				if err != nil {
					r.Err = err
					break
				}
				if claimed == 0 {
					break // partition drained: smp_take found nothing
				}
				r.Pids = append(r.Pids, claimed)
				r.Rets = append(r.Rets, ret)
			}
			r.Cycles = v.CPU.Cycles - startCyc
			r.Syscalls = v.Counters.Traps - startTraps
		}(i)
	}
	wg.Wait()
	// Reap on the boot CPU, strictly after every dispatcher has joined.
	for _, r := range runs {
		for _, pid := range r.Pids {
			if _, err := s.callKernel("smp_finish", pid); err != nil {
				return runs, err
			}
		}
	}
	return runs, nil
}

// PeekGlobal reads an i64 kernel global (tests and the exploit harness).
func (s *System) PeekGlobal(name string, off uint64) (uint64, error) {
	base, ok := s.VM.GlobalAddrByName(name)
	if !ok {
		return 0, fmt.Errorf("kernel: no global %s", name)
	}
	return s.VM.Mach.Phys.Load(base+off, 8)
}

// ConsoleOutput returns everything the guest printed.
func (s *System) ConsoleOutput() string { return s.VM.Mach.Console.Output() }

// Compile runs the safety-checking compiler over a kernel image in the
// as-tested configuration (mm/lib/character drivers excluded).
func Compile(img *Image) (*safety.Program, error) {
	return safety.Compile(SafetyConfig(true), img.Kernel)
}
