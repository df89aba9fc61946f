// Package campaign drives fault-injection campaigns against booted SVA
// kernels: for every (fault class, seed) pair it boots a fresh safe-config
// system (from an image its battery builds once), arms the injector, runs
// a guest syscall battery, and classifies the outcome.  The paper's
// robustness claim becomes the campaign's single acceptance criterion:
// across every class and seed, the host-escape count is zero — injected
// hardware faults and corrupted metadata surface as detected violations,
// oops unwinds, or structured fail-stops, never as a crash of the SVM
// itself.
package campaign

import (
	"errors"
	"fmt"
	"sync"

	"sva/internal/abi"
	"sva/internal/faultinject"
	"sva/internal/hbench"
	"sva/internal/ir"
	"sva/internal/kernel"
	"sva/internal/userland"
	"sva/internal/vm"
)

// Outcome classifies what one seeded injection run did to the system.
type Outcome int

const (
	// Detected: a run-time check caught the fault as a safety violation.
	Detected Outcome = iota
	// Oops: the fault was recovered by the EFAULT unwind path (the guest
	// syscall aborted; the kernel kept running).
	Oops
	// FailStop: execution terminated with a structured diagnostic (guest
	// fault at top level, watchdog, fail-stop, budget exhaustion).
	FailStop
	// Tolerated: the battery completed normally despite the injections
	// (e.g. a flipped bit in dead data, a dropped frame that was retried).
	Tolerated
	// Escape: the host VM panicked or its invariants broke — the one
	// outcome the SVM must never produce.
	Escape

	numOutcomes
)

var outcomeNames = [numOutcomes]string{
	Detected:  "detected",
	Oops:      "oops",
	FailStop:  "fail-stop",
	Tolerated: "tolerated",
	Escape:    "ESCAPE",
}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Result is one classified injection run.
type Result struct {
	Class   faultinject.Class
	Seed    uint64
	Prog    string // battery program the run executed
	Outcome Outcome
	Fired   uint64 // injections that actually fired
	Detail  string // diagnostic (error text, escape reason)
}

// Summary aggregates a campaign: per-class outcome counts in class order.
type Summary struct {
	Classes []faultinject.Class
	// Counts[i][o] is how many runs of Classes[i] ended in Outcome o.
	Counts [][numOutcomes]int
	// Fired[i] totals injections that fired across Classes[i]'s runs.
	Fired []uint64
}

// Escapes returns the total host-escape count — the number that must be
// zero for the robustness claim to hold.
func (s *Summary) Escapes() int {
	n := 0
	for _, row := range s.Counts {
		n += row[Escape]
	}
	return n
}

// Total returns the number of runs in the campaign.
func (s *Summary) Total() int {
	n := 0
	for _, row := range s.Counts {
		for _, c := range row {
			n += c
		}
	}
	return n
}

// prog names one battery program and its iteration count.
type prog struct {
	Name  string
	Iters uint64
}

// battery lists the guest programs a campaign cycles through, chosen to
// exercise distinct kernel paths: pure traps, VFS, the heap, signals,
// pipes+fork (scheduling and IPC), raw device I/O and the network stack.
// Iteration counts are scaled down from the benchmark's so a full campaign
// stays fast; each run still executes hundreds of syscalls.
var battery = []prog{
	{"lat_getpid", 400},
	{"lat_openclose", 60},
	{"lat_sbrk", 300},
	{"lat_sigaction", 150},
	{"lat_write", 80},
	{"lat_pipe", 30},
	{"chaos_disk", 40},
	{"chaos_net", 80},
}

// classBattery narrows the battery for classes whose seam only a specific
// subsystem reaches: disk faults need /dev/rawdisk traffic, NIC faults
// need the network syscalls, and interrupt-context-restore faults need the
// fork/scheduler path that actually calls llva.load.integer.  Other
// classes rotate through the full battery by seed.
var classBattery = map[faultinject.Class][]prog{
	faultinject.ClassDiskIO:    {{"chaos_disk", 40}},
	faultinject.ClassNetIO:     {{"chaos_net", 80}, {"chaos_netring", 40}},
	faultinject.ClassICRestore: {{"lat_pipe", 30}},
}

// buildChaosProgs emits the campaign-only guest programs that drive the
// device seams the benchmark battery never touches.
func buildChaosProgs() *userland.U {
	u := userland.New("chaosprogs")
	b := u.B

	// chaos_disk: stream sector-sized writes and read-backs through the
	// raw block device, so every iteration crosses the disk driver.
	dname := u.StrGlobal("s_rawdisk", "/dev/rawdisk")
	u.Prog("chaos_disk")
	buf := b.Alloca(ir.ArrayOf(512, ir.I8), "buf")
	b.Store(ir.I8c('d'), b.Index(buf, ir.I32c(0)))
	fd := u.Open(dname(), 0)
	bad := b.ICmp(ir.PredSLT, fd, ir.I64c(0))
	b.If(bad, func() { b.Ret(ir.I64c(-20)) })
	b.For("i", ir.I64c(0), b.Param(0), ir.I64c(1), func(i ir.Value) {
		u.Lseek(fd, ir.I64c(0), ir.I64c(0))
		u.Write(fd, u.Addr(buf), ir.I64c(512))
		u.Lseek(fd, ir.I64c(0), ir.I64c(0))
		u.Read(fd, u.Addr(buf), ir.I64c(512))
	})
	u.Close(fd)
	b.Ret(ir.I64c(0))

	// chaos_net: ping frames through the loopback NIC (send then drain).
	u.Prog("chaos_net")
	nb := b.Alloca(ir.ArrayOf(64, ir.I8), "nb")
	b.Store(ir.I8c('n'), b.Index(nb, ir.I32c(0)))
	b.For("i", ir.I64c(0), b.Param(0), ir.I64c(1), func(i ir.Value) {
		u.Trap(abi.SysNetSend, u.Addr(nb), ir.I64c(64))
		u.Trap(abi.SysNetRecv, u.Addr(nb), ir.I64c(64))
	})
	b.Ret(ir.I64c(0))

	// chaos_netring: drive the descriptor-ring NIC path — pump request
	// frames onto this CPU's Tx ring (they loop back as Rx traffic), then
	// serve them, so every iteration crosses post/doorbell/reap with the
	// injector armed on the wire.
	u.Prog("chaos_netring")
	b.For("i", ir.I64c(0), b.Param(0), ir.I64c(1), func(i ir.Value) {
		u.Trap(abi.SysNetPump, ir.I64c(8))
		u.Trap(abi.SysNetServe, ir.I64c(64))
	})
	b.Ret(ir.I64c(0))

	u.SealAll()
	return u
}

// buildSMPProbe emits the SMP battery's lookup-heavy worker.
// smp_probe(iters) makes one getpid per iteration and stores into a stack
// table at an index folded from a loaded cursor: no elision rule removes
// that bounds check (the base is a stack object, not a global, and the
// index has no static range), so every iteration pays a metapool lookup
// and the splay class has a seam on every virtual CPU.
func buildSMPProbe() *userland.U {
	u := userland.New("smpprobe")
	b := u.B
	u.Prog("smp_probe")
	tab := b.Alloca(ir.ArrayOf(16, ir.I64), "tab")
	cur := b.Alloca(ir.I64, "cur")
	b.Store(ir.I64c(0), cur)
	b.For("i", ir.I64c(0), b.Param(0), ir.I64c(1), func(i ir.Value) {
		j := b.SRem(b.Add(b.Load(cur), u.GetPID()), ir.I64c(16))
		b.Store(i, b.Index(tab, j))
		b.Store(j, cur)
	})
	b.Ret(ir.I64c(0))
	u.SealAll()
	return u
}

// watchdogFuel bounds any single trap handler during campaign runs, so a
// fault that livelocks a handler becomes a classified watchdog fault.
const watchdogFuel = 5_000_000

// batteryImage is one battery's shared fixture: its user programs and
// the ConfigSafe kernel image built and safety-compiled over them once.
// Every cell of the battery boots a fresh system from it, as the
// cross-domain campaign's domains do, instead of rebuilding the kernel.
type batteryImage struct {
	once  sync.Once
	progs []*userland.U
	img   *kernel.SharedImage
	err   error
}

var uniImage, smpImage batteryImage

// boot builds the image on first use and boots a fresh system from it.
func (b *batteryImage) boot(build ...func() *userland.U) (*kernel.System, error) {
	b.once.Do(func() {
		var mods []*ir.Module
		for _, f := range build {
			u := f()
			b.progs = append(b.progs, u)
			mods = append(mods, u.M)
		}
		b.img, b.err = kernel.BuildShared(vm.ConfigSafe, true, mods...)
	})
	if b.err != nil {
		return nil, b.err
	}
	return kernel.NewSystemShared(b.img)
}

// fn resolves a battery program across the image's modules (nil if none).
func (b *batteryImage) fn(name string) *ir.Function {
	for _, u := range b.progs {
		if f := u.M.Func(name); f != nil {
			return f
		}
	}
	return nil
}

// RunOne boots a fresh ConfigSafe system, arms one injector and runs one
// battery program (selected by seed), classifying the outcome.  The boot
// itself runs un-injected: a campaign measures the fault response of a
// healthy kernel, not of a half-built one.
func RunOne(class faultinject.Class, seed uint64) (res Result) {
	res = Result{Class: class, Seed: seed}
	defer func() {
		if r := recover(); r != nil {
			res.Outcome = Escape
			res.Detail = fmt.Sprintf("panic escaped the VM: %v", r)
		}
	}()

	sys, err := uniImage.boot(hbench.BuildBenchModule, buildChaosProgs)
	if err != nil {
		res.Outcome = Escape
		res.Detail = fmt.Sprintf("clean boot failed: %v", err)
		return res
	}

	progs := battery
	if pb, ok := classBattery[class]; ok {
		progs = pb
	}
	pick := progs[seed%uint64(len(progs))]
	res.Prog = pick.Name
	f := uniImage.fn(pick.Name)
	if f == nil {
		res.Outcome = Escape
		res.Detail = "battery program missing: " + pick.Name
		return res
	}

	inj := faultinject.New(class, seed)
	sys.VM.InstallChaos(inj)
	sys.VM.WatchdogFuel = watchdogFuel

	v0 := len(sys.VM.Violations)
	c0 := sys.VM.Counters

	_, runErr := sys.RunUser(f, pick.Iters, 100_000_000)
	res.Fired = inj.Fired

	// Disarm before auditing, so the audit itself cannot fire injections.
	sys.VM.UninstallChaos()
	classifyOutcome(&res, sys, runErr, v0, c0)
	return res
}

// classifyOutcome audits an injected run and fills res.Outcome/Detail —
// the uniprocessor classification ladder, shared by RunOne and the
// cross-domain campaign's injected half.
func classifyOutcome(res *Result, sys *kernel.System, runErr error, v0 int, c0 vm.Counters) {
	if err := sys.VM.CheckHostInvariants(); err != nil {
		res.Outcome = Escape
		res.Detail = "host invariant broken: " + err.Error()
		return
	}
	c1 := sys.VM.Counters
	switch {
	case len(sys.VM.Violations) > v0:
		res.Outcome = Detected
		res.Detail = sys.VM.Violations[len(sys.VM.Violations)-1].Error()
	case c1.Oops > c0.Oops:
		res.Outcome = Oops
		if runErr != nil {
			res.Detail = runErr.Error()
		}
	case runErr != nil || c1.FailStops > c0.FailStops || c1.WatchdogFaults > c0.WatchdogFaults:
		res.Outcome = FailStop
		if runErr != nil {
			res.Detail = runErr.Error()
		}
	default:
		res.Outcome = Tolerated
	}
	if res.Outcome == FailStop && res.Detail == "" {
		res.Detail = "fail-stop counter advanced without a surfaced error"
	}
}

// SMPVCPUs is the virtual-CPU count of the campaign's default SMP variant.
const SMPVCPUs = 4

// RunOneSMP is RunOne's SMP variant at the default VCPU count.
func RunOneSMP(class faultinject.Class, seed uint64) Result {
	return RunOneSMPAt(class, seed, SMPVCPUs)
}

// RunOneSMPAt is RunOne's SMP variant: a fresh ConfigSafe system booted
// from the SMP battery's shared image, one armed injector, and the SMP
// battery (two smp_worker tasks and one smp_probe task per CPU)
// dispatched across vcpus virtual CPUs.  The battery is per-task syscalls
// only (the SMP dispatch contract), so I/O-seam classes (diskio, netio)
// may legitimately never fire here — the acceptance criterion stays what
// it was: zero host escapes.
func RunOneSMPAt(class faultinject.Class, seed uint64, vcpus int) (res Result) {
	res = Result{Class: class, Seed: seed, Prog: "smp_worker+smp_probe"}
	defer func() {
		if r := recover(); r != nil {
			res.Outcome = Escape
			res.Detail = fmt.Sprintf("panic escaped the VM: %v", r)
		}
	}()

	sys, err := smpImage.boot(hbench.BuildBenchModule, buildSMPProbe)
	if err != nil {
		res.Outcome = Escape
		res.Detail = fmt.Sprintf("clean boot failed: %v", err)
		return res
	}
	worker, probe := smpImage.fn("smp_worker"), smpImage.fn("smp_probe")
	for t := 0; t < 3*vcpus; t++ {
		fn := worker
		if t >= 2*vcpus {
			fn = probe
		}
		if _, err := sys.SpawnSMP(fn, 40+seed%20); err != nil {
			// Spawning runs un-injected; a failure here is a broken harness,
			// not a classified fault response.
			res.Outcome = Escape
			res.Detail = fmt.Sprintf("clean spawn failed: %v", err)
			return res
		}
	}

	// Arm before RunSMP: sibling VCPUs are cloned from the boot VM on the
	// first RunSMP call and inherit the injector and watchdog fuel.
	inj := faultinject.New(class, seed)
	sys.VM.InstallChaos(inj)
	sys.VM.WatchdogFuel = watchdogFuel

	v0 := sys.VM.MergedViolations()
	c0 := sys.VM.Counters

	runs, runErr := sys.RunSMP(vcpus, 20_000_000)
	res.Fired = inj.Fired
	sys.VM.UninstallChaos()

	firstErr := runErr
	for _, r := range runs {
		if r.Err != nil {
			var hp *kernel.HostPanicError
			if errors.As(r.Err, &hp) {
				res.Outcome = Escape
				res.Detail = r.Err.Error()
				return res
			}
			if firstErr == nil {
				firstErr = r.Err
			}
		}
	}
	var merged vm.Counters
	for _, v := range sys.VM.VCPUs() {
		if err := v.CheckHostInvariants(); err != nil {
			res.Outcome = Escape
			res.Detail = fmt.Sprintf("host invariant broken on vcpu %d: %v", v.CPUID(), err)
			return res
		}
		merged.Add(v.Counters)
	}

	switch {
	case sys.VM.MergedViolations() > v0:
		res.Outcome = Detected
	case merged.Oops > c0.Oops:
		res.Outcome = Oops
		if firstErr != nil {
			res.Detail = firstErr.Error()
		}
	case firstErr != nil || merged.FailStops > c0.FailStops || merged.WatchdogFaults > c0.WatchdogFaults:
		res.Outcome = FailStop
		if firstErr != nil {
			res.Detail = firstErr.Error()
		}
	default:
		res.Outcome = Tolerated
	}
	return res
}

// Run executes a full campaign: every class in classes × seeds 1..seedsPer,
// with up to workers concurrent runs (each on its own machine).  Results
// come back in deterministic (class, seed) order regardless of workers.
func Run(classes []faultinject.Class, seedsPer int, workers int) ([]Result, *Summary, error) {
	return runWith(RunOne, classes, seedsPer, workers)
}

// RunSMP executes the campaign's SMP variant (RunOneSMP per unit).
func RunSMP(classes []faultinject.Class, seedsPer int, workers int) ([]Result, *Summary, error) {
	return runWith(RunOneSMP, classes, seedsPer, workers)
}

// RunSMPAt executes the campaign's SMP variant at an explicit VCPU count
// (the 16-VCPU scaling gate drives this; the default stays SMPVCPUs).
func RunSMPAt(classes []faultinject.Class, seedsPer, workers, vcpus int) ([]Result, *Summary, error) {
	return runWith(func(c faultinject.Class, seed uint64) Result {
		return RunOneSMPAt(c, seed, vcpus)
	}, classes, seedsPer, workers)
}

func runWith(one func(faultinject.Class, uint64) Result, classes []faultinject.Class, seedsPer int, workers int) ([]Result, *Summary, error) {
	if seedsPer < 1 {
		seedsPer = 1
	}
	type unit struct {
		class faultinject.Class
		seed  uint64
	}
	var units []unit
	for _, c := range classes {
		for s := 1; s <= seedsPer; s++ {
			units = append(units, unit{c, uint64(s)})
		}
	}
	out := make([]Result, len(units))
	if workers > len(units) {
		workers = len(units)
	}
	if workers <= 1 {
		for i, u := range units {
			out[i] = one(u.class, u.seed)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					out[i] = one(units[i].class, units[i].seed)
				}
			}()
		}
		for i := range units {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}

	sum := &Summary{Classes: classes}
	sum.Counts = make([][numOutcomes]int, len(classes))
	sum.Fired = make([]uint64, len(classes))
	idx := map[faultinject.Class]int{}
	for i, c := range classes {
		idx[c] = i
	}
	for _, r := range out {
		i := idx[r.Class]
		sum.Counts[i][r.Outcome]++
		sum.Fired[i] += r.Fired
	}
	return out, sum, nil
}
