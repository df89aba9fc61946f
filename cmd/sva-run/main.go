// Command sva-run boots the guest kernel on the Secure Virtual Machine and
// runs a user program on it.
//
// Usage:
//
//	sva-run                         boot and print the banner
//	sva-run -config=sva-safe        boot the safety-checked kernel
//	sva-run -prog=hello             run a bundled demo program
//	sva-run -prog=pipeecho -arg=65536
//	sva-run -stats                  print the telemetry snapshot afterwards
//	sva-run -prog=hello -profile    attribute every virtual cycle of the run
//	sva-run -prog=hello -trace=-    dump the event trace as JSONL to stdout
//	sva-run -prog=hello -chaos=splay:7   run under seeded fault injection
//
// Configurations: native, sva-gcc, sva-llvm, sva-safe (§7.1).
//
// -chaos arms the deterministic fault injector (DESIGN.md §12) with a
// <class>:<seed> spec; classes are memflip, oom, diskio, netio, irq,
// icrestore and splay.  The run then reports what fired and how the SVM
// classified the outcome — a chaos run never exits through a Go panic.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	"sva/internal/faultinject"
	"sva/internal/kernel"
	"sva/internal/telemetry"
	"sva/internal/userland"
	"sva/internal/vm"
)

func main() {
	cfgName := flag.String("config", "sva-safe", "kernel configuration (native|sva-gcc|sva-llvm|sva-safe)")
	prog := flag.String("prog", "", "user program to run (hello|fileio|forkwait|pipeecho|sigping|execer|brkprobe)")
	arg := flag.Uint64("arg", 4096, "argument passed to the program")
	stats := flag.Bool("stats", false, "print the unified telemetry snapshot")
	profile := flag.Bool("profile", false, "attribute virtual cycles to guest functions and SVA ops")
	trace := flag.String("trace", "", "dump the structured event trace as JSONL to this file (- for stdout)")
	chaos := flag.String("chaos", "", "arm seeded fault injection: <class>:<seed> (memflip|oom|diskio|netio|irq|icrestore|splay)")
	cpuprofile := flag.String("cpuprofile", "", "write a host CPU profile (pprof) to this file")
	memprofile := flag.String("memprofile", "", "write a host heap profile (pprof) to this file at exit")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "sva-run:", err)
		os.Exit(1)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	cfgs := map[string]vm.Config{
		"native": vm.ConfigNative, "sva-gcc": vm.ConfigSVAGCC,
		"sva-llvm": vm.ConfigSVALLVM, "sva-safe": vm.ConfigSafe,
	}
	cfg, ok := cfgs[*cfgName]
	if !ok {
		fail(fmt.Errorf("unknown config %q", *cfgName))
	}

	u := userland.BuildTestPrograms()
	sys, err := kernel.NewSystem(cfg, true, u.M)
	if err != nil {
		fail(err)
	}
	if err := sys.RegisterProgram("execchild", u.M.Func("execchild.start")); err != nil {
		fail(err)
	}
	fmt.Print(sys.ConsoleOutput())
	sys.VM.Mach.Console.ResetOutput()

	if *profile {
		sys.VM.EnableProfiling()
	}
	if *trace != "" {
		sys.VM.EnableTrace(4096)
	}

	var inj *faultinject.Injector
	if *chaos != "" {
		class, seed, err := faultinject.ParseSpec(*chaos)
		if err != nil {
			fail(err)
		}
		inj = faultinject.New(class, seed)
		sys.VM.InstallChaos(inj)
		if sys.VM.WatchdogFuel == 0 {
			sys.VM.WatchdogFuel = 5_000_000
		}
	}

	var progCycles uint64
	if *prog != "" {
		f := u.M.Func(*prog)
		if f == nil {
			fail(fmt.Errorf("unknown program %q", *prog))
		}
		c0 := sys.VM.Mach.CPU.Cycles
		got, err := sys.RunUser(f, *arg, 0)
		progCycles = sys.VM.Mach.CPU.Cycles - c0
		fmt.Print(sys.ConsoleOutput())
		switch {
		case err != nil && inj != nil:
			// Under chaos a terminated guest is a classified outcome, not a
			// tool failure.
			fmt.Printf("%s(%d) terminated: %v\n", *prog, *arg, err)
		case err != nil:
			fail(err)
		default:
			fmt.Printf("%s(%d) = %d\n", *prog, *arg, int64(got))
		}
		if n := len(sys.VM.Violations); n > 0 {
			fmt.Printf("safety violations: %d (first: %v)\n", n, sys.VM.Violations[0])
		}
	}

	if inj != nil {
		c := sys.VM.Counters
		fmt.Printf("chaos: class=%s seed=%d fired=%d oops=%d fail-stops=%d watchdog=%d quarantines=%d\n",
			inj.Class, inj.Seed, inj.Fired, c.Oops, c.FailStops, c.WatchdogFaults, c.Quarantines)
		for _, rec := range inj.Records() {
			fmt.Printf("  inject %-16s %s\n", rec.Site, rec.Detail)
		}
		if n := inj.Dropped(); n > 0 {
			fmt.Printf("  (%d older injection records dropped)\n", n)
		}
		if err := sys.VM.CheckHostInvariants(); err != nil {
			fail(fmt.Errorf("HOST ESCAPE: invariants broken after chaos run: %w", err))
		}
	}

	snap := sys.VM.Telemetry.Snapshot()
	if *stats {
		printStats(snap)
	}
	if *profile && snap.Profile != nil {
		fmt.Print(snap.Profile.Format(20, progCycles))
	}
	if *trace != "" {
		if err := dumpTrace(*trace, sys.VM.Trace()); err != nil {
			fail(err)
		}
	}
}

// printStats renders the -stats view of a unified telemetry snapshot: the
// VM counters, per-pool check activity, elision counts and syscall mix.
func printStats(s telemetry.Snapshot) {
	c := s.VM
	fmt.Printf("steps=%d kernel-steps=%d traps=%d switches=%d checks(bounds=%d ls=%d ic=%d) translations=%d\n",
		c.Steps, c.KSteps, c.Traps, c.Switches, c.ChecksBounds, c.ChecksLS, c.ChecksIC, c.Translations)
	fmt.Printf("elided: bounds=%d ls=%d\n", c.ElidedBounds, c.ElidedLS)
	active := 0
	for _, p := range s.Checks.Pools {
		st := p.Stats
		if st.BoundsChecks+st.LSChecks+st.ElidedBounds+st.ElidedLS+st.Violations == 0 {
			continue
		}
		active++
		fmt.Printf("pool %-16s objs=%-5d bounds=%-7d b-elide=%-7d ls=%-5d pm-hit=%-7d tree-path=%-5d splay-depth=%d\n",
			p.Name, p.Objects, st.BoundsChecks, st.ElidedBounds, st.LSChecks,
			st.PageHits, st.CacheMisses, p.SplayDepth)
	}
	fmt.Printf("pools: %d total, %d with check activity; indirect-call checks=%d violations=%d\n",
		len(s.Checks.Pools), active, s.Checks.ICChecks, s.Checks.ICViolations)
	if len(s.Kernel.Syscalls) > 0 {
		nums := make([]int64, 0, len(s.Kernel.Syscalls))
		for n := range s.Kernel.Syscalls {
			nums = append(nums, n)
		}
		sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
		fmt.Print("syscalls:")
		for _, n := range nums {
			fmt.Printf(" %d:%d", n, s.Kernel.Syscalls[n])
		}
		fmt.Println()
	}
	if s.Static != nil {
		fmt.Printf("static: bounds inserted=%d elided=%d, ls inserted=%d elided=%d, ic=%d\n",
			s.Static.BoundsChecksInserted, s.Static.BoundsChecksElided,
			s.Static.LSChecksInserted, s.Static.LSChecksElided, s.Static.ICChecksInserted)
	}
}

// dumpTrace writes the trace ring as JSONL to path ("-" for stdout).
func dumpTrace(path string, t *telemetry.Trace) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if n := t.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "sva-run: trace ring overflowed, %d oldest events dropped\n", n)
	}
	return telemetry.WriteJSONL(w, t.Events())
}
