package main

import (
	"fmt"
	"strings"
	"time"

	"sva/internal/apps"
	"sva/internal/hbench"
	"sva/internal/ir"
	"sva/internal/kernel"
	"sva/internal/netload"
	"sva/internal/userland"
	"sva/internal/vm"
)

// prog is one guest program a uniprocessor pass runs.
type prog struct {
	name string // metric name (op.<name>.*)
	fn   string // guest entry function
	arg  uint64 // iterations (Table 7 programs) or units (apps)
	// units: an op is one unit of arg (apps); otherwise an op is one syscall.
	units bool
}

// workload is one benchmark input set.  Uniprocessor workloads run their
// programs on one booted system; net boots a fresh 2-VCPU machine per pass.
type workload struct {
	name  string
	image func() *userland.U
	progs []prog
	net   bool
}

// Net cell sizes.  Saturation cells offer back-to-back arrivals so the
// service rate sets throughput; load cells offer a mean gap per queue so
// latency measures service plus moderate queueing (the -table=net regimes).
const (
	netVCPUs        = 2
	netPerQueue     = 1500
	netLoadGap      = 8000
	netWarmPerQueue = 64
)

var workloads = []*workload{
	{name: "syscall", image: hbench.BuildBenchModule, progs: tableProgs(
		"lat_getpid", "lat_getrusage", "lat_gettimeofday", "lat_sbrk", "lat_sigaction", "lat_write")},
	{name: "proc", image: hbench.BuildBenchModule, progs: tableProgs(
		"lat_fork", "lat_forkexec", "lat_pipe", "lat_openclose")},
	{name: "apps", image: apps.BuildAppsModule, progs: appProgs("lame", "gcc", "bzip2")},
	{name: "net", image: netload.BuildModule, net: true},
}

// allProgs lists every program of every workload, in workload order: the
// op.<prog>.* layer metrics.
func allProgs() []prog {
	var ps []prog
	for _, w := range workloads {
		ps = append(ps, w.progs...)
	}
	return ps
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// tableProgs takes Table 7 programs at their hbench iteration counts.
func tableProgs(fns ...string) []prog {
	var ps []prog
	for _, fn := range fns {
		for _, op := range hbench.LatencyOps {
			if op.Prog == fn {
				ps = append(ps, prog{name: strings.TrimPrefix(fn, "lat_"), fn: fn, arg: op.Iters})
			}
		}
	}
	if len(ps) != len(fns) {
		panic(fmt.Sprintf("bench: Table 7 programs %v not all in hbench.LatencyOps", fns))
	}
	return ps
}

// appProgs takes Table 5 applications at their apps.Local() units.
func appProgs(names ...string) []prog {
	var ps []prog
	for _, name := range names {
		for _, w := range apps.Local() {
			if w.Name == name {
				ps = append(ps, prog{name: name, fn: w.Prog, arg: w.Units, units: true})
			}
		}
	}
	if len(ps) != len(names) {
		panic(fmt.Sprintf("bench: apps %v not all in apps.Local()", names))
	}
	return ps
}

// boot builds the workload image and boots it under cfg: the set-up a user
// of the workload pays once per machine.
func (w *workload) boot(cfg vm.Config) (*kernel.System, *userland.U, error) {
	u := w.image()
	sys, err := kernel.NewSystem(cfg, true, u.M)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: boot %v: %w", w.name, cfg, err)
	}
	// fork+exec looks the exec target up in the kernel's program table.
	if f := u.M.Func("nullprog.start"); f != nil {
		if err := sys.RegisterProgram("nullprog", f); err != nil {
			return nil, nil, err
		}
	}
	return sys, u, nil
}

// target is one booted configuration of a workload.  pass(i) runs pass
// number i, whose inputs derive from the seed and i alone, so the same
// pass number offers identical work to the sva-safe system, its native
// twin and the traced rerun.
type target interface {
	pass(i int, tr *tracer) (passResult, error)
}

func (w *workload) newTarget(cfg vm.Config, seed uint64) (target, error) {
	if w.net {
		u := w.image()
		si, err := kernel.BuildShared(cfg, true, u.M)
		if err != nil {
			return nil, fmt.Errorf("net: build %v: %w", cfg, err)
		}
		return &netTarget{seed: seed, si: si, server: u.M.Func("net_server")}, nil
	}
	sys, u, err := w.boot(cfg)
	if err != nil {
		return nil, err
	}
	t := &uniTarget{w: w, seed: seed, sys: sys}
	for _, p := range w.progs {
		f := u.M.Func(p.fn)
		if f == nil {
			return nil, fmt.Errorf("%s: no program %s", w.name, p.fn)
		}
		t.fns = append(t.fns, f)
	}
	return t, nil
}

// progSample is one program run inside a pass.
type progSample struct {
	ops, cycles uint64
	hostNs      int64
	ret         int64
}

// passResult is everything one pass measured.
type passResult struct {
	hostNs    int64  // host time of the timed part
	allocB    uint64 // Go heap bytes allocated during the timed part
	ops       uint64 // completed ops: syscalls, app units or valid replies
	attempted uint64 // ops attempted: completed ops plus failed ones
	failed    uint64 // failed ops plus recovery events and violations
	cycles    uint64 // virtual cycles, summed over VCPUs
	makespan  uint64 // largest per-VCPU virtual-cycle delta
	steps     uint64 // guest instructions, summed over VCPUs
	trans     uint64 // functions translated during the timed part
	progs     []progSample
	cell      *cellResult  // net only
	layer     *layerSample // traced passes only
}

// uniTarget runs a uniprocessor workload's programs on one system.
type uniTarget struct {
	w    *workload
	seed uint64
	sys  *kernel.System
	fns  []*ir.Function
}

// progBudget bounds each program run's interpreted steps.
const progBudget = 8_000_000_000

func (t *uniTarget) pass(i int, tr *tracer) (passResult, error) {
	v := t.sys.VM
	ls := tr.beginPass(v)
	pr := passResult{progs: make([]progSample, len(t.w.progs))}
	c0, steps0, trans0 := v.CPU.Cycles, v.Counters.Steps, v.Counters.Translations
	faults0 := faults(v)
	order := permutation(t.seed, i, len(t.w.progs))
	passSpan := tr.begin("pass", i, 0)
	a0 := heapAllocs()
	start := time.Now()
	for _, k := range order {
		p, ps := t.w.progs[k], &pr.progs[k]
		span := tr.begin(p.name, i, passSpan)
		pc, traps, pstart := v.CPU.Cycles, v.Counters.Traps, time.Now()
		ret, err := t.sys.RunUser(t.fns[k], p.arg, progBudget)
		ps.hostNs = time.Since(pstart).Nanoseconds()
		tr.end(span)
		if err != nil {
			return pr, fmt.Errorf("%s pass %d: %s: %w", t.w.name, i, p.fn, err)
		}
		ps.cycles, ps.ret = v.CPU.Cycles-pc, int64(ret)
		ps.ops = v.Counters.Traps - traps
		if p.units {
			ps.ops = p.arg
		}
		pr.attempted += ps.ops
		if ps.ret < 0 {
			pr.failed += ps.ops
		} else {
			pr.ops += ps.ops
		}
	}
	pr.hostNs = time.Since(start).Nanoseconds()
	pr.allocB = heapAllocs() - a0
	tr.end(passSpan)
	pr.cycles = v.CPU.Cycles - c0
	pr.makespan = pr.cycles
	pr.steps = v.Counters.Steps - steps0
	pr.trans = v.Counters.Translations - trans0
	pr.failed += faults(v) - faults0
	pr.layer = tr.endPass(v, ls, pr.cycles, pr.ops)
	return pr, nil
}

// netTarget serves one saturation cell per pass on a fresh machine booted
// from a shared image, so passes are independent and equally sized.
type netTarget struct {
	seed   uint64
	si     *kernel.SharedImage
	server *ir.Function
}

func (t *netTarget) pass(i int, tr *tracer) (passResult, error) {
	passSpan := tr.begin("pass", i, 0)
	defer tr.end(passSpan)
	span := tr.begin("boot+warm", i, passSpan)
	sys, err := t.warmMachine()
	tr.end(span)
	if err != nil {
		return passResult{}, err
	}
	v := sys.VM
	ls := tr.beginPass(v)
	c0 := v.CPU.Cycles
	steps0, trans0, faults0 := vcpuSum(v, stepsOf), vcpuSum(v, transOf), vcpuSum(v, faults)
	span = tr.begin("RunSMP", i, passSpan)
	c, err := serveCell(sys, t.server, newNetGen(mix(t.seed, uint64(i)), netVCPUs, netPerQueue, 0))
	tr.end(span)
	if err != nil {
		return passResult{}, fmt.Errorf("net pass %d: %w", i, err)
	}
	// Latency comes from the offered-load cells; a saturation cell keeps
	// only its counters.
	c.lats, c.lags = nil, nil
	pr := passResult{
		hostNs:    c.hostNs,
		allocB:    c.allocB,
		ops:       uint64(c.valid),
		attempted: uint64(c.issued),
		failed:    uint64(c.failed()) + vcpuSum(v, faults) - faults0,
		cycles:    c.busy,
		makespan:  c.makespan,
		steps:     vcpuSum(v, stepsOf) - steps0,
		trans:     vcpuSum(v, transOf) - trans0,
		cell:      &c,
	}
	// The profiler sees VCPU 0 only (siblings run unprofiled), so the
	// traced per-op views divide by the replies queue 0 carried.
	pr.layer = tr.endPass(v, ls, v.CPU.Cycles-c0, uint64(c.queue0Valid))
	return pr, nil
}

// warmMachine boots a fresh machine and serves a small cell on it, so the
// timed cell finds its serving path translated and its rings attached.
func (t *netTarget) warmMachine() (*kernel.System, error) {
	sys, err := kernel.NewSystemShared(t.si)
	if err != nil {
		return nil, fmt.Errorf("net: boot: %w", err)
	}
	c, err := serveCell(sys, t.server, newNetGen(mix(t.seed, 1<<62), netVCPUs, netWarmPerQueue, 0))
	if err != nil {
		return nil, fmt.Errorf("net: warm-up cell: %w", err)
	}
	if c.failed() != 0 {
		return nil, fmt.Errorf("net: warm-up cell: %d failed requests", c.failed())
	}
	return sys, nil
}

// loadCells serves the offered-load cells on fresh warmed machines: the
// latency samples of virt_p50/p99 and the generator's release lateness.
func (t *netTarget) loadCells(n int) ([]cellResult, error) {
	var cells []cellResult
	for k := 0; k < n; k++ {
		sys, err := t.warmMachine()
		if err != nil {
			return nil, err
		}
		c, err := serveCell(sys, t.server, newNetGen(mix(t.seed, 1<<63+uint64(k)), netVCPUs, netPerQueue, netLoadGap))
		if err != nil {
			return nil, fmt.Errorf("net load cell %d: %w", k, err)
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// faults counts one VCPU's recovery events (oops, fail-stop, watchdog,
// quarantine) and recorded safety violations: each is a failure.
func faults(v *vm.VM) uint64 {
	c := v.Counters
	return c.Oops + c.FailStops + c.WatchdogFaults + c.Quarantines + uint64(len(v.Violations))
}

func stepsOf(v *vm.VM) uint64 { return v.Counters.Steps }
func transOf(v *vm.VM) uint64 { return v.Counters.Translations }

// vcpuSum sums f over every virtual CPU of v's machine.
func vcpuSum(v *vm.VM, f func(*vm.VM) uint64) uint64 {
	var n uint64
	for _, c := range v.VCPUs() {
		n += f(c)
	}
	return n
}

// mix derives a stream seed from the workload seed and a stream index.
func mix(seed, i uint64) uint64 {
	s := seed ^ i*0xd1b54a32d192ed03
	return splitmix(&s)
}

// permutation is pass i's seeded program order (Fisher-Yates).
func permutation(seed uint64, i, n int) []int {
	p := make([]int, n)
	for k := range p {
		p[k] = k
	}
	s := mix(seed, uint64(i))
	for k := n - 1; k > 0; k-- {
		j := int(splitmix(&s) % uint64(k+1))
		p[k], p[j] = p[j], p[k]
	}
	return p
}
