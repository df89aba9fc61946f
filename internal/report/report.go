// Package report regenerates every table of the paper's evaluation (§7)
// from the reproduction: porting effort (Table 4), application latency
// (Table 5), thttpd bandwidth (Table 6), kernel-operation latency
// (Table 7), kernel bandwidth (Table 8), static safety metrics (Table 9),
// the §7.2 exploit-detection table and the §5 verifier bug-injection
// experiment.  The same code backs cmd/sva-bench and the root-level Go
// benchmarks.
package report

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"sva/internal/apps"
	"sva/internal/exploits"
	"sva/internal/hbench"
	"sva/internal/hw"
	"sva/internal/ir"
	"sva/internal/kernel"
	"sva/internal/metapool"
	"sva/internal/safety"
	"sva/internal/svaops"
	"sva/internal/telemetry"
	"sva/internal/typecheck"
	"sva/internal/vm"
)

// Scale divides iteration counts for quick runs (1 = paper-shaped full run).
type Scale uint64

func (s Scale) apply(n uint64) uint64 {
	if s <= 1 {
		return n
	}
	n /= uint64(s)
	if n == 0 {
		n = 1
	}
	return n
}

// pct renders an overhead percentage versus a baseline duration.
func pct(base, other time.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (float64(other) - float64(base)) / float64(base)
}

// --- Table 4 ----------------------------------------------------------------

// Table4 reports the porting-effort ledger: per kernel section, the count
// of SVA-OS call sites, allocator-porting changes and analysis-improvement
// changes, against total emitted instructions (the LOC stand-in).
func Table4() string {
	img := kernel.Build()
	img.CountLOC()
	l := img.Ledger
	var sb strings.Builder
	sb.WriteString("Table 4: porting effort by kernel section\n")
	fmt.Fprintf(&sb, "%-18s %10s %8s %11s %10s %8s\n",
		"Section", "LOC", "SVA-OS", "Allocators", "Analysis", "%Total")
	subs := make([]string, 0, len(l.LOC))
	for s := range l.LOC {
		subs = append(subs, s)
	}
	sort.Strings(subs)
	var totLOC, totOS, totAl, totAn int
	for _, s := range subs {
		loc, os, al, an := l.LOC[s], l.SVAOS[s], l.Alloc[s], l.Analysis[s]
		totLOC, totOS, totAl, totAn = totLOC+loc, totOS+os, totAl+al, totAn+an
		fmt.Fprintf(&sb, "%-18s %10d %8d %11d %10d %7.2f%%\n",
			s, loc, os, al, an, 100*float64(os+al+an)/float64(max(loc, 1)))
	}
	fmt.Fprintf(&sb, "%-18s %10d %8d %11d %10d %7.2f%%\n",
		"Total", totLOC, totOS, totAl, totAn, 100*float64(totOS+totAl+totAn)/float64(max(totLOC, 1)))
	return sb.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// --- Tables 5 and 6 -----------------------------------------------------------

// AppRow is one measured Table 5 row.
type AppRow struct {
	Name     string
	SysShare float64 // measured kernel-instruction share under native
	Native   time.Duration
	OverGCC  float64
	OverLLVM float64
	OverSafe float64
	// Bytes moved (thttpd rows, for Table 6).
	Bytes uint64
}

// RunApps measures every Table 5 workload across the four configurations
// (serial shorthand for RunAppsN(scale, 1)).
func RunApps(scale Scale) ([]AppRow, error) { return RunAppsN(scale, 1) }

// RunAppsN fans the runs out across up to `workers` goroutines, one per
// kernel configuration.  Each configuration is an independent deterministic
// machine executing its workloads in table order, so the resulting rows are
// bit-identical to a serial run.
func RunAppsN(scale Scale, workers int) ([]AppRow, error) {
	r, err := apps.NewRunner()
	if err != nil {
		return nil, err
	}
	ws := apps.Local()
	for i := range ws {
		ws[i].Units = scale.apply(ws[i].Units)
	}
	times := make([][4]time.Duration, len(ws))
	native := make([]apps.Measurement, len(ws))
	err = forEach(workers, len(hbench.Configs), func(ci int) error {
		cfg := hbench.Configs[ci]
		for wi, w := range ws {
			m, err := r.Run(cfg, w)
			if err != nil {
				return err
			}
			times[wi][ci] = m.Elapsed
			if cfg == vm.ConfigNative {
				native[wi] = m
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]AppRow, 0, len(ws))
	for wi, w := range ws {
		row := AppRow{Name: w.Name, SysShare: native[wi].SysShare}
		if w.Mode >= 0 {
			row.Bytes = uint64(native[wi].Ret)
		}
		row.Native = times[wi][0]
		row.OverGCC = pct(times[wi][0], times[wi][1])
		row.OverLLVM = pct(times[wi][0], times[wi][2])
		row.OverSafe = pct(times[wi][0], times[wi][3])
		rows = append(rows, row)
	}
	return rows, nil
}

// Table5 renders application latency overheads.
func Table5(rows []AppRow) string {
	var sb strings.Builder
	sb.WriteString("Table 5: application latency overhead vs native\n")
	fmt.Fprintf(&sb, "%-16s %8s %12s %10s %10s %10s\n",
		"Test", "%Sys", "Native", "SVA-gcc", "SVA-llvm", "SVA-safe")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %7.1f%% %12s %9.1f%% %9.1f%% %9.1f%%\n",
			r.Name, 100*r.SysShare, r.Native.Round(time.Microsecond),
			r.OverGCC, r.OverLLVM, r.OverSafe)
	}
	return sb.String()
}

// Table6 renders thttpd bandwidth reduction (the thttpd rows of RunApps).
func Table6(rows []AppRow) string {
	var sb strings.Builder
	sb.WriteString("Table 6: thttpd bandwidth reduction vs native\n")
	fmt.Fprintf(&sb, "%-16s %12s %10s %10s %10s\n",
		"Request", "Native KB/s", "SVA-gcc", "SVA-llvm", "SVA-safe")
	for _, r := range rows {
		if !strings.HasPrefix(r.Name, "thttpd") || r.Bytes == 0 {
			continue
		}
		kbs := float64(r.Bytes) / 1024 / r.Native.Seconds()
		// Bandwidth reduction mirrors the latency overhead: same bytes,
		// longer time.
		red := func(over float64) float64 { return 100 * over / (100 + over) }
		fmt.Fprintf(&sb, "%-16s %12.0f %9.1f%% %9.1f%% %9.1f%%\n",
			r.Name, kbs, red(r.OverGCC), red(r.OverLLVM), red(r.OverSafe))
	}
	return sb.String()
}

// --- Tables 7 and 8 ---------------------------------------------------------

// BenchRow is one measured microbenchmark row.
type BenchRow struct {
	Name     string
	Native   time.Duration // per-op for latency; per-iteration for bandwidth
	Bytes    uint64        // bandwidth rows: bytes per iteration
	OverGCC  float64
	OverLLVM float64
	OverSafe float64
}

// RunLatencies measures Table 7 (serial shorthand for RunLatenciesN).
func RunLatencies(r *hbench.Runner, scale Scale) ([]BenchRow, error) {
	return RunLatenciesN(r, scale, 1)
}

// RunLatenciesN measures Table 7 with one worker goroutine per kernel
// configuration (bounded by `workers`).  Rows within a configuration run in
// table order on that configuration's own machine, so the cycle counts are
// bit-identical to a serial run.
func RunLatenciesN(r *hbench.Runner, scale Scale, workers int) ([]BenchRow, error) {
	times := make([][4]time.Duration, len(hbench.LatencyOps))
	err := forEach(workers, len(hbench.Configs), func(ci int) error {
		for oi, op := range hbench.LatencyOps {
			d, err := r.Measure(hbench.Configs[ci], op.Prog, scale.apply(op.Iters))
			if err != nil {
				return err
			}
			times[oi][ci] = d
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]BenchRow, 0, len(hbench.LatencyOps))
	for oi, op := range hbench.LatencyOps {
		rows = append(rows, BenchRow{
			Name: op.Name, Native: times[oi][0],
			OverGCC: pct(times[oi][0], times[oi][1]), OverLLVM: pct(times[oi][0], times[oi][2]),
			OverSafe: pct(times[oi][0], times[oi][3]),
		})
	}
	return rows, nil
}

// RunBandwidths measures Table 8 (serial shorthand for RunBandwidthsN).
func RunBandwidths(r *hbench.Runner, scale Scale) ([]BenchRow, error) {
	return RunBandwidthsN(r, scale, 1)
}

// RunBandwidthsN measures Table 8 with per-configuration fan-out, like
// RunLatenciesN.
func RunBandwidthsN(r *hbench.Runner, scale Scale, workers int) ([]BenchRow, error) {
	times := make([][4]time.Duration, len(hbench.BandwidthOps))
	err := forEach(workers, len(hbench.Configs), func(ci int) error {
		for oi, op := range hbench.BandwidthOps {
			if err := r.PrepareBandwidth(hbench.Configs[ci], op.Size); err != nil {
				return err
			}
			d, err := r.Measure(hbench.Configs[ci], op.Prog, scale.apply(op.Iters))
			if err != nil {
				return err
			}
			times[oi][ci] = d
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]BenchRow, 0, len(hbench.BandwidthOps))
	for oi, op := range hbench.BandwidthOps {
		rows = append(rows, BenchRow{
			Name: op.Name, Native: times[oi][0], Bytes: op.Size,
			OverGCC: pct(times[oi][0], times[oi][1]), OverLLVM: pct(times[oi][0], times[oi][2]),
			OverSafe: pct(times[oi][0], times[oi][3]),
		})
	}
	return rows, nil
}

// Table7 renders kernel-operation latency overheads.
func Table7(rows []BenchRow) string {
	var sb strings.Builder
	sb.WriteString("Table 7: kernel operation latency overhead vs native\n")
	fmt.Fprintf(&sb, "%-14s %12s %10s %10s %10s\n", "Test", "Native", "SVA-gcc", "SVA-llvm", "SVA-safe")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %12s %9.1f%% %9.1f%% %9.1f%%\n",
			r.Name, r.Native, r.OverGCC, r.OverLLVM, r.OverSafe)
	}
	return sb.String()
}

// Table8 renders kernel bandwidth reductions.
func Table8(rows []BenchRow) string {
	var sb strings.Builder
	sb.WriteString("Table 8: kernel bandwidth reduction vs native\n")
	fmt.Fprintf(&sb, "%-16s %12s %10s %10s %10s\n", "Test", "Native MB/s", "SVA-gcc", "SVA-llvm", "SVA-safe")
	red := func(over float64) float64 { return 100 * over / (100 + over) }
	for _, r := range rows {
		mbs := float64(r.Bytes) / (1 << 20) / r.Native.Seconds()
		fmt.Fprintf(&sb, "%-16s %12.1f %9.1f%% %9.1f%% %9.1f%%\n",
			r.Name, mbs, red(r.OverGCC), red(r.OverLLVM), red(r.OverSafe))
	}
	return sb.String()
}

// --- SMP scaling (-table=smp) -----------------------------------------------

// SMPRow is one virtual-CPU count measured across the four configurations.
type SMPRow struct {
	VCPUs  int
	Points [4]hbench.SMPPoint // indexed like hbench.Configs
}

// RunSMP measures the SMP battery serially (shorthand for RunSMPN).
func RunSMP(scale Scale) ([]SMPRow, error) { return RunSMPN(scale, 1) }

// RunSMPN measures the SMP syscall-throughput battery: 32 smp_worker
// tasks dispatched across 1/2/4/8/16/32 virtual CPUs under every kernel
// configuration.  Each (config, vcpus) cell boots a fresh machine, so the
// cells are independent; with workers > 1 they run concurrently, and
// because time is virtual the numbers are bit-identical to a serial run.
func RunSMPN(scale Scale, workers int) ([]SMPRow, error) {
	iters := scale.apply(200)
	const tasks = 32 // divides evenly across every hbench.SMPVCPUs count
	type cell struct{ ci, ni int }
	cells := make([]cell, 0, len(hbench.Configs)*len(hbench.SMPVCPUs))
	for ci := range hbench.Configs {
		for ni := range hbench.SMPVCPUs {
			cells = append(cells, cell{ci, ni})
		}
	}
	points := make([][4]hbench.SMPPoint, len(hbench.SMPVCPUs))
	err := forEach(workers, len(cells), func(i int) error {
		c := cells[i]
		p, err := hbench.MeasureSMP(hbench.Configs[c.ci], hbench.SMPVCPUs[c.ni], tasks, iters)
		if err != nil {
			return err
		}
		points[c.ni][c.ci] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]SMPRow, len(hbench.SMPVCPUs))
	for ni, n := range hbench.SMPVCPUs {
		rows[ni] = SMPRow{VCPUs: n, Points: points[ni]}
	}
	return rows, nil
}

// SMPTable renders aggregate syscall throughput (syscalls per million
// virtual cycles of makespan) and the speedup versus one virtual CPU.
func SMPTable(rows []SMPRow) string {
	var sb strings.Builder
	sb.WriteString("SMP scaling: aggregate syscall throughput (sc/Mcyc) across virtual CPUs\n")
	fmt.Fprintf(&sb, "%-6s", "VCPUs")
	for _, cfg := range hbench.Configs {
		fmt.Fprintf(&sb, " %10s %7s", cfg.String(), "speedup")
	}
	sb.WriteString("\n")
	var base [4]float64
	for _, r := range rows {
		if r.VCPUs == 1 {
			for ci := range r.Points {
				base[ci] = r.Points[ci].Throughput
			}
		}
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-6d", r.VCPUs)
		for ci := range r.Points {
			sp := 0.0
			if base[ci] > 0 {
				sp = r.Points[ci].Throughput / base[ci]
			}
			fmt.Fprintf(&sb, " %10.0f %6.2fx", r.Points[ci].Throughput, sp)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// ConcurrentRegBench reports registration/drop throughput on one metapool
// under concurrent writers in disjoint regions: the sharded write paths
// against the pre-sharding single-mutex discipline (Pool.SingleLock).
//
// The primary rows are a deterministic virtual-time measurement.  A guest
// loop of pchk.reg.obj/pchk.drop.obj pairs runs on one VCPU to measure the
// real per-pair cycle cost; the cost table says how much of that charge is
// the splay work the seed performed under its global pool mutex (costReg +
// costDrop), so the seed path's aggregate throughput saturates at one pair
// per critical section once enough writers contend, while the sharded
// paths — whose writers in disjoint regions share no gate slot or shard
// tree — scale with the writer count.
// That saturation model is the standard one for a single lock and every
// input to it is a measured virtual cycle, so the row is bit-identical
// run to run on any host.
//
// The wall-clock rows measure the same loop on host goroutines.  They
// are honest but host-bound: on a single-core container the writers
// time-slice, so the ratio reflects only per-op cost, and the numbers are
// noisy — which is why they are opt-in (`sva-bench -wallclock`) and never
// recorded into the benchmark JSON.  With wallclock false the output is
// bit-identical run to run, preserving the tables' determinism invariant.
func ConcurrentRegBench(writers, opsPer int, wallclock bool) string {
	var sb strings.Builder

	// --- deterministic virtual-time model -------------------------------
	mdl, err := RegBenchModel(writers)
	fmt.Fprintf(&sb, "Concurrent registration: one pool, %d writer VCPUs, disjoint regions\n", writers)
	if err != nil {
		fmt.Fprintf(&sb, "virtual-time model unavailable: %v\n", err)
	} else {
		fmt.Fprintf(&sb, "virtual time (deterministic): reg+drop pair = %d cyc, critical section under the seed's pool mutex = %d cyc\n",
			mdl.PairCycles, mdl.CritCycles)
		fmt.Fprintf(&sb, "%-24s %10.1f pairs/Kcyc   (global lock saturated: 1 pair per %d cyc)\n",
			"single-lock (seed path)", mdl.SingleLock*1000, mdl.CritCycles)
		fmt.Fprintf(&sb, "%-24s %10.1f pairs/Kcyc   %5.2fx\n",
			"sharded write paths", mdl.Sharded*1000, mdl.Speedup)
	}

	// --- host wall-clock (opt-in: nondeterministic) ---------------------
	if !wallclock {
		return sb.String()
	}
	run := func(single bool) float64 {
		reg := metapool.NewRegistry()
		reg.SetVCPUs(writers)
		p := metapool.NewPool("regbench", false, true, 0)
		p.SingleLock = single
		reg.AddPool(p)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				base := uint64(w+1) << 24 // distinct regions per writer
				for i := 0; i < opsPer; i++ {
					a := base + uint64(i%1024)*4096
					if err := p.RegisterCPU(w, a, 256, 0); err != nil {
						panic(err)
					}
					if err := p.DropCPU(w, a); err != nil {
						panic(err)
					}
				}
			}(w)
		}
		wg.Wait()
		el := time.Since(start).Seconds()
		return float64(2*writers*opsPer) / el / 1e6 // Mops/s
	}
	best := func(single bool) float64 {
		v := 0.0
		for rep := 0; rep < 3; rep++ {
			if m := run(single); m > v {
				v = m
			}
		}
		return v
	}
	sharded := best(false)
	locked := best(true)
	sp := 0.0
	if locked > 0 {
		sp = sharded / locked
	}
	fmt.Fprintf(&sb, "host wall-clock (%d host CPUs, best of 3, %d goroutines x %d pairs; noisy, not in bench JSON)\n",
		runtime.NumCPU(), writers, opsPer)
	fmt.Fprintf(&sb, "%-24s %10.2f Mops/s\n", "single-lock (seed path)", locked)
	fmt.Fprintf(&sb, "%-24s %10.2f Mops/s  %5.2fx\n", "sharded write paths", sharded, sp)
	return sb.String()
}

// RegBenchResult is the deterministic virtual-time half of the
// concurrent-registration microbench: measured cycle costs and the
// single-lock saturation model built on them.
type RegBenchResult struct {
	PairCycles uint64  // measured virtual cycles per reg+drop pair
	CritCycles uint64  // the pair's splay work, held under the seed's global mutex
	SingleLock float64 // modeled aggregate pairs/cycle, seed single-lock path
	Sharded    float64 // modeled aggregate pairs/cycle, sharded write paths
	Speedup    float64 // Sharded / SingleLock
}

// RegBenchModel measures the per-pair registration cost in virtual cycles
// and applies the single-lock saturation model for `writers` concurrent
// writer VCPUs in disjoint regions (see ConcurrentRegBench).
func RegBenchModel(writers int) (RegBenchResult, error) {
	const pairs = 4096
	perPair, err := measureRegPairCycles(pairs)
	if err != nil {
		return RegBenchResult{}, err
	}
	crit := svaops.Cost(svaops.ObjRegister) + svaops.Cost(svaops.ObjDrop)
	if perPair < crit {
		perPair = crit // the charge model guarantees this; keep the ratio sane
	}
	n := float64(writers)
	r := RegBenchResult{PairCycles: perPair, CritCycles: crit}
	r.Sharded = n / float64(perPair)                    // each writer completes a pair every PairCycles
	r.SingleLock = math.Min(r.Sharded, 1/float64(crit)) // the global lock admits 1 pair per critical section
	r.Speedup = r.Sharded / r.SingleLock
	return r, nil
}

// measureRegPairCycles runs a guest loop of `pairs` pchk.reg.obj +
// pchk.drop.obj pairs (page-strided within one 4 MiB region, like a slab
// allocator reusing a region) on a fresh single-VCPU safe VM and returns
// the measured virtual cycles per pair.  The cycle charges are identical
// under either locking discipline — virtual time cannot see host lock
// contention, which is exactly why ConcurrentRegBench models the seed's
// global lock analytically on top of this measurement.
func measureRegPairCycles(pairs uint64) (uint64, error) {
	m := ir.NewModule("regbench")
	m.Metapools = append(m.Metapools, &ir.MetapoolDesc{Name: "MP0", Complete: true})
	b := ir.NewBuilder(m)
	b.NewFunc("reg_loop", ir.FuncOf(ir.I64, []*ir.Type{ir.I64, ir.I64}, false), "iters", "base")
	b.For("i", ir.I64c(0), b.Param(0), ir.I64c(1), func(i ir.Value) {
		off := b.Shl(b.And(i, ir.I64c(1023)), ir.I64c(12))
		p := b.IntToPtr(b.Add(b.Param(1), off), svaops.BytePtr)
		b.Call(svaops.Get(m, svaops.ObjRegister), ir.I32c(0), p, ir.I64c(256))
		b.Call(svaops.Get(m, svaops.ObjDrop), ir.I32c(0), p)
	})
	b.Ret(ir.I64c(0))
	b.Seal()
	if errs := ir.VerifyModule(m); len(errs) != 0 {
		return 0, fmt.Errorf("regbench module: %v", errs[0])
	}
	v := vm.New(hw.NewMachine(0, 64), vm.ConfigSafe)
	if err := v.LoadModule(m, false); err != nil {
		return 0, err
	}
	top, err := v.AllocKernelStack(64 * 1024)
	if err != nil {
		return 0, err
	}
	ex, err := v.NewExec(v.FuncByName("reg_loop"), []uint64{pairs, 1 << 24}, top, hw.PrivKernel)
	if err != nil {
		return 0, err
	}
	v.SetExec(ex)
	c0 := v.Mach.CPU.Cycles
	if _, err := v.Run(); err != nil {
		return 0, err
	}
	if pairs == 0 {
		pairs = 1
	}
	return (v.Mach.CPU.Cycles - c0) / pairs, nil
}

// --- check statistics (-table=checks) ---------------------------------------

// ChecksTable drives the Table 7 latency battery on the safety-checked
// configuration and renders the run-time check and lookup statistics from
// the system's unified telemetry snapshot, followed by the per-site check
// attribution of the profiler.
func ChecksTable(r *hbench.Runner, scale Scale) (string, error) {
	// The profiler is invisible to virtual time, so attaching it for the
	// per-site section leaves every count above it unchanged.
	sys := r.Systems[vm.ConfigSafe]
	prof := sys.VM.EnableProfiling()
	defer sys.VM.DisableProfiling()
	for _, op := range hbench.LatencyOps {
		if _, err := r.Measure(vm.ConfigSafe, op.Prog, scale.apply(op.Iters)); err != nil {
			return "", err
		}
	}
	return FormatChecks(sys.VM.Telemetry.Snapshot()) + "\n" + prof.Snapshot().FormatSites(), nil
}

// FormatChecks renders a unified telemetry snapshot as the -table=checks
// report.  The Static block, when present, supplies the compiler's check
// accounting so the §7.1.3 elision rates appear alongside dynamic counts.
func FormatChecks(s telemetry.Snapshot) string {
	snap, c, m := s.Checks, s.VM, s.Static
	var sb strings.Builder
	sb.WriteString("Check statistics (sva-safe, Table 7 battery)\n")
	fmt.Fprintf(&sb, "%-16s %3s %3s %6s %9s %9s %9s %9s %10s %10s %7s %9s %5s\n",
		"Pool", "TH", "C", "objs", "bounds", "b-elide", "lscheck", "ls-elide", "pm-hit", "tree-path", "fast%", "splay", "viol")
	// fastPct is the share of lookups the page map answered.  Every lookup
	// is charged to exactly one of PageHits and CacheMisses (the tree
	// path), so the tree-path count over their sum is the slow fraction.
	fastPct := func(s telemetry.CheckStats) float64 {
		tot := s.PageHits + s.CacheMisses
		if tot == 0 {
			return 0
		}
		return 100 * float64(s.PageHits) / float64(tot)
	}
	idle := 0
	for _, p := range snap.Pools {
		s := p.Stats
		if s.BoundsChecks+s.LSChecks+s.ElidedBounds+s.ElidedLS+s.Violations == 0 {
			idle++
			continue
		}
		fmt.Fprintf(&sb, "%-16s %3s %3s %6d %9d %9d %9d %9d %10d %10d %6.1f%% %9d %5d\n",
			p.Name, yn(p.TypeHomogeneous), yn(p.Complete), p.Objects,
			s.BoundsChecks, s.ElidedBounds, s.LSChecks, s.ElidedLS, s.PageHits, s.CacheMisses, fastPct(s),
			p.SplayLookups, s.Violations)
	}
	t := snap.Totals
	fmt.Fprintf(&sb, "%-16s %3s %3s %6s %9d %9d %9d %9d %10d %10d %6.1f%% %9s %5d\n",
		"Total", "", "", "", t.BoundsChecks, t.ElidedBounds, t.LSChecks, t.ElidedLS,
		t.PageHits, t.CacheMisses, fastPct(t), "", t.Violations)
	fmt.Fprintf(&sb, "pools with no check activity: %d\n", idle)
	fmt.Fprintf(&sb, "write path: batched=%d epoch-reclaims=%d\n", t.Batched, t.EpochReclaims)
	fmt.Fprintf(&sb, "indirect-call checks: %d (violations: %d)\n", snap.ICChecks, snap.ICViolations)
	fmt.Fprintf(&sb, "vm counters: bounds=%d lscheck=%d icheck=%d elided-bounds=%d elided-ls=%d\n",
		c.ChecksBounds, c.ChecksLS, c.ChecksIC, c.ElidedBounds, c.ElidedLS)
	if m != nil {
		fmt.Fprintf(&sb, "static elision: bounds %d/%d (%.1f%%), lscheck %d/%d (%.1f%%)\n",
			m.BoundsChecksElided, m.BoundsChecksInserted,
			ratioPct(m.BoundsChecksElided, m.BoundsChecksInserted),
			m.LSChecksElided, m.LSChecksInserted,
			ratioPct(m.LSChecksElided, m.LSChecksInserted))
		fmt.Fprintf(&sb, "elision by rule: R1 dominating-check %d, R2 guarded-loop %d, R3 value-range %d, R4 loop-versioned %d, R5 exact %d\n",
			m.BoundsElidedR1, m.BoundsElidedR2, m.BoundsElidedR3, m.BoundsElidedR4, m.BoundsExactR5)
	}
	fmt.Fprintf(&sb, "dynamic elision: bounds %.1f%% of would-be executions skipped, lscheck %.1f%%\n",
		ratioPct(int(c.ElidedBounds), int(c.ElidedBounds+c.ChecksBounds)),
		ratioPct(int(c.ElidedLS), int(c.ElidedLS+c.ChecksLS)))
	return sb.String()
}

func ratioPct(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

func yn(b bool) string {
	if b {
		return "y"
	}
	return "n"
}

// --- Table 9 ----------------------------------------------------------------

// Table9 reports the static safety metrics for the as-tested kernel and
// the entire kernel.
func Table9() (string, error) {
	var sb strings.Builder
	sb.WriteString("Table 9: static metrics of the safety-checking compiler\n")
	for _, mode := range []struct {
		label    string
		asTested bool
		none     bool
	}{
		{"Kernel as tested (mm/lib/char-drivers excluded)", true, false},
		{"Entire kernel", false, true},
	} {
		img := kernel.Build()
		cfg := kernel.SafetyConfig(mode.asTested)
		if mode.none {
			cfg.Pointer.ExcludeSubsystems = nil
		}
		prog, err := safety.Compile(cfg, img.Kernel)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "\n%s\n%s", mode.label, prog.Metrics.String())
	}
	return sb.String(), nil
}

// --- exploits and TCB -------------------------------------------------------

// ExploitTable runs the §7.2 matrix and renders it (serial shorthand for
// ExploitTableN(1)).
func ExploitTable() (string, error) { return ExploitTableN(1) }

// ExploitTableN runs the matrix with up to `workers` concurrent exploit
// runs; every run boots a fresh system, so the table is identical to a
// serial run.
func ExploitTableN(workers int) (string, error) {
	results, err := exploits.MatrixParallel(workers)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Exploit detection (§7.2)\n")
	fmt.Fprintf(&sb, "%-44s %-6s %-12s %-22s %s\n", "Exploit", "BID", "native", "sva-safe (as tested)", "sva-safe (+lib)")
	byExploit := map[string][]exploits.Result{}
	var order []string
	for _, r := range results {
		if _, ok := byExploit[r.Exploit.BID]; !ok {
			order = append(order, r.Exploit.BID)
		}
		byExploit[r.Exploit.BID] = append(byExploit[r.Exploit.BID], r)
	}
	caught := 0
	for _, bid := range order {
		rs := byExploit[bid]
		fmt.Fprintf(&sb, "%-44s %-6s %-12s %-22s %s\n",
			rs[0].Exploit.Name, bid, rs[0].Verdict(), rs[1].Verdict(), rs[2].Verdict())
		if rs[1].Detected {
			caught++
		}
	}
	fmt.Fprintf(&sb, "as-tested kernel: %d/%d exploits caught (paper: 4/5)\n", caught, len(order))
	return sb.String(), nil
}

// TCBSeeds is the number of injection seeds tried per bug kind.
const TCBSeeds = 5

// TCBResult is one bug kind's row of the §5 bug-injection experiment:
// the description of every distinct corruption injected (a seed with no
// injection site, or one that wrapped around onto an earlier seed's
// corruption, adds none) and how many of them the verifier rejected.
type TCBResult struct {
	Kind     typecheck.BugKind
	Injected []string
	Detected int
}

// RunTCB injects TCBSeeds instances of every bug kind, each into a freshly
// built and safety-compiled kernel, and runs the verifier on each.
func RunTCB() ([]TCBResult, error) {
	var out []TCBResult
	for _, kind := range typecheck.BugKinds() {
		r := TCBResult{Kind: kind}
		for seed := 0; seed < TCBSeeds; seed++ {
			img := kernel.Build()
			prog, err := safety.Compile(kernel.SafetyConfig(true), img.Kernel)
			if err != nil {
				return nil, err
			}
			desc, ok := typecheck.InjectBug(kind, seed, prog.Descs, img.Kernel)
			if !ok || slices.Contains(r.Injected, desc) {
				continue
			}
			r.Injected = append(r.Injected, desc)
			if errs := typecheck.New(img.Kernel.Metapools).Check(img.Kernel); len(errs) > 0 {
				r.Detected++
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// TCBTable runs the §5 verifier bug-injection experiment.
func TCBTable() (string, error) {
	rows, err := RunTCB()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Verifier bug-injection (§5): %d seeds x %d kinds\n", TCBSeeds, len(rows))
	injected, detected := 0, 0
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-20s injected %d/%d, detected %d/%d\n",
			r.Kind, len(r.Injected), TCBSeeds, r.Detected, len(r.Injected))
		injected += len(r.Injected)
		detected += r.Detected
	}
	fmt.Fprintf(&sb, "total: %d/%d detected, %d/%d seeds injected (paper: 20/20 over 4 kinds; elision kinds are this reproduction's addition)\n",
		detected, injected, injected, TCBSeeds*len(rows))
	return sb.String(), nil
}

// Figure2 rebuilds the paper's Figure 2 fragment (fib_create_info) and
// returns its safety-instrumented IR plus the relevant slice of the
// points-to graph.
func Figure2() (string, error) {
	img := kernel.Build()
	m := img.Kernel
	b := ir.NewBuilder(m)
	propT := ir.StructOf(ir.I32, ir.I32)
	tbl := m.NewGlobal("fig2_fib_props", ir.ArrayOf(12, propT), nil)
	fi := ir.NamedStruct("fig2_fib_info_t")
	fi.SetBody(ir.I32, ir.I32, ir.ArrayOf(22, ir.I32))
	b.NewFunc("fig2_fib_create_info", ir.FuncOf(ir.I64, []*ir.Type{ir.I64}, false), "rtm_type")
	slot := b.Index(tbl, b.Param(0))
	scope := b.Load(b.GEP(slot, ir.I64c(0), ir.I32c(0)))
	raw := b.Call(m.Func("kmalloc"), ir.I64c(96))
	fip := b.Bitcast(raw, ir.PointerTo(fi))
	b.Call(svaops.Get(m, svaops.Memset), raw, ir.I64c(0), ir.I64c(96))
	b.Store(scope, b.FieldAddr(fip, 0))
	b.Ret(b.ZExt(b.Load(b.FieldAddr(fip, 0)), ir.I64))
	b.Seal()
	prog, err := safety.Compile(kernel.SafetyConfig(true), m)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Figure 2: instrumented kernel fragment (fib_create_info)\n")
	sb.WriteString(m.Func("fig2_fib_create_info").String())
	sb.WriteString("\npoints-to partitions of the fragment's pointers:\n")
	for _, v := range []struct {
		label string
		val   ir.Value
	}{{"fib_props", tbl}, {"fi", fip}} {
		n := prog.Res.PointsTo(v.val)
		id := prog.PoolOfNode(n)
		if id >= 0 {
			d := prog.Descs[id]
			fmt.Fprintf(&sb, "  %-10s -> %s (th=%v complete=%v)\n",
				v.label, d.Name, d.TypeHomogeneous, d.Complete)
		}
	}
	return sb.String(), nil
}

// APITable prints the implemented SVA-OS / check operation inventory (the
// reproduction's rendering of the paper's Tables 1–3), grouped by the
// operation classes of the svaops table.
func APITable() string {
	var sb strings.Builder
	sb.WriteString("SVA operation inventory (Tables 1-3)\n")
	group := func(title string, classes ...svaops.Class) {
		fmt.Fprintf(&sb, "\n%s\n", title)
		names := make([]string, 0, len(svaops.Ops))
		for _, op := range svaops.Ops {
			for _, cl := range classes {
				if op.Class == cl {
					names = append(names, op.Name)
					break
				}
			}
		}
		sort.Strings(names)
		for _, n := range names {
			op := svaops.Lookup(n)
			if op.Cost > 0 {
				fmt.Fprintf(&sb, "  %-28s %s  [%s, %d cyc]\n", n, op.Sig, op.Class, op.Cost)
			} else {
				fmt.Fprintf(&sb, "  %-28s %s  [%s]\n", n, op.Sig, op.Class)
			}
		}
	}
	group("Processor state & interrupt contexts (Tables 1-2)",
		svaops.ClassState, svaops.ClassIContext)
	group("Privileged operation wrappers (§3.3)",
		svaops.ClassSys, svaops.ClassMMU, svaops.ClassIO, svaops.ClassMem)
	group("Run-time checks (Table 3, §4.5)", svaops.ClassCheck)
	return sb.String()
}

// --- profiling (-table=profile) -----------------------------------------------

// RunProfile drives the Table 7 latency battery on the safety-checked
// configuration with the virtual-cycle profiler attached and returns the
// resulting profile plus the CPU's total cycle delta over the run.
func RunProfile(r *hbench.Runner, scale Scale) (*telemetry.Profile, uint64, error) {
	sys := r.Systems[vm.ConfigSafe]
	sys.VM.EnableProfiling()
	defer sys.VM.DisableProfiling()
	c0 := sys.VM.Mach.CPU.Cycles
	for _, op := range hbench.LatencyOps {
		if _, err := r.Measure(vm.ConfigSafe, op.Prog, scale.apply(op.Iters)); err != nil {
			return nil, 0, err
		}
	}
	total := sys.VM.Mach.CPU.Cycles - c0
	return sys.VM.Profiler().Snapshot(), total, nil
}

// ProfileTable renders the -table=profile report: the per-function and
// per-operation virtual-cycle attribution of the Table 7 battery.
func ProfileTable(r *hbench.Runner, scale Scale) (string, error) {
	prof, total, err := RunProfile(r, scale)
	if err != nil {
		return "", err
	}
	return prof.Format(20, total), nil
}

// --- ablations (§4.8 design choices) ------------------------------------------

// Ablation compiles the kernel with the §4.8 precision transformations
// toggled and reports their effect on the type-safety metrics and check
// counts — the design-choice study DESIGN.md calls for.
func Ablation() (string, error) {
	var sb strings.Builder
	variants := []struct {
		label                     string
		noClone, noDevir, noElide bool
	}{
		{"full (cloning+devirt+elide)", false, false, false},
		{"no cloning", true, false, false},
		{"no devirtualization", false, true, false},
		{"no check elision", false, false, true},
		{"neither clone nor devirt", true, true, false},
	}
	for _, scope := range []struct {
		label    string
		asTested bool
	}{
		{"as-tested kernel", true},
		{"kernel + copy library", false},
	} {
		fmt.Fprintf(&sb, "Ablation: §4.8 precision transformations (%s)\n", scope.label)
		fmt.Fprintf(&sb, "%-28s %8s %8s %12s %10s %9s %9s\n",
			"Variant", "clones", "devirt", "ld typesafe", "ic checks", "bounds", "b-elided")
		for _, v := range variants {
			img := kernel.Build()
			cfg := kernel.SafetyConfig(scope.asTested)
			cfg.DisableCloning = v.noClone
			cfg.DisableDevirt = v.noDevir
			cfg.DisableElide = v.noElide
			prog, err := safety.Compile(cfg, img.Kernel)
			if err != nil {
				return "", err
			}
			m := prog.Metrics
			fmt.Fprintf(&sb, "%-28s %8d %8d %11.1f%% %10d %9d %9d\n",
				v.label, m.ClonesCreated, m.Devirtualized,
				m.Loads.PctTypeSafe(), m.ICChecksInserted, m.BoundsChecksInserted,
				m.BoundsChecksElided)
		}
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}
