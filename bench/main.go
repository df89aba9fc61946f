// Command bench is the SVM benchmark: four workloads (syscall, proc, apps,
// net) measured end to end in two currencies, host wall-clock and guest
// virtual cycles, plus a traced run that breaks each workload into its
// per-layer costs.  See README.md.
//
// Usage (from the repository root, which bench/run.sh builds it in):
//
//	bash bench/run.sh --workload <syscall|proc|apps|net|all> --seed <n> --seconds <s> --trace <0|1>
//	bash bench/run.sh compare <dirA> <dirB>
//
// Each workload prints one "metric workload value unit" line per metric,
// then, as its last line, a JSON object with the keys correct, attempted,
// failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"sva/internal/kernel"
	"sva/internal/safety"
	"sva/internal/vm"
)

// config is one run's protocol settings.
type config struct {
	seed uint64
	// window is how long the timed passes run; passes, when set, fixes
	// their count instead (the self-test).
	window time.Duration
	passes int
	// virtN is the timed-pass prefix that fixes every virtual metric: the
	// native twin and the traced rerun run exactly these passes.
	virtN int
	// setupReps is how many set-ups setup_s takes the median of, after
	// setupWarmup discarded ones.
	setupWarmup, setupReps int
	// loadCells is how many offered-load cells net pools latency over.
	loadCells int
	traced    bool
	traceDir  string // where a traced run writes its spans and CPU profile
}

// timedDone reports whether n timed passes begun at start complete the
// timed window.
func (c config) timedDone(n int, start time.Time) bool {
	switch {
	case n < c.virtN:
		return false
	case c.passes > 0:
		return n >= c.passes
	}
	return time.Since(start) >= c.window
}

const (
	defaultVirtN = 8
	// In a fresh process the first ~8 set-ups take 1.5-2x as long as the
	// rest, so 10 are discarded.
	defaultSetupWarmup = 10
	defaultSetupReps   = 21
	defaultLoadCells   = 16
)

// runData is everything one workload run measured.
type runData struct {
	w      *workload
	virtN  int
	warm   int          // warm-up passes before the timed ones
	passes []passResult // untraced timed passes
	native []passResult // native twin over the virtual prefix
	traced []passResult // traced rerun
	loads  []cellResult // net offered-load cells
	setupS []float64
	heapMB float64
	// cpuProfile is the traced passes' host CPU profile (pprof format).
	cpuProfile []byte
	// Set-up layers of the traced run, milliseconds.
	buildMs, compileMs, loadBootMs float64
	// mismatches counts outputs that disagree with their twin: app results
	// against the native kernel, traced virtual cycles against untraced.
	mismatches uint64
	warmFailed uint64 // failures during warm-up passes
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run: syscall, proc, apps, net or all")
	seed := fs.Uint64("seed", 1, "input seed (1 is the default, 2 the held-out seed)")
	seconds := fs.Int("seconds", 15, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1: add a traced rerun and print the per-layer metrics")
	traceDir := fs.String("trace-dir", "", "with --trace 1, write <workload>.spans.jsonl and <workload>.cpu.pprof here")
	results := fs.String("results", "", "also write each result as a JSON file in this directory (for compare)")
	_ = fs.Parse(os.Args[1:]) // ExitOnError: a bad flag exits inside Parse
	if fs.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, not %d", *trace))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w := workloadByName(*name); w != nil {
		ws = []*workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q (want syscall, proc, apps, net or all)", *name))
	}
	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second, virtN: defaultVirtN,
		setupWarmup: defaultSetupWarmup, setupReps: defaultSetupReps, loadCells: defaultLoadCells,
		traced: *trace == 1, traceDir: *traceDir}
	for _, w := range ws {
		res, err := measure(w, cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		if err := printResult(os.Stdout, w.name, res); err != nil {
			fatal(err)
		}
		if *results != "" {
			if err := saveResult(*results, w.name, *seed, *trace, res); err != nil {
				fatal(err)
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// measure runs one workload and returns its result.
func measure(w *workload, cfg config) (result, error) {
	d, err := run(w, cfg)
	if err != nil {
		return result{}, err
	}
	return d.result(cfg.traced)
}

// result tallies the run's ops and failures and picks its metrics: the
// end-to-end ones untraced, the per-layer ones traced.
func (d *runData) result(traced bool) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	for _, p := range d.passes {
		res.Attempted += p.attempted
	}
	for _, ps := range [][]passResult{d.passes, d.native, d.traced} {
		for _, p := range ps {
			res.Failed += p.failed
		}
	}
	for _, c := range d.loads {
		res.Failed += uint64(c.failed())
	}
	res.Failed += d.mismatches + d.warmFailed
	res.Correct = res.Failed == 0
	specs, values := endToEnd, map[string]float64(nil)
	if traced {
		shares, err := hostShares(d.cpuProfile)
		if err != nil {
			return result{}, err
		}
		specs, values = perLayer(), layerMetrics(d, shares)
	} else {
		values = endToEndMetrics(d)
	}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not computed", s.name)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return res, nil
}

// run executes the run protocol on one workload:
//  1. boot the measured sva-safe system;
//  2. untimed warm-up passes until a pass translates no new function;
//  3. the live heap after full GCs, with the warmed system live;
//  4. setup_s: the median of cfg.setupReps fresh sva-safe boots of the
//     workload image, after cfg.setupWarmup discarded ones;
//  5. timed passes for cfg.window, never fewer than cfg.virtN;
//  6. the native twin runs the same warm-up and the first cfg.virtN timed
//     passes;
//  7. net only: cfg.loadCells offered-load cells;
//  8. traced runs: the traced rerun (see tracedRun).
func run(w *workload, cfg config) (*runData, error) {
	// One host CPU runs the guest, whatever the VCPU count.  On a 2-CPU host
	// shared with other tenants, net's 90th-percentile pass rate over 10
	// seeds had an interquartile range of 23% of its median with the two
	// VCPU goroutines on two CPUs, and of 3% on one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	d := &runData{w: w, virtN: cfg.virtN}
	safe, err := w.newTarget(vm.ConfigSafe, cfg.seed)
	if err != nil {
		return nil, err
	}
	for moved := true; moved; d.warm++ {
		p, err := safe.pass(d.warm, nil)
		if err != nil {
			return nil, err
		}
		d.warmFailed += p.failed
		moved = p.trans > 0
	}
	// The heap is read before the set-ups and the timed passes, so it
	// measures the warmed system alone: not the IR that vm's per-function
	// cache keeps for every system the set-ups boot, and not the records of
	// the timed passes, whose count grows with host speed.  Two
	// collections: the first moves sync.Pool contents to their victim
	// caches, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d.heapMB = float64(ms.HeapAlloc) / 1e6
	for r := 0; r < cfg.setupWarmup+cfg.setupReps; r++ {
		// Each set-up starts from a collected heap, so it pays for its own
		// garbage and not for whatever ran before it.
		runtime.GC()
		start := time.Now()
		if _, _, err := w.boot(vm.ConfigSafe); err != nil {
			return nil, err
		}
		if r >= cfg.setupWarmup {
			d.setupS = append(d.setupS, time.Since(start).Seconds())
		}
	}
	start := time.Now()
	for i := d.warm; !cfg.timedDone(len(d.passes), start); i++ {
		p, err := safe.pass(i, nil)
		if err != nil {
			return nil, err
		}
		d.passes = append(d.passes, p)
	}
	nat, err := w.newTarget(vm.ConfigNative, cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := d.warmUp(nat); err != nil {
		return nil, err
	}
	if d.native, err = runPasses(nat, d.warm, d.virtN, nil); err != nil {
		return nil, err
	}
	if nt, ok := safe.(*netTarget); ok {
		if d.loads, err = nt.loadCells(cfg.loadCells); err != nil {
			return nil, err
		}
	}
	d.checkResults()
	if cfg.traced {
		if err := d.tracedRun(cfg); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// runPasses runs passes from, from+1, ... from+n-1 on t.
func runPasses(t target, from, n int, tr *tracer) ([]passResult, error) {
	out := make([]passResult, 0, n)
	for i := from; i < from+n; i++ {
		p, err := t.pass(i, tr)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// warmUp runs the measured system's warm-up passes on a twin target, so the
// twin's next pass finds the same guest state.
func (d *runData) warmUp(t target) error {
	ps, err := runPasses(t, 0, d.warm, nil)
	for _, p := range ps {
		d.warmFailed += p.failed
	}
	return err
}

// tracedRun reruns the workload on a fresh sva-safe system: the virtual
// prefix with the virtual-cycle profiler on, then a quarter of the timed
// passes (at least the prefix again) under a host CPU profile.  The
// virtual profiler slows a pass several times over, so the host profile
// covers passes that run without it.  Last, it times the set-up layers.
func (d *runData) tracedRun(cfg config) error {
	t, err := d.w.newTarget(vm.ConfigSafe, cfg.seed)
	if err != nil {
		return err
	}
	if err := d.warmUp(t); err != nil {
		return err
	}
	tr := newTracer(d.w.name)
	tr.profile = true
	profiled, err := runPasses(t, d.warm, d.virtN, tr)
	if err != nil {
		return err
	}
	tr.profile = false
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	sampled, err := runPasses(t, d.warm+d.virtN, max(d.virtN, len(d.passes)/4), tr)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	d.traced, d.cpuProfile = append(profiled, sampled...), prof.Bytes()
	// Profiling is invisible to virtual time: the traced passes must
	// repeat the untraced ones cycle for cycle.
	for i := 0; i < len(d.traced) && i < len(d.passes); i++ {
		a, b := d.traced[i], d.passes[i]
		if a.cycles != b.cycles || a.makespan != b.makespan || a.ops != b.ops {
			d.mismatches++
		}
	}
	if err := d.timeSetupLayers(tr, cfg.setupReps); err != nil {
		return err
	}
	if cfg.traceDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	if err := tr.writeSpans(filepath.Join(cfg.traceDir, d.w.name+".spans.jsonl")); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.traceDir, d.w.name+".cpu.pprof"), d.cpuProfile, 0o644)
}

// timeSetupLayers times kernel.Build, safety.Compile and kernel.NewSystem
// on fresh images, reps times each, and keeps the medians; load+boot is
// NewSystem's time beyond build and compile.
func (d *runData) timeSetupLayers(tr *tracer, reps int) error {
	var build, compile, loadBoot []float64
	ms := func(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
	for r := 0; r < reps; r++ {
		sp := tr.begin("kernel.Build", r, 0)
		t := time.Now()
		img := kernel.Build()
		b := ms(t)
		tr.end(sp)
		u := d.w.image()
		sp = tr.begin("safety.Compile", r, 0)
		t = time.Now()
		if _, err := safety.Compile(kernel.SafetyConfig(true), img.Kernel, u.M); err != nil {
			return err
		}
		c := ms(t)
		tr.end(sp)
		sp = tr.begin("kernel.NewSystem", r, 0)
		t = time.Now()
		if _, _, err := d.w.boot(vm.ConfigSafe); err != nil {
			return err
		}
		n := ms(t)
		tr.end(sp)
		build, compile, loadBoot = append(build, b), append(compile, c), append(loadBoot, n-b-c)
	}
	d.buildMs, d.compileMs, d.loadBootMs = median(build), median(compile), median(loadBoot)
	return nil
}

// checkResults counts program results that disagree: every run of a
// program must return what its first run returned, on the sva-safe kernel
// and on the native twin alike (the apps compute deterministic digests).
func (d *runData) checkResults() {
	for k := range d.w.progs {
		var want int64
		seen := false
		for _, ps := range [][]passResult{d.passes, d.native} {
			for _, p := range ps {
				got := p.progs[k].ret
				if !seen {
					want, seen = got, true
				} else if got != want {
					d.mismatches++
				}
			}
		}
	}
}

// printResult prints one "metric workload value unit" line per metric and
// then the result as one JSON line.
func printResult(out io.Writer, workload string, res result) error {
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		if _, err := fmt.Fprintf(out, "%s %s %v %s\n", name, workload, m.Value, m.Unit); err != nil {
			return err
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// savedResult is a result file compare reads.
type savedResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func saveResult(dir, workload string, seed uint64, trace int, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(savedResult{Workload: workload, Seed: seed, Trace: trace, result: res})
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%d-%s-seed%d-trace%d.json", time.Now().UnixNano(), workload, seed, trace)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
