package sva

// One benchmark family per table/figure of the paper's evaluation (§7).
// Each benchmark executes the actual workload on the secure virtual
// machine and reports the paper's headline quantity as custom metrics:
// virtual-cycle costs per configuration and the percentage overhead of the
// safety-checked kernel over the native one.  Absolute numbers are not
// comparable to the paper's Pentium III; the shapes are (EXPERIMENTS.md
// records both).
//
// Run everything:  go test -bench=. -benchmem
// One table:       go test -bench=BenchmarkTable7

import (
	"sync"
	"testing"

	"sva/internal/exploits"
	"sva/internal/hbench"
	"sva/internal/kernel"
	"sva/internal/metapool"
	"sva/internal/report"
	"sva/internal/safety"
	"sva/internal/typecheck"
	"sva/internal/vm"
)

var (
	hbOnce   sync.Once
	hbRunner *hbench.Runner
	hbErr    error
)

func benchRunner(b *testing.B) *hbench.Runner {
	b.Helper()
	hbOnce.Do(func() { hbRunner, hbErr = hbench.NewRunner() })
	if hbErr != nil {
		b.Fatal(hbErr)
	}
	return hbRunner
}

// BenchmarkTable4_PortingEffort regenerates the porting-effort ledger.
func BenchmarkTable4_PortingEffort(b *testing.B) {
	var img *kernel.Image
	for i := 0; i < b.N; i++ {
		img = kernel.Build()
		img.CountLOC()
	}
	l := img.Ledger
	var os, al, an int
	for _, v := range l.SVAOS {
		os += v
	}
	for _, v := range l.Alloc {
		al += v
	}
	for _, v := range l.Analysis {
		an += v
	}
	b.ReportMetric(float64(os), "svaos-lines")
	b.ReportMetric(float64(al), "allocator-lines")
	b.ReportMetric(float64(an), "analysis-lines")
}

// benchLatency measures one Table 7 row across native and safe kernels.
func benchLatency(b *testing.B, prog string, iters uint64) {
	r := benchRunner(b)
	var native, safe float64
	for i := 0; i < b.N; i++ {
		dn, err := r.Measure(vm.ConfigNative, prog, iters)
		if err != nil {
			b.Fatal(err)
		}
		ds, err := r.Measure(vm.ConfigSafe, prog, iters)
		if err != nil {
			b.Fatal(err)
		}
		native, safe = float64(dn), float64(ds)
	}
	b.ReportMetric(native, "native-cyc/op")
	b.ReportMetric(safe, "safe-cyc/op")
	if native > 0 {
		b.ReportMetric(100*(safe-native)/native, "overhead-%")
	}
}

func BenchmarkTable7_Getpid(b *testing.B)       { benchLatency(b, "lat_getpid", 500) }
func BenchmarkTable7_Getrusage(b *testing.B)    { benchLatency(b, "lat_getrusage", 300) }
func BenchmarkTable7_Gettimeofday(b *testing.B) { benchLatency(b, "lat_gettimeofday", 300) }
func BenchmarkTable7_OpenClose(b *testing.B)    { benchLatency(b, "lat_openclose", 150) }
func BenchmarkTable7_Sbrk(b *testing.B)         { benchLatency(b, "lat_sbrk", 500) }
func BenchmarkTable7_Sigaction(b *testing.B)    { benchLatency(b, "lat_sigaction", 300) }
func BenchmarkTable7_Write(b *testing.B)        { benchLatency(b, "lat_write", 200) }
func BenchmarkTable7_Pipe(b *testing.B)         { benchLatency(b, "lat_pipe", 60) }
func BenchmarkTable7_Fork(b *testing.B)         { benchLatency(b, "lat_fork", 20) }
func BenchmarkTable7_ForkExec(b *testing.B)     { benchLatency(b, "lat_forkexec", 20) }

// benchBandwidth measures one Table 8 row.
func benchBandwidth(b *testing.B, prog string, size uint64, iters uint64) {
	r := benchRunner(b)
	var native, safe float64
	for i := 0; i < b.N; i++ {
		for _, cfg := range []vm.Config{vm.ConfigNative, vm.ConfigSafe} {
			if err := r.PrepareBandwidth(cfg, size); err != nil {
				b.Fatal(err)
			}
			d, err := r.Measure(cfg, prog, iters)
			if err != nil {
				b.Fatal(err)
			}
			if cfg == vm.ConfigNative {
				native = float64(d)
			} else {
				safe = float64(d)
			}
		}
	}
	b.SetBytes(int64(size))
	b.ReportMetric(native, "native-cyc/xfer")
	if safe > 0 {
		b.ReportMetric(100*(safe-native)/safe, "bw-reduction-%")
	}
}

func BenchmarkTable8_FileRead32k(b *testing.B)  { benchBandwidth(b, "bw_file_rd", 32*1024, 3) }
func BenchmarkTable8_FileRead64k(b *testing.B)  { benchBandwidth(b, "bw_file_rd", 64*1024, 2) }
func BenchmarkTable8_FileRead128k(b *testing.B) { benchBandwidth(b, "bw_file_rd", 128*1024, 2) }
func BenchmarkTable8_Pipe32k(b *testing.B)      { benchBandwidth(b, "bw_pipe", 32*1024, 2) }
func BenchmarkTable8_Pipe64k(b *testing.B)      { benchBandwidth(b, "bw_pipe", 64*1024, 2) }
func BenchmarkTable8_Pipe128k(b *testing.B)     { benchBandwidth(b, "bw_pipe", 128*1024, 1) }

// BenchmarkTable5And6_Applications runs all application workloads (Tables
// 5 and 6) at reduced scale and reports the safe-kernel overhead for the
// kernel-heavy and compute-heavy extremes.
func BenchmarkTable5And6_Applications(b *testing.B) {
	var rows []report.AppRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = report.RunApps(report.Scale(6))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Name {
		case "ldd":
			b.ReportMetric(r.OverSafe, "ldd-safe-overhead-%")
		case "lame":
			b.ReportMetric(r.OverSafe, "lame-safe-overhead-%")
		case "thttpd (311B)":
			b.ReportMetric(r.OverSafe, "thttpd311-safe-overhead-%")
		}
	}
}

// BenchmarkTable9_StaticMetrics times the safety-checking compiler over
// the whole kernel and reports the Table 9 headline fractions.
func BenchmarkTable9_StaticMetrics(b *testing.B) {
	var prog *safety.Program
	for i := 0; i < b.N; i++ {
		img := kernel.Build()
		var err error
		prog, err = safety.Compile(kernel.SafetyConfig(true), img.Kernel)
		if err != nil {
			b.Fatal(err)
		}
	}
	m := prog.Metrics
	b.ReportMetric(m.PctAllocSitesSeen(), "alloc-sites-seen-%")
	b.ReportMetric(m.ArrayIdx.PctIncomplete(), "arrayidx-incomplete-%")
	b.ReportMetric(m.ArrayIdx.PctTypeSafe(), "arrayidx-typesafe-%")
}

// BenchmarkExploits_SafeKernel runs the §7.2 exploit suite against the
// as-tested safe kernel and reports the detection count.
func BenchmarkExploits_SafeKernel(b *testing.B) {
	caught := 0
	for i := 0; i < b.N; i++ {
		caught = 0
		for _, e := range exploits.All() {
			r, err := exploits.Run(e, vm.ConfigSafe, true)
			if err != nil {
				b.Fatal(err)
			}
			if r.Detected {
				caught++
			}
		}
	}
	b.ReportMetric(float64(caught), "exploits-caught-of-5")
}

// BenchmarkVerifier_BugInjection times the §5 verifier experiment.
func BenchmarkVerifier_BugInjection(b *testing.B) {
	detected := 0
	for i := 0; i < b.N; i++ {
		detected = 0
		for _, kind := range []typecheck.BugKind{typecheck.BugAliasing, typecheck.BugEdge, typecheck.BugTHClaim, typecheck.BugSplit} {
			img := kernel.Build()
			prog, err := safety.Compile(kernel.SafetyConfig(true), img.Kernel)
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := typecheck.InjectBug(kind, i%5, prog.Descs, img.Kernel); !ok {
				continue
			}
			if errs := typecheck.New(img.Kernel.Metapools).Check(img.Kernel); len(errs) > 0 {
				detected++
			}
		}
	}
	b.ReportMetric(float64(detected), "bugs-detected-of-4")
}

// --- check lookup path and parallel harness --------------------------------

// BenchmarkCheck drives LoadStoreCheckCPU over a 2-address hot set (the
// common shape: one buffer plus one metadata object).  The 64 objects share
// one page, so every lookup takes the overflow-page tree path.
func BenchmarkCheck(b *testing.B) {
	p := metapool.NewPool("bench", false, true, 0)
	for i := uint64(0); i < 64; i++ {
		if err := p.RegisterCPU(0, 0x1000+i*64, 64, metapool.TagHeap); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.LoadStoreCheckCPU(0, 0x1000+uint64(i%2)*64+8); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(p.SplayLookups())/float64(b.N), "splay/op")
}

// BenchmarkChecks_Table7Safe runs the Table 7 latency battery on the safe
// kernel and reports which share of its check lookups the page map
// answers, and how many splay-tree lookups the battery pays for (the
// §7.1.3 cost; every pchk.drop.obj finds its object in a tree too).
func BenchmarkChecks_Table7Safe(b *testing.B) {
	var pmPct, splay float64
	for i := 0; i < b.N; i++ {
		r, err := hbench.NewRunner()
		if err != nil {
			b.Fatal(err)
		}
		// Boot the safe system first so the counters cover exactly the
		// measured battery, not kernel initialization.
		if _, err := r.Measure(vm.ConfigSafe, "lat_getpid", 1); err != nil {
			b.Fatal(err)
		}
		sys := r.Systems[vm.ConfigSafe]
		lk := func() uint64 {
			var n uint64
			for _, p := range sys.VM.Pools.Snapshot().Pools {
				n += p.SplayLookups
			}
			return n
		}
		base, baseStats := lk(), sys.VM.Pools.TotalStats()
		for _, op := range hbench.LatencyOps {
			if _, err := r.Measure(vm.ConfigSafe, op.Prog, op.Iters/8); err != nil {
				b.Fatal(err)
			}
		}
		st := sys.VM.Pools.TotalStats()
		pm, tree := st.PageHits-baseStats.PageHits, st.CacheMisses-baseStats.CacheMisses
		pmPct = 100 * float64(pm) / float64(pm+tree)
		splay = float64(lk() - base)
	}
	b.ReportMetric(pmPct, "pagemap-hit-%")
	b.ReportMetric(splay, "splay-lookups")
}

// benchTableHarness regenerates the Table 7 rows with the given worker
// count; serial vs parallel compares harness wall-clock (the outputs are
// bit-identical either way — see TestParallelLatenciesMatchSerial).
func benchTableHarness(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		r, err := hbench.NewRunner()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := report.RunLatenciesN(r, report.Scale(10), workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableHarness_Serial(b *testing.B)   { benchTableHarness(b, 1) }
func BenchmarkTableHarness_Parallel(b *testing.B) { benchTableHarness(b, 4) }

// --- telemetry overhead (this PR) --------------------------------------------

// benchTelemetryOverhead runs the Table 7 latency battery on a fresh safe
// system with telemetry off, profiling, or profiling+tracing, reporting
// host wall-clock per battery.  Virtual cycles are identical in all three
// modes (TestTelemetryInvariance); this measures the host-side cost, which
// must stay near zero when telemetry is off.
func benchTelemetryOverhead(b *testing.B, profile, trace bool) {
	r, err := hbench.NewRunner()
	if err != nil {
		b.Fatal(err)
	}
	sys := r.Systems[vm.ConfigSafe]
	if profile {
		sys.VM.EnableProfiling()
	}
	if trace {
		sys.VM.EnableTrace(4096)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, op := range hbench.LatencyOps {
			if _, err := r.Measure(vm.ConfigSafe, op.Prog, op.Iters/10); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTelemetry_Off(b *testing.B)          { benchTelemetryOverhead(b, false, false) }
func BenchmarkTelemetry_Profile(b *testing.B)      { benchTelemetryOverhead(b, true, false) }
func BenchmarkTelemetry_ProfileTrace(b *testing.B) { benchTelemetryOverhead(b, true, true) }
