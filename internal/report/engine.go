package report

// The -table=engine report measures what the threaded-code execution
// engine (DESIGN.md §14) buys on the host: the Table 7 latency battery
// runs on two sva-safe twins — engine-on and interpreter-only — and the
// table reports host wall-clock per row plus the speedup ratio.  Virtual
// time is required to be bit-identical between the twins (the engine is
// a host-side optimization, never a semantic change), so the ratio is
// the only number that moves: it is a property of the host, unlike every
// other sva-bench table, which is why `engine` is not part of -table=all.
//
// The engine-on runner also times native, so the table prints the cost
// of safety twice: as host safe/native (both configs on the same engine)
// beside the virtual safe/native the paper's tables report.

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"sva/internal/hbench"
	"sva/internal/vm"
)

// enginePasses is how many times each row is timed on each twin.  The
// reported wall-clock is the per-twin minimum across passes: a GC pause
// or scheduler hiccup inflates one pass, never the minimum.  Both twins
// always run the same pass count so their virtual streams stay in
// lockstep.
const enginePasses = 3

// EngineRow is one Table 7 workload measured on both execution engines,
// plus native on the threaded engine.
type EngineRow struct {
	Name          string
	Virtual       time.Duration // per-op virtual latency (identical on both twins)
	WallOn        time.Duration // host wall-clock, threaded engine
	WallOff       time.Duration // host wall-clock, interpreter only
	Speedup       float64       // WallOff / WallOn
	VirtualNative time.Duration // per-op virtual latency under native
	WallNative    time.Duration // host wall-clock under native, threaded engine
	HostRatio     float64       // WallOn / WallNative: host safe/native
	VirtRatio     float64       // Virtual / VirtualNative: virtual safe/native
}

// RunEngine measures the Table 7 battery under sva-safe on engine-on and
// interpreter-only twins, and under native on the engine-on runner, and
// returns per-row wall-clock speedups and safe/native ratios plus the
// speedups' geometric mean.  The twins execute the same virtual
// instruction stream; any divergence in virtual time is reported as an
// error rather than averaged away.
func RunEngine(scale Scale) ([]EngineRow, float64, error) {
	on, err := hbench.NewRunner()
	if err != nil {
		return nil, 0, err
	}
	off, err := hbench.NewRunner()
	if err != nil {
		return nil, 0, err
	}
	for _, sys := range off.Systems {
		sys.VM.SetEngine(false)
	}
	rows := make([]EngineRow, 0, len(hbench.LatencyOps))
	logSum := 0.0
	for _, op := range hbench.LatencyOps {
		iters := scale.apply(op.Iters)
		var dOn, dNat time.Duration
		var wallOn, wallOff, wallNat time.Duration
		for pass := 0; pass < enginePasses; pass++ {
			runtime.GC()
			t0 := time.Now()
			don, err := on.Measure(vm.ConfigSafe, op.Prog, iters)
			wOn := time.Since(t0)
			if err != nil {
				return nil, 0, err
			}
			runtime.GC()
			t1 := time.Now()
			doff, err := off.Measure(vm.ConfigSafe, op.Prog, iters)
			wOff := time.Since(t1)
			if err != nil {
				return nil, 0, err
			}
			if don != doff {
				return nil, 0, fmt.Errorf("report: engine changed virtual time of %s: %v vs %v",
					op.Name, don, doff)
			}
			runtime.GC()
			t2 := time.Now()
			dnat, err := on.Measure(vm.ConfigNative, op.Prog, iters)
			wNat := time.Since(t2)
			if err != nil {
				return nil, 0, err
			}
			dOn, dNat = don, dnat
			if pass == 0 || wOn < wallOn {
				wallOn = wOn
			}
			if pass == 0 || wOff < wallOff {
				wallOff = wOff
			}
			if pass == 0 || wNat < wallNat {
				wallNat = wNat
			}
		}
		sp := 0.0
		if wallOn > 0 {
			sp = float64(wallOff) / float64(wallOn)
		}
		logSum += math.Log(sp)
		rows = append(rows, EngineRow{
			Name: op.Name, Virtual: dOn, WallOn: wallOn, WallOff: wallOff, Speedup: sp,
			VirtualNative: dNat, WallNative: wallNat,
			HostRatio: ratio(wallOn, wallNat), VirtRatio: ratio(dOn, dNat),
		})
	}
	geomean := math.Exp(logSum / float64(len(rows)))
	return rows, geomean, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// EngineTable renders the engine speedup report.
func EngineTable(rows []EngineRow, geomean float64) string {
	var sb strings.Builder
	sb.WriteString("Threaded-code engine: host wall-clock on the Table 7 battery\n")
	sb.WriteString("(Engine/Interp: sva-safe twins; Native: native on the engine;\n")
	sb.WriteString(" safe/native in host wall-clock beside virtual time)\n")
	fmt.Fprintf(&sb, "%-14s %12s %12s %12s %9s %12s %10s %10s\n",
		"Test", "Virtual/op", "Engine", "Interp", "Speedup", "Native", "host s/n", "virt s/n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %12s %12s %12s %8.2fx %12s %9.2fx %9.2fx\n",
			r.Name, r.Virtual, r.WallOn.Round(time.Microsecond),
			r.WallOff.Round(time.Microsecond), r.Speedup,
			r.WallNative.Round(time.Microsecond), r.HostRatio, r.VirtRatio)
	}
	fmt.Fprintf(&sb, "geometric-mean speedup: %.2fx\n", geomean)
	host, virt := 0.0, 0.0
	for _, r := range rows {
		host += math.Log(r.HostRatio)
		virt += math.Log(r.VirtRatio)
	}
	n := float64(len(rows))
	fmt.Fprintf(&sb, "geometric-mean safe/native: host %.2fx, virtual %.2fx\n",
		math.Exp(host/n), math.Exp(virt/n))
	return sb.String()
}

// RecordEngineRows feeds engine rows into a metric set.  Virtual
// latencies are deterministic; the speedups are host wall-clock ratios,
// so baseline deltas on them carry host noise by design.
func RecordEngineRows(s *MetricSet, rows []EngineRow, geomean float64) {
	for _, r := range rows {
		s.Add("engine", r.Name+"/virtual_ns", "ns", float64(r.Virtual/time.Nanosecond))
		s.Add("engine", r.Name+"/speedup", "x", r.Speedup)
		s.Add("engine", r.Name+"/host_safe_native", "x", r.HostRatio)
		s.Add("engine", r.Name+"/virt_safe_native", "x", r.VirtRatio)
	}
	s.Add("engine", "geomean/speedup", "x", geomean)
}
