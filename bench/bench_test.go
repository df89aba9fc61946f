package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// selfTestConfig runs each workload at the warm-up it needs plus 3 timed
// passes, with every protocol step, the traced rerun included.
var selfTestConfig = config{seed: 1, passes: 3, virtN: 3, setupReps: 1, loadCells: 1, traced: true}

// TestSpecMatchesProgram holds BENCHMARK.json to the metrics and workloads
// the program defines, and to the limits of the benchmark definition.
func TestSpecMatchesProgram(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", n, len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), program has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(s.EndToEnd) > 16 || len(s.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(s.EndToEnd), len(s.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(kind string, i int, n, u, better string, want metricSpec) {
		if n != want.name || u != want.unit || better != want.better {
			t.Errorf("%s metric %d: BENCHMARK.json has %s %s %s, program %s %s %s",
				kind, i, n, u, better, want.name, want.unit, want.better)
		}
		if !name.MatchString(n) || seen[n] {
			t.Errorf("%s metric %q: bad or repeated name", kind, n)
		}
		seen[n] = true
	}
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(s.EndToEnd), len(endToEnd))
	}
	for i, m := range s.EndToEnd {
		check("end-to-end", i, m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	layers := perLayer()
	if len(s.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(s.PerLayer), len(layers))
	}
	for i, m := range s.PerLayer {
		check("per-layer", i, m.Name, m.Unit, m.Better, layers[i])
	}
}

// TestSelfTest runs every workload twice, checks that every virtual and
// layer count repeats exactly, that nothing failed, that the profiler saw
// every virtual cycle on the uniprocessor workloads, and that the traced
// passes repeat the untraced ones.
func TestSelfTest(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var prev map[string]float64
			for rep := 0; rep < 2; rep++ {
				cfg := selfTestConfig
				cfg.traceDir = t.TempDir()
				d, err := run(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkTraceFiles(t, cfg.traceDir, w.name)
				res, err := d.result(true)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				e2e := endToEndMetrics(d)
				virt := map[string]float64{}
				for _, k := range []string{"virt_cyc_per_op", "virt_p50_cyc", "virt_p99_cyc", "safe_native_ratio"} {
					virt[k] = e2e[k]
				}
				var shareSum float64
				for name, m := range res.Metrics {
					if strings.HasPrefix(name, "host.") {
						shareSum += m.Value
					} else if deterministic(name, m.Unit) {
						virt[name] = m.Value
					}
				}
				if math.Abs(shareSum-1) > 0.01 {
					t.Errorf("host shares sum to %v", shareSum)
				}
				if cov := res.Metrics["telemetry.coverage"].Value; !w.net && cov != 1 {
					t.Errorf("telemetry.coverage = %v, want 1", cov)
				}
				for _, k := range []string{"vm.translations", "metapool.violations", "hw.bad_descs"} {
					if v := res.Metrics[k].Value; v != 0 {
						t.Errorf("%s = %v, want 0", k, v)
					}
				}
				for k, v := range virt {
					if prev != nil && prev[k] != v {
						t.Errorf("%s: %v then %v", k, prev[k], v)
					}
				}
				prev = virt
			}
		})
	}
}

// TestLiveHeapIgnoresPassCount: a faster host runs more timed passes, and
// that must not change host_live_heap_mb.  vm's per-function cache keeps
// every function a VM ran, so each run in one process leaves the same
// amount of IR behind for the next run's reading; runs of 8, 16 and 8
// passes must therefore read heaps equally far apart.  That amount varies
// by about 10 KB between runs; the records of 248 more syscall passes take
// about 100 KB.  run reads the heap at the same protocol step on every
// workload, so syscall, whose passes are the shortest, stands for all.
func TestLiveHeapIgnoresPassCount(t *testing.T) {
	var heap []float64
	for _, passes := range []int{8, 256, 8} {
		d, err := run(workloadByName("syscall"), config{seed: 1, passes: passes, virtN: 3, setupReps: 1})
		if err != nil {
			t.Fatal(err)
		}
		heap = append(heap, d.heapMB)
	}
	if up, down := heap[1]-heap[0], heap[2]-heap[1]; math.Abs(up-down) > 0.04 {
		t.Errorf("live heaps %.4f, %.4f, %.4f MB at 8, 256 and 8 timed passes", heap[0], heap[1], heap[2])
	}
}

// checkTraceFiles checks the traced run's spans: every span closed, after
// it opened, under a parent recorded before it, with the passes and the
// set-up stages present; and the CPU profile readable.
func checkTraceFiles(t *testing.T, dir, workload string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for i, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatal(err)
		}
		if s.ID != i+1 || s.Parent >= s.ID || s.EndNs < s.StartNs || s.Workload != workload {
			t.Errorf("bad span %+v", s)
		}
		names[s.Name] = true
	}
	for _, n := range []string{"kernel.Build", "safety.Compile", "kernel.NewSystem"} {
		if !names[n] {
			t.Errorf("no %s span", n)
		}
	}
	if !names["pass"] {
		t.Errorf("no pass spans: %v", names)
	}
	prof, err := os.ReadFile(filepath.Join(dir, workload+".cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := packageWeights(prof); err != nil {
		t.Error(err)
	}
}

// deterministic reports whether a per-layer metric is made of guest
// events or virtual cycles, which repeat exactly, rather than host time.
func deterministic(name, unit string) bool {
	switch unit {
	case "cyc", "count", "instr":
		return true
	case "share":
		return !strings.HasSuffix(name, ".host_share")
	}
	return false
}
