package main

import "testing"

// TestQuartsMatchPython: statistics.quantiles(range(1, 11), n=4) is
// [2.75, 5.5, 8.25] and statistics.quantiles([3, 1, 2], n=4) is
// [1.0, 2.0, 3.0].
func TestQuartsMatchPython(t *testing.T) {
	if q := quarts([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q != (quartiles{2.75, 5.5, 8.25}) {
		t.Errorf("1..10: %+v", q)
	}
	if q := quarts([]float64{3, 1, 2}); q != (quartiles{1, 2, 3}) {
		t.Errorf("3,1,2: %+v", q)
	}
}

func TestVerdict(t *testing.T) {
	seq := func(base, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + step*float64(i%5)
		}
		return xs
	}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"faster on every pair", seq(100, 1), seq(120, 1), true, "improved"},
		{"identical", seq(100, 1), seq(100, 1), true, "no worse"},
		{"slower beyond bound", seq(100, 1), seq(80, 1), true, "regressed"},
		{"slower within bound", seq(100, 1), seq(97, 1), true, "no worse"},
		{"spread beyond bound", seq(100, 30), seq(100, 30), true, "unresolved"},
		{"lower is better", seq(100, 1), seq(80, 1), false, "improved"},
	} {
		if _, got := verdict(c.a, c.b, c.higher, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareFailedRuns: a change whose runs fail more operations than the
// parent's regresses, however fast it is.
func TestCompareFailedRuns(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	side := func(rate float64, failed uint64) map[string][]savedResult {
		var rs []savedResult
		for i := 0; i < minRuns; i++ {
			r := savedResult{Workload: "syscall", Seed: 1, result: result{Correct: true, Attempted: 100, Metrics: map[string]metricValue{}}}
			for _, m := range spec.EndToEnd {
				r.Metrics[m.Name] = metricValue{Value: 100 + float64(i%3), Unit: m.Unit}
			}
			r.Metrics["host_ops_per_s"] = metricValue{Value: rate + float64(i%3), Unit: "1/s"}
			if i == 0 {
				r.Failed, r.Correct = failed, failed == 0
			}
			rs = append(rs, r)
		}
		return map[string][]savedResult{"syscall": rs}
	}
	verdicts := func(a, b map[string][]savedResult) map[string]string {
		rows, err := compare(spec, a, b)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, r := range rows {
			out[r.metric] = r.verdict
		}
		return out
	}
	if v := verdicts(side(100, 0), side(150, 0))["host_ops_per_s"]; v != "improved" {
		t.Errorf("faster, nothing failed: %s, want improved", v)
	}
	for m, v := range verdicts(side(100, 0), side(150, 2)) {
		if v != "regressed" {
			t.Errorf("faster but 2 failed operations: %s is %s, want regressed", m, v)
		}
	}
	if v := verdicts(side(100, 2), side(150, 2))["host_ops_per_s"]; v != "improved" {
		t.Errorf("faster, failures as at the parent: %s, want improved", v)
	}
}

// TestCompareOneSeed: compare refuses a directory that mixes seeds, and two
// sides run at different seeds.
func TestCompareOneSeed(t *testing.T) {
	res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
	mixed := t.TempDir()
	for _, seed := range []uint64{1, 2} {
		if err := saveResult(mixed, "syscall", seed, 0, res); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := loadResults(mixed); err == nil {
		t.Error("a directory with seeds 1 and 2 loaded")
	}
	runs := func(seed uint64) map[string][]savedResult {
		rs := make([]savedResult, minRuns)
		for i := range rs {
			rs[i] = savedResult{Workload: "syscall", Seed: seed, result: res}
		}
		return map[string][]savedResult{"syscall": rs}
	}
	if _, err := compare(benchSpec{}, runs(1), runs(2)); err == nil {
		t.Error("seed 1 compared against seed 2")
	}
}
