package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// compareMain implements "compare <dirA> <dirB>": A is the parent commit,
// B the change, each a directory of result files written by --results from
// at least ten runs at one seed, alternated between the two sides.  For
// every workload and end-to-end metric it prints each side's median and
// quartiles, the share of pairs B wins, each side's failed operations, and
// a verdict:
//
//   - regressed: B's runs failed more operations than A's, or B's median is
//     worse than A's by more than the bound (and the spreads allow a
//     verdict);
//   - improved: B wins at least 9 of 10 pairs and the medians differ by
//     more than A's interquartile range;
//   - unresolved: a side's interquartile range exceeds the metric's bound
//     (unless every B run beats every A run);
//   - no worse: otherwise.
func compareMain(args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare <dirA> <dirB>")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	a, err := loadResults(args[0])
	if err != nil {
		return err
	}
	b, err := loadResults(args[1])
	if err != nil {
		return err
	}
	rows, err := compare(spec, a, b)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-8s %-20s %28s %28s %6s %11s  %s\n", "workload", "metric",
		"A median [q1, q3]", "B median [q1, q3]", "B wins", "failed A/B", "verdict")
	for _, r := range rows {
		fmt.Fprintf(out, "%-8s %-20s %28s %28s %6.2f %11s  %s\n", r.workload, r.metric,
			fmtQuart(r.a), fmtQuart(r.b), r.wins, fmt.Sprintf("%d/%d", r.failA, r.failB), r.verdict)
	}
	return nil
}

// benchSpec is BENCHMARK.json, the benchmark's definition.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadSpec reads a benchmark definition, refusing keys it does not know.
func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// loadResults reads every untraced result file in dir, grouped by
// workload, in file-name order (names start with the run's timestamp).
// Every result in dir must come from the same seed.
func loadResults(dir string) (map[string][]savedResult, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := map[string][]savedResult{}
	var first string
	var seed uint64
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r savedResult
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if first == "" {
			first, seed = p, r.Seed
		} else if r.Seed != seed {
			return nil, fmt.Errorf("%s has seed %d but %s has seed %d; keep one seed per directory", p, r.Seed, first, seed)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, nil
}

// failures counts the operations a side's runs failed; a run that is not
// correct counts at least one.
func failures(rs []savedResult) uint64 {
	var n uint64
	for _, r := range rs {
		n += r.Failed
		if !r.Correct && r.Failed == 0 {
			n++
		}
	}
	return n
}

// minRuns is the fewest runs per side compare accepts.
const minRuns = 10

type quartiles struct{ q1, med, q3 float64 }

type compareRow struct {
	workload, metric string
	a, b             quartiles
	wins             float64
	failA, failB     uint64
	verdict          string
}

func compare(spec benchSpec, a, b map[string][]savedResult) ([]compareRow, error) {
	var rows []compareRow
	for _, w := range sortedKeys(a) {
		ra, rb := a[w], b[w]
		if len(ra) < minRuns || len(rb) < minRuns {
			return nil, fmt.Errorf("%s: %d and %d runs; compare needs at least %d per side", w, len(ra), len(rb), minRuns)
		}
		if ra[0].Seed != rb[0].Seed {
			return nil, fmt.Errorf("%s: A ran seed %d, B seed %d", w, ra[0].Seed, rb[0].Seed)
		}
		fa, fb := failures(ra), failures(rb)
		for _, m := range spec.EndToEnd {
			xa, err := values(ra, m.Name)
			if err != nil {
				return nil, err
			}
			xb, err := values(rb, m.Name)
			if err != nil {
				return nil, err
			}
			r := compareRow{workload: w, metric: m.Name, a: quarts(xa), b: quarts(xb), failA: fa, failB: fb}
			r.wins, r.verdict = verdict(xa, xb, m.Better == "higher", m.Bound)
			if fb > fa {
				// No gain counts when more operations fail than at the parent.
				r.verdict = "regressed"
			}
			rows = append(rows, r)
		}
	}
	for w := range b {
		if _, ok := a[w]; !ok {
			return nil, fmt.Errorf("workload %s has results only in B", w)
		}
	}
	return rows, nil
}

func values(rs []savedResult, metric string) ([]float64, error) {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		m, ok := r.Metrics[metric]
		if !ok {
			return nil, fmt.Errorf("%s result lacks %s", r.Workload, metric)
		}
		xs[i] = m.Value
	}
	return xs, nil
}

// verdict compares B's runs against A's for one metric.  Pairs are runs
// at the same position on each side; ties count for neither side.
func verdict(xa, xb []float64, higher bool, bound float64) (float64, string) {
	better := func(x, y float64) bool {
		if higher {
			return x > y
		}
		return x < y
	}
	pairs := len(xa)
	if len(xb) < pairs {
		pairs = len(xb)
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(xb[i], xa[i]) {
			wins++
		}
	}
	frac := float64(wins) / float64(pairs)
	qa, qb := quarts(xa), quarts(xb)
	allBetter := true
	for _, x := range xb {
		for _, y := range xa {
			allBetter = allBetter && better(x, y)
		}
	}
	worse := ratio(qb.med-qa.med, math.Abs(qa.med))
	if higher {
		worse = -worse
	}
	switch {
	case frac >= 0.9 && better(qb.med, qa.med) && math.Abs(qb.med-qa.med) > qa.q3-qa.q1:
		return frac, "improved"
	case allBetter:
		return frac, "no worse"
	case relSpread(qa) > bound || relSpread(qb) > bound:
		return frac, "unresolved"
	case worse > bound:
		return frac, "regressed"
	}
	return frac, "no worse"
}

func relSpread(q quartiles) float64 { return ratio(q.q3-q.q1, math.Abs(q.med)) }

// quarts computes quartiles the way Python's statistics.quantiles(xs, n=4)
// does (the "exclusive" method), so spreads match the benchmark contract.
func quarts(xs []float64) quartiles {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := 0.0
		if n == 1 {
			v = s[0]
		}
		return quartiles{v, v, v}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return quartiles{q(1), q(2), q(3)}
}

func fmtQuart(q quartiles) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q.med, q.q1, q.q3)
}
