package report

import (
	"strings"
	"testing"

	"sva/internal/hbench"
	"sva/internal/typecheck"
)

func TestTable4(t *testing.T) {
	s := Table4()
	for _, want := range []string{"core", "mm", "net/protocols", "SVA-OS", "Total"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 4 missing %q:\n%s", want, s)
		}
	}
	t.Log("\n" + s)
}

func TestTables5And6QuickShape(t *testing.T) {
	rows, err := RunApps(Scale(12))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Shape: SVA-Safe must cost more than SVA-GCC for kernel-heavy rows.
	for _, r := range rows {
		if r.Name == "ldd" && r.OverSafe <= r.OverGCC {
			t.Errorf("ldd: safe %.1f%% <= gcc %.1f%%", r.OverSafe, r.OverGCC)
		}
	}
	t.Log("\n" + Table5(rows))
	t.Log("\n" + Table6(rows))
}

func TestTables7And8QuickShape(t *testing.T) {
	r, err := hbench.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	lat, err := RunLatencies(r, Scale(10))
	if err != nil {
		t.Fatal(err)
	}
	bw, err := RunBandwidths(r, Scale(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(lat) != 10 || len(bw) != 6 {
		t.Fatalf("rows = %d/%d", len(lat), len(bw))
	}
	t.Log("\n" + Table7(lat))
	t.Log("\n" + Table8(bw))
}

func TestTable9(t *testing.T) {
	s, err := Table9()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "Entire kernel") || !strings.Contains(s, "Array Indexing") {
		t.Errorf("Table 9 malformed:\n%s", s)
	}
	t.Log("\n" + s)
}

func TestTCBTable(t *testing.T) {
	rows, err := RunTCB()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(typecheck.BugKinds()) {
		t.Fatalf("%d kinds run, want %d", len(rows), len(typecheck.BugKinds()))
	}
	// RunTCB keeps only distinct corruptions, so a kind whose seeds wrap
	// onto the same site falls short here.
	for _, r := range rows {
		if len(r.Injected) != TCBSeeds {
			t.Errorf("%s: %d distinct corruptions injected, want %d: %q",
				r.Kind, len(r.Injected), TCBSeeds, r.Injected)
		}
		if r.Detected != len(r.Injected) {
			t.Errorf("%s: detected %d of %d", r.Kind, r.Detected, len(r.Injected))
		}
	}
	s, err := TCBTable()
	if err != nil {
		t.Fatal(err)
	}
	if want := "35/35 detected, 35/35 seeds injected"; !strings.Contains(s, want) {
		t.Errorf("TCB table lacks %q:\n%s", want, s)
	}
	t.Log("\n" + s)
}

// TestPaperShapeClaims pins the qualitative claims of §7.1 as regressions:
// measured in deterministic virtual cycles, they cannot flake.
func TestPaperShapeClaims(t *testing.T) {
	r, err := hbench.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	lat, err := RunLatencies(r, Scale(8))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]BenchRow{}
	for _, row := range lat {
		byName[row.Name] = row
	}
	// 1. The Safe kernel never beats the SVA-OS-only kernel.
	for _, row := range lat {
		if row.OverSafe < row.OverGCC-1 { // 1pp tolerance for rounding
			t.Errorf("%s: safe %.1f%% < gcc %.1f%%", row.Name, row.OverSafe, row.OverGCC)
		}
	}
	// 2. Checks hit computation-heavy syscalls hardest (§7.1.2): pipe and
	// fork overheads dwarf getpid's.
	if byName["pipe"].OverSafe < 2*byName["getpid"].OverSafe {
		t.Errorf("pipe %.1f%% not >> getpid %.1f%%",
			byName["pipe"].OverSafe, byName["getpid"].OverSafe)
	}
	if byName["fork"].OverSafe < 2*byName["getpid"].OverSafe {
		t.Errorf("fork %.1f%% not >> getpid %.1f%%",
			byName["fork"].OverSafe, byName["getpid"].OverSafe)
	}
	// 3. Trivial syscalls pay mostly the SVA-OS trap cost: for getpid the
	// GCC and Safe columns are close.
	if d := byName["getpid"].OverSafe - byName["getpid"].OverGCC; d > 15 {
		t.Errorf("getpid safe-gcc gap = %.1fpp; checks should not dominate it", d)
	}

	bw, err := RunBandwidths(r, Scale(2))
	if err != nil {
		t.Fatal(err)
	}
	var fileRed, pipeRed float64
	for _, row := range bw {
		red := 100 * row.OverSafe / (100 + row.OverSafe)
		if strings.HasPrefix(row.Name, "file") {
			fileRed += red / 3
		} else {
			pipeRed += red / 3
		}
	}
	// 4. Pipe bandwidth suffers more than file bandwidth (Table 8).
	if pipeRed <= fileRed {
		t.Errorf("pipe reduction %.1f%% <= file reduction %.1f%%", pipeRed, fileRed)
	}
}

func TestAblationReport(t *testing.T) {
	s, err := Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "no cloning") || !strings.Contains(s, "copy library") {
		t.Errorf("ablation malformed:\n%s", s)
	}
	t.Log("\n" + s)
}

func TestExploitTableReport(t *testing.T) {
	s, err := ExploitTable()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "4/5 exploits caught (paper: 4/5)") {
		t.Errorf("exploit table:\n%s", s)
	}
	t.Log("\n" + s)
}

func TestFigure2Report(t *testing.T) {
	s, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pchk.bounds", "pchk.reg.obj", "fib_props", "th=true"} {
		if !strings.Contains(s, want) {
			t.Errorf("Figure 2 missing %q:\n%s", want, s)
		}
	}
}

func TestAPITableReport(t *testing.T) {
	s := APITable()
	for _, want := range []string{"llva.save.integer", "sva.trap", "pchk.bounds"} {
		if !strings.Contains(s, want) {
			t.Errorf("API table missing %q", want)
		}
	}
}

// TestRegBenchModel pins the concurrent-registration microbench's
// deterministic half: the measured per-pair cycle cost is reproducible,
// and the sharded write paths model out to at least 4x the single-lock
// seed path at 8 writer VCPUs (the PR-10 acceptance bar).
func TestRegBenchModel(t *testing.T) {
	a, err := RegBenchModel(8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RegBenchModel(8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("model not deterministic: %+v vs %+v", a, b)
	}
	if a.PairCycles < a.CritCycles {
		t.Errorf("pair cost %d below critical-section cost %d", a.PairCycles, a.CritCycles)
	}
	if a.Speedup < 4 {
		t.Errorf("modeled speedup %.2fx at 8 writers, want >= 4x", a.Speedup)
	}
	s := ConcurrentRegBench(2, 200, false)
	for _, want := range []string{"virtual time (deterministic)", "single-lock (seed path)", "sharded write paths"} {
		if !strings.Contains(s, want) {
			t.Errorf("microbench output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "host wall-clock") {
		t.Errorf("wall-clock rows printed without opt-in; default output must stay deterministic:\n%s", s)
	}
	if sw := ConcurrentRegBench(2, 200, true); !strings.Contains(sw, "host wall-clock") {
		t.Errorf("wallclock=true output missing the host wall-clock rows:\n%s", sw)
	}
	if ConcurrentRegBench(2, 200, false) != s {
		t.Error("default microbench output not byte-identical across runs")
	}
}
