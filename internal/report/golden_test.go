package report

import (
	"os"
	"testing"

	"sva/internal/hbench"
)

// TestChecksTableGolden pins the -table=checks report byte-for-byte against
// the committed capture: refactors that should not change check behaviour
// (telemetry routing, lookup fast paths) must not change a single byte,
// and changes that do move the numbers regenerate the golden deliberately.
// Virtual cycles are deterministic, so a fresh runner reproduces it exactly.
func TestChecksTableGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four kernels")
	}
	r, err := hbench.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ChecksTable(r, Scale(10))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/checks_scale10.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("ChecksTable output diverged from pre-redesign golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestProfileCoverage checks the acceptance bar for the cycle profiler:
// at least 95%% of the virtual cycles charged during the Table 7 battery
// must be attributed to a guest function.
func TestProfileCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four kernels")
	}
	r, err := hbench.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	prof, total, err := RunProfile(r, Scale(10))
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("no cycles charged")
	}
	cov := 100 * float64(prof.Attributed) / float64(total)
	if cov < 95 {
		t.Errorf("profile coverage = %.2f%% of %d cycles, want >= 95%%", cov, total)
	}
	if len(prof.Functions) == 0 || len(prof.Ops) == 0 {
		t.Errorf("profile empty: %d functions, %d ops", len(prof.Functions), len(prof.Ops))
	}
	// Per-site attribution covers every check cycle: the sites sum to
	// the check class, site by site the executions match the op counts.
	var classCyc, classCount, siteCyc, siteCount uint64
	for _, op := range prof.Ops {
		if op.Class == "check" {
			classCyc += op.Cycles
			classCount += op.Count
		}
	}
	for _, s := range prof.Sites {
		siteCyc += s.Cycles
		siteCount += s.Count
	}
	if siteCyc != classCyc || siteCount != classCount || siteCyc == 0 {
		t.Errorf("check sites hold %d cycles in %d executions, check class %d cycles in %d",
			siteCyc, siteCount, classCyc, classCount)
	}
}
