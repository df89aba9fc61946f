package report

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"sva/internal/hbench"
)

func TestForEach(t *testing.T) {
	for _, workers := range []int{1, 4} {
		got := make([]int, 8)
		if err := forEach(workers, len(got), func(i int) error {
			got[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Errorf("workers=%d: got[%d] = %d", workers, i, v)
			}
		}
	}
	// Lowest-index error wins regardless of completion order.
	boom := errors.New("boom")
	err := forEach(4, 8, func(i int) error {
		if i == 2 || i == 6 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Errorf("forEach error = %v", err)
	}
}

func TestRunJobsOrderAndErrors(t *testing.T) {
	jobs := []TableJob{
		{Name: "a", Gen: func() (string, error) { return "A", nil }},
		{Name: "b", Gen: func() (string, error) { return "B", nil }},
		{Name: "c", Gen: func() (string, error) { return "C", nil }},
	}
	for _, workers := range []int{1, 3} {
		out, err := RunJobs(jobs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, []string{"A", "B", "C"}) {
			t.Errorf("workers=%d: out = %q", workers, out)
		}
	}
	bad := append(jobs, TableJob{Name: "d", Gen: func() (string, error) {
		return "", errors.New("nope")
	}})
	if _, err := RunJobs(bad, 2); err == nil || !strings.Contains(err.Error(), "d:") {
		t.Errorf("RunJobs error = %v, want wrapped job name", err)
	}
}

// TestParallelLatenciesMatchSerial is the bit-identity guarantee for the
// fan-out inside Table 7: every cycle count must be byte-for-byte the
// same whether configurations run serially or concurrently.
func TestParallelLatenciesMatchSerial(t *testing.T) {
	serial, err := hbench.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	srows, err := RunLatenciesN(serial, Scale(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := hbench.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	prows, err := RunLatenciesN(par, Scale(10), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(srows, prows) {
		t.Errorf("parallel latency rows diverge from serial:\n%s\nvs\n%s",
			Table7(srows), Table7(prows))
	}
}

func TestParallelAppsMatchSerial(t *testing.T) {
	srows, err := RunAppsN(Scale(12), 1)
	if err != nil {
		t.Fatal(err)
	}
	prows, err := RunAppsN(Scale(12), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(srows, prows) {
		t.Errorf("parallel app rows diverge from serial:\n%s\nvs\n%s",
			Table5(srows), Table5(prows))
	}
}

func TestChecksTable(t *testing.T) {
	r, err := hbench.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	s, err := ChecksTable(r, Scale(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Check statistics", "pm-hit", "Total", "indirect-call checks", "vm counters"} {
		if !strings.Contains(s, want) {
			t.Errorf("checks table missing %q:\n%s", want, s)
		}
	}
	t.Log("\n" + s)
}
