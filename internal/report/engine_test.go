package report

import "testing"

// TestEngineTableSafeNative: every row of the engine table carries both
// safe/native ratios, and the virtual one is exactly the ratio of the two
// configs' virtual latencies.
func TestEngineTableSafeNative(t *testing.T) {
	if testing.Short() {
		t.Skip("boots eight kernels")
	}
	rows, _, err := RunEngine(Scale(64))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.VirtualNative <= 0 || r.WallNative <= 0 || r.HostRatio <= 0 {
			t.Errorf("%s: native not timed: %+v", r.Name, r)
		}
		if want := float64(r.Virtual) / float64(r.VirtualNative); r.VirtRatio != want || want <= 1 {
			t.Errorf("%s: virtual safe/native %.3f, want %.3f (> 1)", r.Name, r.VirtRatio, want)
		}
	}
}
