package main

import (
	"testing"

	"sva/internal/kernel"
	"sva/internal/netload"
	"sva/internal/vm"
)

// TestNetGenMatchesNetload: at netload's fixed seed the benchmark's
// generator offers the same traffic and measures the same cell as
// netload.Measure, in both regimes.
func TestNetGenMatchesNetload(t *testing.T) {
	const vcpus, perCPU = 2, 300
	for _, gap := range []int{0, netLoadGap} {
		want, err := netload.Measure(vm.ConfigSafe, vcpus, perCPU, gap)
		if err != nil {
			t.Fatal(err)
		}
		u := netload.BuildModule()
		sys, err := kernel.NewSystem(vm.ConfigSafe, true, u.M)
		if err != nil {
			t.Fatal(err)
		}
		got, err := serveCell(sys, u.M.Func("net_server"), newNetGen(0x5eed, vcpus, perCPU, gap))
		if err != nil {
			t.Fatal(err)
		}
		fpb := float64(got.completed) / float64(got.doorbells)
		if got.served != want.Served || got.failed() != 0 ||
			pctile(got.lats, 50) != want.P50 || pctile(got.lats, 99) != want.P99 ||
			fpb != want.FramesPerBell || got.replySum != want.ReplySum {
			t.Errorf("gap %d: served %d p50 %d p99 %d fr/bell %v sum %x; netload: %d %d %d %v %x",
				gap, got.served, pctile(got.lats, 50), pctile(got.lats, 99), fpb, got.replySum,
				want.Served, want.P50, want.P99, want.FramesPerBell, want.ReplySum)
		}
	}
}
