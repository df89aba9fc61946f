package kernel

import (
	"testing"

	"sva/internal/abi"
	"sva/internal/hw"
	"sva/internal/ir"
	"sva/internal/userland"
	"sva/internal/vm"
)

// TestNetServeKeepsUnservedCompletions is the regression for the lost
// Rx completion: with a budget below the completed frames, sys_netserve
// used to repost transmitted buffers into Rx slots whose completions the
// guest had not served yet (the repost loop was bounded by the device's
// consumer index, not by netring_seen), and those requests were lost.
// Pump 8 frames, serve with budget 0: Rx slots 0-7 must still hold their
// completions, and the next serve must answer all 8.
func TestNetServeKeepsUnservedCompletions(t *testing.T) {
	u := userland.New("netuser")
	b := u.B
	u.Prog("net_pump")
	b.Ret(u.Trap(abi.SysNetPump, ir.I64c(8)))
	u.Prog("net_prime")
	b.Ret(u.Trap(abi.SysNetServe, ir.I64c(0)))
	u.Prog("net_serve")
	b.Ret(u.Trap(abi.SysNetServe, ir.I64c(NetRingSlots)))
	u.SealAll()

	for _, cfg := range []vm.Config{vm.ConfigSVAGCC, vm.ConfigSafe} {
		sys, err := NewSystem(cfg, true, u.M)
		if err != nil {
			t.Fatal(err)
		}
		run := func(prog string) uint64 {
			got, err := sys.RunUser(u.M.Func(prog), 0, 0)
			if err != nil {
				t.Fatalf("%v %s: %v", cfg, prog, err)
			}
			return got
		}
		if got := run("net_pump"); got != 8 {
			t.Fatalf("%v: pumped %d frames, want 8", cfg, got)
		}
		if got := run("net_prime"); got != 0 {
			t.Fatalf("%v: zero-budget serve answered %d", cfg, got)
		}
		area, _ := sys.VM.GlobalAddrByName("netring_area")
		rx := area + NetRingBytes + 16 // queue 0 Rx descriptors
		for slot := uint64(0); slot < 8; slot++ {
			st, _ := sys.VM.Mach.Phys.Load(rx+slot*16+12, 4)
			ln, _ := sys.VM.Mach.Phys.Load(rx+slot*16+8, 4)
			if st != hw.DescDone || ln != 128 {
				t.Errorf("%v: Rx slot %d holds status %d len %d, want the completed 128-byte request",
					cfg, slot, st, ln)
			}
		}
		if seen, _ := sys.PeekGlobal("netring_seen", 0); seen != 0 {
			t.Errorf("%v: netring_seen = %d after a zero-budget serve", cfg, seen)
		}
		if got := run("net_serve"); got != 8 {
			t.Errorf("%v: follow-up serve answered %d requests, want the 8 pumped", cfg, got)
		}
	}
}
