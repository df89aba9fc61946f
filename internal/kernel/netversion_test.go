package kernel

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"sva/internal/abi"
	"sva/internal/ir"
	"sva/internal/metapool"
	"sva/internal/userland"
	"sva/internal/vm"
)

// netServeOutcome is everything a hostile descriptor could make the serve
// loop disturb: the served count (or error), the violations raised, the
// transmitted replies, queue 0's frame buffers and its ring state.
type netServeOutcome struct {
	Served     uint64
	Err        string
	Violations []metapool.Violation
	Replies    [][]byte
	Bufs       []byte
	Rings      []byte
	Seen       uint64
	Treap      uint64
	Elided     uint64 // elided bounds checks executed (differs by design)
}

// runCorruptedServe boots a safe kernel with loop versioning (rule R4)
// toggled, has the NIC deliver eight request frames on queue 0, lets a
// zero-budget sys_netserve complete them on the Rx ring, overwrites the
// length of the first completed Rx descriptor with ln, and serves.
func runCorruptedServe(t *testing.T, disableR4 bool, ln uint64) netServeOutcome {
	t.Helper()
	u := userland.New("netuser")
	b := u.B
	u.Prog("net_prime")
	b.Ret(u.Trap(abi.SysNetServe, ir.I64c(0)))
	u.Prog("net_serve")
	b.Ret(u.Trap(abi.SysNetServe, ir.I64c(NetRingSlots)))
	u.SealAll()

	scfg := SafetyConfig(true)
	scfg.DisableLoopVersioning = disableR4
	sys, err := NewSystemWith(vm.ConfigSafe, scfg, u.M)
	if err != nil {
		t.Fatal(err)
	}
	var out netServeOutcome
	sent := false
	sys.VM.Mach.NIC.Source = func(queue int, now uint64, max int) [][]byte {
		if queue != 0 || sent {
			return nil
		}
		sent = true
		var fs [][]byte
		for i := 0; i < 8; i++ {
			f := make([]byte, 128)
			for k := range f {
				f[k] = byte(i*131 + k*7)
			}
			fs = append(fs, f)
		}
		return fs
	}
	sys.VM.Mach.NIC.Sink = func(queue int, frame []byte, now uint64) {
		out.Replies = append(out.Replies, frame)
	}
	if got, err := sys.RunUser(u.M.Func("net_prime"), 0, 0); err != nil || got != 0 {
		t.Fatalf("prime: served %d, err %v", got, err)
	}
	area, _ := sys.VM.GlobalAddrByName("netring_area")
	bufs, _ := sys.VM.GlobalAddrByName("netring_bufs")
	seen, err := sys.PeekGlobal("netring_seen", 0)
	if err != nil {
		t.Fatal(err)
	}
	desc := area + NetRingBytes + 16 + (seen&(NetRingSlots-1))*16 // queue 0 Rx
	if st, _ := sys.VM.Mach.Phys.Load(desc+12, 4); st != 1 {
		t.Fatalf("Rx descriptor at seen=%d not completed (status %d)", seen, st)
	}
	if err := sys.VM.Mach.Phys.Store(desc+8, ln, 4); err != nil {
		t.Fatal(err)
	}
	elided0 := sys.VM.Counters.ElidedBounds
	before := len(sys.VM.Violations)
	out.Served, err = sys.RunUser(u.M.Func("net_serve"), 0, 0)
	if err != nil {
		out.Err = err.Error()
	}
	for _, v := range sys.VM.Violations[before:] {
		out.Violations = append(out.Violations, *v)
	}
	out.Elided = sys.VM.Counters.ElidedBounds - elided0
	read := func(addr, n uint64) []byte {
		buf := make([]byte, n)
		if err := sys.VM.Mach.Phys.ReadAt(addr, buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	out.Bufs = read(bufs, netQBufs*NetFrameSize)
	out.Rings = read(area, 2*NetRingBytes)
	out.Seen, _ = sys.PeekGlobal("netring_seen", 0)
	out.Treap, _ = sys.PeekGlobal("netring_treap", 0)
	return out
}

// TestLoopVersioningNetServeEquivalence corrupts a completed Rx
// descriptor's length — the untrusted bound of sys_netserve's checksum
// loop — and serves with R4 on and off.  Lengths below, at and just past
// the loop start, a normal frame, the frame end, one past it and 2^32-1
// (which walks off the end of netring_bufs) must all leave the served
// count, the violations, every reply byte and the ring indices identical.
func TestLoopVersioningNetServeEquivalence(t *testing.T) {
	fastRuns := 0
	for _, ln := range []uint64{0, 23, 24, 25, 128, NetFrameSize, NetFrameSize + 1, 1<<32 - 1} {
		t.Run(fmt.Sprint(ln), func(t *testing.T) {
			on := runCorruptedServe(t, false, ln)
			off := runCorruptedServe(t, true, ln)
			if on.Served != off.Served || on.Err != off.Err {
				t.Errorf("served %d (err %q) with R4, %d (err %q) without", on.Served, on.Err, off.Served, off.Err)
			}
			if !reflect.DeepEqual(on.Violations, off.Violations) {
				t.Errorf("violations with R4 %v, without %v", on.Violations, off.Violations)
			}
			if !reflect.DeepEqual(on.Replies, off.Replies) || !bytes.Equal(on.Bufs, off.Bufs) {
				t.Errorf("reply bytes differ (%d vs %d replies)", len(on.Replies), len(off.Replies))
			}
			if !bytes.Equal(on.Rings, off.Rings) || on.Seen != off.Seen || on.Treap != off.Treap {
				t.Errorf("ring state differs: seen %d/%d treap %d/%d", on.Seen, off.Seen, on.Treap, off.Treap)
			}
			if on.Elided < off.Elided {
				t.Errorf("R4 run elided %d checks, checked run %d", on.Elided, off.Elided)
			}
			if on.Elided > off.Elided {
				fastRuns++
			}
			t.Logf("served=%d err=%q violations=%d replies=%d elided %d vs %d",
				on.Served, on.Err, len(on.Violations), len(on.Replies), on.Elided, off.Elided)
		})
	}
	if fastRuns == 0 {
		t.Error("no run took the versioned checksum loop")
	}
}
