package svaos

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"sva/internal/hw"
	"sva/internal/ir"
	"sva/internal/svaops"
	"sva/internal/vm"
)

// netcostModule builds kernel-mode functions exercising the net ABI's
// cycle accounting: ring setup/post/doorbell plus the legacy per-frame
// send, each shaped so twin invocations execute identical instruction
// streams and differ only in the op handler's charge.
func netcostModule() *ir.Module {
	m := ir.NewModule("netcost")
	b := ir.NewBuilder(m)
	op := func(name string, args ...ir.Value) ir.Value {
		return b.Call(svaops.Get(m, name), args...)
	}
	ringmem := m.NewGlobal("ringmem", ir.ArrayOf(16+8*16, ir.I8), nil)
	fbuf := m.NewGlobal("fbuf", ir.ArrayOf(64, ir.I8), nil)

	// setup(): attach an 8-slot Tx ring 0 over ringmem.
	b.NewFunc("setup", ir.FuncOf(ir.I64, nil, false))
	b.Ret(op(svaops.NetRingAttach, ir.I64c(0), b.Index(ringmem, ir.I64c(0)), ir.I64c(8)))

	// post(ln): post one descriptor for fbuf with the given length (a
	// zero or oversize ln makes a deliberately bad descriptor).
	b.NewFunc("post", ir.FuncOf(ir.I64, []*ir.Type{ir.I64}, false), "ln")
	b.Ret(op(svaops.NetPost, ir.I64c(0), b.Index(fbuf, ir.I64c(0)), b.Param(0)))

	// bell(idx): ring a doorbell and return its result.  The instruction
	// stream is identical for every idx, so cycle deltas isolate the
	// handler's charge.
	b.NewFunc("bell", ir.FuncOf(ir.I64, []*ir.Type{ir.I64}, false), "idx")
	b.Ret(op(svaops.NetDoorbell, b.Param(0)))

	// send(ln): legacy per-frame send of fbuf with the given length.
	b.NewFunc("send", ir.FuncOf(ir.I64, []*ir.Type{ir.I64}, false), "ln")
	b.Ret(op(svaops.NetSend, b.Index(fbuf, ir.I64c(0)), b.Param(0)))
	return m
}

// netcostVM boots a fresh VM and runs the given (name, arg) sequence,
// returning the VM and the last return value.  Twin sequences with
// identical instruction streams retire identical step counts, so their
// cycle totals differ ONLY by the op handlers' explicit charges — the
// comparisons below are exact, immune to the engine's step-aligned
// direct-path penalty.
func netcostVM(t *testing.T, tweak func(*hw.RingNIC), seq [][2]uint64) (*vm.VM, uint64) {
	t.Helper()
	names := []string{"setup", "post", "bell", "send"}
	v := buildVM(t, vm.ConfigNative, netcostModule())
	if tweak != nil {
		tweak(v.Mach.NIC)
	}
	var last uint64
	for _, s := range seq {
		args := []uint64{s[1]}
		if s[0] == opSetup {
			args = nil
		}
		r, err := run(t, v, names[s[0]], hw.PrivKernel, 0, args...)
		if err != nil {
			t.Fatalf("%s(%d): %v", names[s[0]], s[1], err)
		}
		last = r
	}
	return v, last
}

const (
	opSetup = iota
	opPost
	opBell
	opSend
)

// TestDoorbellAmortizedCost pins the batch cost model by comparing twin
// VMs that execute identical instruction streams and differ only in the
// host-side cost constants or descriptor contents: every doorbell —
// including one that consumes only error descriptors, and even one
// refused for a bad ring index — charges PerBatchCost, plus PerFrameCost
// per consumed descriptor.
func TestDoorbellAmortizedCost(t *testing.T) {
	batch := [][2]uint64{{opSetup, 0}, {opPost, 64}, {opPost, 64}, {opPost, 64}, {opPost, 64}, {opBell, 0}}
	a, consumed := netcostVM(t, nil, batch)
	if consumed != 4 {
		t.Fatalf("doorbell consumed %d, want 4", consumed)
	}
	free, _ := netcostVM(t, func(n *hw.RingNIC) { n.PerFrameCost = 0 }, batch)
	if d := a.Mach.CPU.Cycles - free.Mach.CPU.Cycles; d != 4*a.Mach.NIC.PerFrameCost {
		t.Errorf("per-frame charge over 4 descriptors = %d, want %d", d, 4*a.Mach.NIC.PerFrameCost)
	}
	noBatch, _ := netcostVM(t, func(n *hw.RingNIC) { n.PerBatchCost = 0 }, batch)
	if d := a.Mach.CPU.Cycles - noBatch.Mach.CPU.Cycles; d != a.Mach.NIC.PerBatchCost {
		t.Errorf("per-batch charge = %d, want %d", d, a.Mach.NIC.PerBatchCost)
	}

	// Two good + two error descriptors (zero length): an identical
	// stream whose doorbell consumes the same 4 descriptors must cost
	// exactly the same — error descriptors are consumed work, not free.
	mixed := [][2]uint64{{opSetup, 0}, {opPost, 64}, {opPost, 0}, {opPost, 64}, {opPost, 0}, {opBell, 0}}
	m, mConsumed := netcostVM(t, nil, mixed)
	if mConsumed != 4 {
		t.Fatalf("mixed doorbell consumed %d, want 4", mConsumed)
	}
	if m.Mach.CPU.Cycles != a.Mach.CPU.Cycles {
		t.Errorf("mixed-batch cycles %d != clean-batch cycles %d — error descriptors rode free",
			m.Mach.CPU.Cycles, a.Mach.CPU.Cycles)
	}
	if m.Mach.NIC.BadDescs != 2 {
		t.Errorf("BadDescs = %d, want 2", m.Mach.NIC.BadDescs)
	}

	// Unattached ring: the doorbell fails (^0) but the batch overhead is
	// still charged — a guest cannot ring doorbells for free by making
	// them fail.
	badRing := [][2]uint64{{opBell, 5}}
	bad, badRet := netcostVM(t, nil, badRing)
	if badRet != ^uint64(0) {
		t.Fatalf("bad-ring doorbell returned %d", int64(badRet))
	}
	badFree, _ := netcostVM(t, func(n *hw.RingNIC) { n.PerBatchCost = 0 }, badRing)
	if d := bad.Mach.CPU.Cycles - badFree.Mach.CPU.Cycles; d != bad.Mach.NIC.PerBatchCost {
		t.Errorf("bad-ring doorbell charge = %d, want PerBatchCost %d", d, bad.Mach.NIC.PerBatchCost)
	}
}

// TestLegacySendCost pins the compat shims' legacy charge: a successful
// sva.io.net.send costs PerFrameCost; a failed one (oversize frame)
// costs nothing beyond the op dispatch — exactly the pre-ring behavior.
func TestLegacySendCost(t *testing.T) {
	v := buildVM(t, vm.ConfigNative, netcostModule())
	nic := v.Mach.NIC
	send := func(ln uint64) (uint64, uint64) {
		start := v.Mach.CPU.Cycles
		r, err := run(t, v, "send", hw.PrivKernel, 0, ln)
		if err != nil {
			t.Fatalf("send(%d): %v", ln, err)
		}
		return r, v.Mach.CPU.Cycles - start
	}
	rBad, dBad := send(4096) // oversize: fails, no per-frame charge
	if rBad != ^uint64(0) {
		t.Fatalf("oversize send returned %d", int64(rBad))
	}
	rOK, dOK := send(64)
	if rOK != 0 {
		t.Fatalf("send returned %d", int64(rOK))
	}
	if dOK != dBad+nic.PerFrameCost {
		t.Errorf("successful send cost %d vs failed %d: delta %d, want PerFrameCost %d",
			dOK, dBad, dOK-dBad, nic.PerFrameCost)
	}
	// The shim accounts the send as a 1-frame batch on the compat ring.
	if nic.Doorbells != 2 || nic.BatchHist[1] != 1 {
		t.Errorf("compat accounting: doorbells=%d hist1=%d, want 2 and 1",
			nic.Doorbells, nic.BatchHist[1])
	}
}

// TestShimLegacyCycleEquality runs a fixed net send sequence on a stock
// system and requires the virtual cycles the verbatim pre-ring handlers
// charged for it (captured on a twin system while they existed, in
// testdata/), proving the shims changed no accounting.
func TestShimLegacyCycleEquality(t *testing.T) {
	v := buildVM(t, vm.ConfigNative, netcostModule())
	for _, ln := range []uint64{64, 4096, 64, 1, 64} {
		if _, err := run(t, v, "send", hw.PrivKernel, 0, ln); err != nil {
			t.Fatal(err)
		}
	}
	got := fmt.Sprintf("cycles=%d\n", v.Mach.CPU.Cycles)
	want, err := os.ReadFile("testdata/netshim_cycles.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("shim %s != legacy %s", strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}
