package hw

import (
	"testing"

	"sva/internal/faultinject"
)

// TestRaiseOutOfRangeDoesNotPanic covers the converted panic site: a bad
// vector from a guest-influenced path is dropped and counted.
func TestRaiseOutOfRangeDoesNotPanic(t *testing.T) {
	ic := NewInterruptController()
	ic.Enable(true)
	for _, vec := range []int{-1, NumVectors, NumVectors + 1000, 1 << 30} {
		ic.Raise(vec)
	}
	if ic.BadRaises != 4 {
		t.Errorf("BadRaises = %d, want 4", ic.BadRaises)
	}
	if ic.Raised != 0 || ic.Pending() != 0 {
		t.Errorf("bad raises must not enqueue: raised=%d pending=%d", ic.Raised, ic.Pending())
	}
	ic.Raise(VecTimer)
	if ic.Next() != VecTimer {
		t.Error("valid vector lost after bad raises")
	}
}

// TestIRQInjection: an armed ClassIRQ injector produces spurious or
// doubled vectors, counted separately from real deliveries.
func TestIRQInjection(t *testing.T) {
	ic := NewInterruptController()
	ic.Enable(true)
	ic.Chaos = faultinject.New(faultinject.ClassIRQ, 3)
	ic.Chaos.SetInterval(1) // fire on every delivery attempt
	ic.Raise(VecDisk)
	sawInjected := false
	for i := 0; i < 16; i++ {
		v := ic.Next()
		if v < 0 || v >= NumVectors {
			if v != -1 {
				t.Fatalf("injected vector %d outside vector space", v)
			}
		}
		if ic.Spurious > 0 {
			sawInjected = true
		}
	}
	if !sawInjected {
		t.Error("interval-1 injector never fired")
	}
}

// TestDiskNICInjection: disk and NIC hooks return structured errors and
// count them; disarmed devices behave normally.
func TestDiskNICInjection(t *testing.T) {
	d := NewBlockDevice(8)
	d.Chaos = faultinject.New(faultinject.ClassDiskIO, 9)
	d.Chaos.SetInterval(1)
	buf := make([]byte, SectorSize)
	if err := d.ReadSector(0, buf); err == nil {
		t.Error("interval-1 disk injector did not fail the read")
	}
	if d.IOErrors == 0 {
		t.Error("IOErrors not counted")
	}
	d.Chaos = nil
	if err := d.ReadSector(0, buf); err != nil {
		t.Errorf("disarmed disk read failed: %v", err)
	}

	n := NewLoopbackNIC()
	n.Chaos = faultinject.New(faultinject.ClassNetIO, 9)
	n.Chaos.SetInterval(1)
	if err := n.CompatSend([]byte{1, 2, 3}); err == nil {
		t.Error("interval-1 NIC injector did not fail the send")
	}
	if n.Dropped == 0 {
		t.Error("Dropped not counted")
	}
	n.Chaos = nil
	if err := n.CompatSend([]byte{1, 2, 3}); err != nil {
		t.Errorf("disarmed NIC send failed: %v", err)
	}
	if f := n.CompatRecv(); len(f) != 3 {
		t.Errorf("frame lost after disarm: %v", f)
	}
}

// TestMemFlipInjection: a ClassMemFlip injector flips exactly one bit of
// a loaded value and the flip persists in memory.
func TestMemFlipInjection(t *testing.T) {
	m := NewPhysMemory(0)
	if err := m.Store(0x1000, 0xAABBCCDD, 8); err != nil {
		t.Fatal(err)
	}
	m.Chaos = faultinject.New(faultinject.ClassMemFlip, 5)
	m.Chaos.SetInterval(1)
	got, err := m.Load(0x1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	diff := got ^ 0xAABBCCDD
	if diff == 0 || diff&(diff-1) != 0 {
		t.Errorf("flip changed %#x bits, want exactly one", diff)
	}
	m.Chaos = nil
	again, err := m.Load(0x1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if again != got {
		t.Errorf("flip did not persist: %#x then %#x", got, again)
	}
}
