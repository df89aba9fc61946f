package hw

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestPhysMemoryRoundTrip(t *testing.T) {
	m := NewPhysMemory(0)
	for _, size := range []int{1, 2, 4, 8} {
		addr := uint64(0x1234)
		want := uint64(0xDEADBEEFCAFEF00D) & sizeMask(size)
		if err := m.Store(addr, want, size); err != nil {
			t.Fatalf("Store size %d: %v", size, err)
		}
		got, err := m.Load(addr, size)
		if err != nil || got != want {
			t.Errorf("Load size %d = %#x, %v; want %#x", size, got, err, want)
		}
	}
}

func TestPhysMemoryCrossPage(t *testing.T) {
	m := NewPhysMemory(0)
	addr := uint64(PageSize - 3) // straddles first/second page
	if err := m.Store(addr, 0x0102030405060708, 8); err != nil {
		t.Fatal(err)
	}
	got, err := m.Load(addr, 8)
	if err != nil || got != 0x0102030405060708 {
		t.Errorf("cross-page load = %#x, %v", got, err)
	}
	if m.PagesTouched() != 2 {
		t.Errorf("PagesTouched = %d, want 2", m.PagesTouched())
	}
}

func TestPhysMemoryLimit(t *testing.T) {
	m := NewPhysMemory(8192)
	if err := m.Store(8190, 1, 4); err == nil {
		t.Error("store past limit succeeded")
	}
	var f *MemFault
	if e := m.Store(^uint64(0)-2, 1, 8); !errors.As(e, &f) {
		t.Errorf("wrapping store = %v", e)
	}
}

func TestPhysMemoryZero(t *testing.T) {
	m := NewPhysMemory(0)
	m.Store(100, ^uint64(0), 8)
	if err := m.Zero(96, 16); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Load(100, 8); v != 0 {
		t.Errorf("Zero left %#x", v)
	}
}

func TestPhysMemoryQuick(t *testing.T) {
	m := NewPhysMemory(1 << 20)
	err := quick.Check(func(addr uint32, v uint64) bool {
		a := uint64(addr) % (1<<20 - 8)
		if err := m.Store(a, v, 8); err != nil {
			return false
		}
		got, err := m.Load(a, 8)
		return err == nil && got == v
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestIntegerStateEncodeDecode(t *testing.T) {
	var s IntegerState
	for i := range s.Regs {
		s.Regs[i] = uint64(i * 1111)
	}
	s.PC, s.SP, s.Flags, s.Priv = 0x401000, 0x7FF000, 0x2, PrivUser
	buf := make([]byte, IntegerStateSize)
	s.Encode(buf)
	var d IntegerState
	d.Decode(buf)
	if d != s {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", d, s)
	}
}

func TestFPStateEncodeDecode(t *testing.T) {
	var s FPState
	for i := range s.Regs {
		s.Regs[i] = uint64(i) << 40
	}
	buf := make([]byte, FPStateSize)
	s.Encode(buf)
	var d FPState
	d.Decode(buf)
	if d.Regs != s.Regs {
		t.Error("FP round trip mismatch")
	}
}

func TestMMUTranslate(t *testing.T) {
	mmu := NewMMU()
	if err := mmu.Map(0x4000, 0x10000, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	pa, err := mmu.Translate(0x4123, PermRead, false)
	if err != nil || pa != 0x10123 {
		t.Errorf("Translate = %#x, %v", pa, err)
	}
	// Exec on a non-exec page faults.
	if _, err := mmu.Translate(0x4000, PermExec, false); err == nil {
		t.Error("exec of non-exec page succeeded")
	}
	// Unmapped page faults.
	var pf *PageFault
	_, err = mmu.Translate(0x9000, PermRead, false)
	if !errors.As(err, &pf) {
		t.Errorf("unmapped translate = %v", err)
	}
}

func TestMMUUserSupervisor(t *testing.T) {
	mmu := NewMMU()
	mmu.Map(0x4000, 0x10000, PermRead|PermWrite) // supervisor-only
	if _, err := mmu.Translate(0x4000, PermRead, true); err == nil {
		t.Error("user access to supervisor page succeeded")
	}
	mmu.Map(0x5000, 0x11000, PermRead|PermUser)
	if _, err := mmu.Translate(0x5000, PermRead, true); err != nil {
		t.Errorf("user access to user page failed: %v", err)
	}
}

func TestMMUProtectAndUnmap(t *testing.T) {
	mmu := NewMMU()
	mmu.Map(0x4000, 0x10000, PermRead|PermWrite)
	// Warm the TLB, then change protection: the TLB entry must not leak
	// stale write permission.
	mmu.Translate(0x4000, PermWrite, false)
	if err := mmu.Protect(0x4000, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, err := mmu.Translate(0x4000, PermWrite, false); err == nil {
		t.Error("write allowed after Protect removed it")
	}
	mmu.Unmap(0x4000)
	if mmu.Mapped(0x4000) {
		t.Error("page still mapped after Unmap")
	}
	if err := mmu.Protect(0x4000, PermRead); err == nil {
		t.Error("protect of unmapped page succeeded")
	}
}

func TestMMUReservedPages(t *testing.T) {
	mmu := NewMMU()
	// The SVM reserves its bootstrap page; the guest may not remap it
	// (paper §3.4: SVM memory not accessible from the kernel).
	mmu.Reserve(0x1000, 0x1000, PermRead|PermWrite)
	if err := mmu.Map(0x1000, 0x99000, PermRead|PermWrite); err == nil {
		t.Error("guest remapped an SVM-reserved page")
	}
	if err := mmu.Unmap(0x1000); err == nil {
		t.Error("guest unmapped an SVM-reserved page")
	}
	if err := mmu.Protect(0x1800, PermRead); err == nil {
		t.Error("guest reprotected an SVM-reserved page")
	}
	if _, err := mmu.Translate(0x1010, PermRead, false); err != nil {
		t.Errorf("SVM page should translate: %v", err)
	}
}

func TestInterruptController(t *testing.T) {
	ic := NewInterruptController()
	ic.Raise(VecTimer)
	if v := ic.Next(); v != -1 {
		t.Errorf("delivery while disabled = %d", v)
	}
	ic.Enable(true)
	if v := ic.Next(); v != VecTimer {
		t.Errorf("Next = %d, want %d", v, VecTimer)
	}
	if v := ic.Next(); v != -1 {
		t.Errorf("empty Next = %d", v)
	}
	// FIFO order.
	ic.Raise(1)
	ic.Raise(2)
	if ic.Next() != 1 || ic.Next() != 2 {
		t.Error("interrupts not FIFO")
	}
	if prev := ic.Enable(false); !prev {
		t.Error("Enable did not report previous state")
	}
}

func TestTimer(t *testing.T) {
	ic := NewInterruptController()
	ic.Enable(true)
	var tm Timer
	tm.Arm(100, 50)
	tm.Advance(149, ic)
	if ic.Pending() != 0 {
		t.Error("timer fired early")
	}
	tm.Advance(250, ic) // intervals at 150, 200, 250
	if ic.Pending() != 3 {
		t.Errorf("pending = %d, want 3", ic.Pending())
	}
	if tm.Ticks != 3 {
		t.Errorf("ticks = %d", tm.Ticks)
	}
}

func TestConsole(t *testing.T) {
	var c Console
	for _, b := range []byte("hi\n") {
		c.WriteByte(b)
	}
	if c.Output() != "hi\n" {
		t.Errorf("Output = %q", c.Output())
	}
	c.InjectInput([]byte("ab"))
	if b, ok := c.ReadInput(); !ok || b != 'a' {
		t.Error("ReadInput failed")
	}
	c.ResetOutput()
	if c.Output() != "" {
		t.Error("ResetOutput failed")
	}
}

func TestBlockDevice(t *testing.T) {
	d := NewBlockDevice(16)
	buf := make([]byte, SectorSize)
	buf[0], buf[511] = 0xAA, 0xBB
	if err := d.WriteSector(3, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, SectorSize)
	if err := d.ReadSector(3, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAA || got[511] != 0xBB {
		t.Error("sector data mismatch")
	}
	if err := d.ReadSector(16, got); err == nil {
		t.Error("out-of-range sector read succeeded")
	}
	if err := d.WriteSector(0, buf[:10]); err == nil {
		t.Error("short buffer write succeeded")
	}
	if d.Reads != 1 || d.Writes != 1 {
		t.Errorf("stats = %d/%d", d.Reads, d.Writes)
	}
}

func TestLoopbackNIC(t *testing.T) {
	n := NewLoopbackNIC()
	if err := n.CompatSend([]byte("packet-1")); err != nil {
		t.Fatal(err)
	}
	n.CompatSend([]byte("packet-2"))
	if n.PendingFrames() != 2 {
		t.Errorf("pending = %d", n.PendingFrames())
	}
	if string(n.CompatRecv()) != "packet-1" {
		t.Error("frames not FIFO")
	}
	if err := n.CompatSend(make([]byte, 2000)); err == nil {
		t.Error("oversize frame accepted")
	}
	if err := n.CompatSend(nil); err == nil {
		t.Error("empty frame accepted")
	}
	if n.TxBytes != 16 {
		t.Errorf("TxBytes = %d", n.TxBytes)
	}
	n.CompatRecv()
	if n.CompatRecv() != nil {
		t.Error("Recv on empty queue returned a frame")
	}
}

func TestNewMachine(t *testing.T) {
	m := NewMachine(1<<20, 64)
	if m.Phys == nil || m.CPU == nil || m.MMU == nil || m.Intr == nil ||
		m.Timer == nil || m.Console == nil || m.Disk == nil || m.NIC == nil {
		t.Fatal("machine missing components")
	}
	if !m.CPU.InKernelMode() {
		t.Error("machine must boot in kernel mode")
	}
}
