package hw

import (
	"bytes"
	"fmt"
	"sync"

	"sva/internal/faultinject"
)

// Well-known interrupt vectors of the simulated platform.
const (
	VecTimer   = 32
	VecConsole = 33
	VecDisk    = 34
	VecNIC     = 35
	VecIPI     = 36 // inter-processor interrupt (SMP wakeups)
	VecChan    = 37 // inter-domain channel completions
	VecSyscall = 0x80
)

// NumVectors is the size of the interrupt vector space.
const NumVectors = 256

// DevStats is the uniform counter snapshot every device exposes.
type DevStats struct {
	Name   string
	Ops    uint64 // completed operations (frames, sectors, bytes moved)
	Bytes  uint64 // payload bytes transferred
	Errors uint64 // injected faults + rejected/malformed requests
}

// Device is the uniform face of every simulated device: a name, an
// interrupt vector, a fault-injection attachment point and a counter
// snapshot.  Chaos attaches at this interface (Machine.SetChaos walks
// Devices()), so a new device gets fault coverage by embedding ChaosPort
// and registering itself — nothing per-device to open-code.
type Device interface {
	DevName() string
	Vector() int
	AttachChaos(*faultinject.Injector)
	Stats() DevStats
}

// RingDevice extends Device with descriptor-ring I/O: shared rings in
// guest-visible memory, doorbell-driven batch consumption and reapable
// completions.  See ring.go for the ring layout and trust rules.
type RingDevice interface {
	Device
	AttachRing(ring int, base, slots uint64, mem RingMemory) error
	Doorbell(ring int, now uint64) (int, error)
	Reap(ring int) (uint64, error)
}

// ChaosPort is the embeddable fault-injection attachment point.  The
// promoted Chaos field keeps the historical `dev.Chaos = inj` form
// working; AttachChaos satisfies the Device interface.
type ChaosPort struct {
	// Chaos, when set, is consulted on the device's fault seams.
	Chaos *faultinject.Injector
}

// AttachChaos arms (nil disarms) fault injection on this device.
func (p *ChaosPort) AttachChaos(inj *faultinject.Injector) { p.Chaos = inj }

// InterruptController queues raised vectors and delivers them when
// interrupts are enabled.  Handlers themselves live in the SVM/kernel; the
// controller only tracks pending state.
//
// SMP: the controller keeps one pending queue per virtual CPU.  Device
// raises land on CPU 0 (the paper's uniprocessor interrupt routing);
// RaiseOn targets a specific CPU (IPIs).  All state is mutex-guarded so
// any CPU may raise or poll concurrently.
type InterruptController struct {
	mu      sync.Mutex
	pending [][]int // one queue per virtual CPU; index 0 always exists
	enabled bool

	Raised, Delivered uint64
	// BadRaises counts Raise calls with an out-of-range vector or CPU; the
	// raise is dropped rather than crashing the platform (a fault is the
	// raiser's problem, never the controller's).
	BadRaises uint64
	// Spurious counts chaos-injected vectors delivered by Next.
	Spurious uint64
	// Chaos, when set, lets ClassIRQ inject spurious or duplicated vectors
	// at delivery time.
	Chaos *faultinject.Injector
}

// NewInterruptController returns a controller with interrupts disabled
// (as at boot) and a single CPU queue.
func NewInterruptController() *InterruptController {
	return &InterruptController{pending: make([][]int, 1)}
}

// SetCPUs sizes the per-CPU pending queues.  Call before the virtual CPUs
// start polling; existing queue contents are preserved.
func (ic *InterruptController) SetCPUs(n int) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	for len(ic.pending) < n {
		ic.pending = append(ic.pending, nil)
	}
}

// Enable turns interrupt delivery on or off, returning the previous state
// (the primitive beneath sti/cli).
func (ic *InterruptController) Enable(on bool) bool {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	prev := ic.enabled
	ic.enabled = on
	return prev
}

// Enabled reports whether interrupts are deliverable.
func (ic *InterruptController) Enabled() bool {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	return ic.enabled
}

// Raise queues vector for delivery on CPU 0 (device interrupt routing).
func (ic *InterruptController) Raise(vector int) { ic.RaiseOn(0, vector) }

// RaiseOn queues vector for delivery on the given CPU.  An out-of-range
// vector or CPU is dropped and counted: raising is reachable from
// guest-influenced paths, so a bad argument must degrade, not panic the
// host.
func (ic *InterruptController) RaiseOn(cpu, vector int) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if vector < 0 || vector >= NumVectors || cpu < 0 || cpu >= len(ic.pending) {
		ic.BadRaises++
		return
	}
	ic.pending[cpu] = append(ic.pending[cpu], vector)
	ic.Raised++
}

// Next dequeues CPU 0's next deliverable vector, or -1 if none (or
// delivery is disabled).
func (ic *InterruptController) Next() int { return ic.NextOn(0) }

// NextOn dequeues the next deliverable vector for the given CPU.
func (ic *InterruptController) NextOn(cpu int) int {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if !ic.enabled || cpu < 0 || cpu >= len(ic.pending) {
		return -1
	}
	q := ic.pending[cpu]
	if ic.Chaos != nil && ic.Chaos.Should(faultinject.ClassIRQ) {
		// Half the injections deliver the head vector again without
		// dequeuing it (a double interrupt); the rest deliver a random
		// spurious vector, possibly one no handler is installed for.
		var v int
		if len(q) > 0 && ic.Chaos.Rand(2) == 0 {
			v = q[0]
			ic.Chaos.Note("intr.next", "double delivery of vector %d", v)
		} else {
			v = int(ic.Chaos.Rand(NumVectors))
			ic.Chaos.Note("intr.next", "spurious vector %d", v)
		}
		ic.Spurious++
		return v
	}
	if len(q) == 0 {
		return -1
	}
	v := q[0]
	ic.pending[cpu] = q[1:]
	ic.Delivered++
	return v
}

// Pending returns the queued vector count across every CPU.
func (ic *InterruptController) Pending() int {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	n := 0
	for _, q := range ic.pending {
		n += len(q)
	}
	return n
}

// Timer raises VecTimer every Interval cycles when armed.
type Timer struct {
	mu       sync.Mutex
	Interval uint64
	next     uint64
	armed    bool
	Ticks    uint64
}

// Arm programs the timer to fire every interval cycles, starting from now.
func (t *Timer) Arm(now, interval uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Interval = interval
	t.next = now + interval
	t.armed = interval > 0
}

// Advance is called with the current cycle count; it raises timer
// interrupts for every elapsed interval.
func (t *Timer) Advance(now uint64, ic *InterruptController) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.armed {
		return
	}
	for now >= t.next {
		ic.Raise(VecTimer)
		t.Ticks++
		t.next += t.Interval
	}
}

// Console is a character device: output accumulates in a buffer, input is
// an injected queue (tests and examples feed it).
type Console struct {
	mu sync.Mutex
	ChaosPort
	out bytes.Buffer
	in  []byte
	// Written/Read count bytes moved in each direction.
	Written uint64
	ReadN   uint64
}

// DevName implements Device.
func (c *Console) DevName() string { return "console" }

// Vector implements Device.
func (c *Console) Vector() int { return VecConsole }

// Stats implements Device.
func (c *Console) Stats() DevStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return DevStats{Name: "console", Ops: c.Written + c.ReadN, Bytes: c.Written + c.ReadN}
}

// WriteByte emits one byte to the console output.
func (c *Console) WriteByte(b byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Written++
	return c.out.WriteByte(b)
}

// Output returns everything written so far.
func (c *Console) Output() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.String()
}

// ResetOutput clears the output buffer.
func (c *Console) ResetOutput() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out.Reset()
}

// InjectInput appends bytes to the input queue.
func (c *Console) InjectInput(p []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.in = append(c.in, p...)
}

// ReadInput pops one input byte; ok is false when the queue is empty.
func (c *Console) ReadInput() (byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.in) == 0 {
		return 0, false
	}
	b := c.in[0]
	c.in = c.in[1:]
	c.ReadN++
	return b, true
}

// SectorSize is the block device's transfer unit.
const SectorSize = 512

// BlockDevice is an in-memory disk addressed in 512-byte sectors.
type BlockDevice struct {
	mu sync.Mutex
	// ChaosPort: ClassDiskIO, when armed, fails sector transfers.
	ChaosPort
	data   []byte
	Reads  uint64
	Writes uint64
	// SeekCost simulates per-operation latency in cycles, charged by the VM.
	SeekCost uint64
	// IOErrors counts chaos-injected transfer failures.
	IOErrors uint64
}

// DevName implements Device.
func (d *BlockDevice) DevName() string { return "disk" }

// Vector implements Device.
func (d *BlockDevice) Vector() int { return VecDisk }

// Stats implements Device.
func (d *BlockDevice) Stats() DevStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DevStats{
		Name:   "disk",
		Ops:    d.Reads + d.Writes,
		Bytes:  (d.Reads + d.Writes) * SectorSize,
		Errors: d.IOErrors,
	}
}

// NewBlockDevice creates a disk with the given sector count.
func NewBlockDevice(sectors int) *BlockDevice {
	return &BlockDevice{data: make([]byte, sectors*SectorSize), SeekCost: 50}
}

// NumSectors returns the disk capacity in sectors.
func (d *BlockDevice) NumSectors() int { return len(d.data) / SectorSize }

// ReadSector copies sector n into buf (must be SectorSize bytes).
func (d *BlockDevice) ReadSector(n int, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.Chaos != nil && d.Chaos.Should(faultinject.ClassDiskIO) {
		d.IOErrors++
		d.Chaos.Note("disk.read", "I/O error reading sector %d", n)
		return fmt.Errorf("blockdev: injected I/O error on sector %d read", n)
	}
	if n < 0 || (n+1)*SectorSize > len(d.data) {
		return fmt.Errorf("blockdev: sector %d out of range", n)
	}
	if len(buf) != SectorSize {
		return fmt.Errorf("blockdev: buffer must be one sector")
	}
	copy(buf, d.data[n*SectorSize:])
	d.Reads++
	return nil
}

// WriteSector copies buf (one sector) into sector n.
func (d *BlockDevice) WriteSector(n int, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.Chaos != nil && d.Chaos.Should(faultinject.ClassDiskIO) {
		d.IOErrors++
		d.Chaos.Note("disk.write", "I/O error writing sector %d", n)
		return fmt.Errorf("blockdev: injected I/O error on sector %d write", n)
	}
	if n < 0 || (n+1)*SectorSize > len(d.data) {
		return fmt.Errorf("blockdev: sector %d out of range", n)
	}
	if len(buf) != SectorSize {
		return fmt.Errorf("blockdev: buffer must be one sector")
	}
	copy(d.data[n*SectorSize:], buf)
	d.Writes++
	return nil
}

// Machine bundles the full simulated platform.
type Machine struct {
	Phys *PhysMemory
	// CPU is the boot processor (virtual CPU 0); additional VCPUs allocate
	// their own CPU state and share everything else.
	CPU     *CPU
	MMU     *MMU
	Intr    *InterruptController
	Timer   *Timer
	Console *Console
	Disk    *BlockDevice
	NIC     *RingNIC
	// Chan is the inter-domain channel port; unlinked (fail-closed) until
	// a domain supervisor binds it to a Link.
	Chan *ChanPort
}

// NewMachine assembles a platform with the given physical memory limit and
// disk size.
func NewMachine(memLimit uint64, diskSectors int) *Machine {
	m := &Machine{
		Phys:    NewPhysMemory(memLimit),
		CPU:     NewCPU(),
		MMU:     NewMMU(),
		Intr:    NewInterruptController(),
		Timer:   &Timer{},
		Console: &Console{},
		Disk:    NewBlockDevice(diskSectors),
		NIC:     NewRingNIC(),
		Chan:    NewChanPort(),
	}
	m.NIC.Intr = m.Intr
	return m
}

// Devices enumerates the platform's devices behind the uniform Device
// interface (chaos attachment, stats collection).
func (m *Machine) Devices() []Device {
	return []Device{m.Console, m.Disk, m.NIC, m.Chan}
}

// EnableSMP prepares the platform for n virtual CPUs: switches memory
// contents to word-atomic access and sizes the per-CPU interrupt queues.
func (m *Machine) EnableSMP(n int) {
	m.Phys.EnableSMP(n > 1)
	m.Intr.SetCPUs(n)
}

// SetChaos arms (or, with nil, disarms) fault injection on every hardware
// seam of the platform at once: the memory and interrupt fabrics directly,
// and every device through its Device interface.
func (m *Machine) SetChaos(inj *faultinject.Injector) {
	m.Phys.Chaos = inj
	m.Intr.Chaos = inj
	for _, d := range m.Devices() {
		d.AttachChaos(inj)
	}
}
