// Descriptor-ring device I/O: the Xen split-driver design (shared
// fixed-slot rings in guest-visible memory, producer/consumer indices,
// doorbell + completion batching, coalesced virtual interrupts) on top of
// the simulated platform.  See DESIGN.md §16.
//
// Trust boundary: the guest writes descriptors and the producer index
// into shared memory; the host NEVER trusts them.  Ring indices are
// free-running uint64 counters masked with slots-1 at use; the host keeps
// its own shadow consumer index (which only advances) and clamps the
// published producer to at most one ring of posted work.  Descriptor
// lengths are bounded by the MTU before any guest memory is touched, and
// every DMA transfer goes through a RingMemory whose Check/ReadAt/WriteAt
// enforce the platform's forbidden windows — a malformed descriptor
// degrades to a per-descriptor error status and a BadDescs count, never a
// host fault.
package hw

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"sva/internal/faultinject"
)

// ErrRingAttached is returned (wrapped) when a guest attempts to attach a
// ring index that is already attached.  Re-windowing a live ring would
// let a hostile guest move the descriptor window out from under the
// host's shadow consumer mid-serve, so the second attach fails instead;
// the svaos handler maps it to -EBUSY.
var ErrRingAttached = errors.New("ring already attached")

// RingMemory is the DMA view a ring device holds on guest memory.  The VM
// hands devices a guarded implementation (null page, SVM reserve and
// transfer bounds enforced); tests may use a raw PhysMemory.
type RingMemory interface {
	// Check validates [addr, addr+n) without transferring.
	Check(addr uint64, n int) error
	// Load/Store move one little-endian integer of the given byte size.
	Load(addr uint64, size int) (uint64, error)
	Store(addr uint64, v uint64, size int) error
	// ReadAt/WriteAt move bulk bytes.
	ReadAt(addr uint64, buf []byte) error
	WriteAt(addr uint64, buf []byte) error
}

// Ring geometry.  A ring is a 16-byte header followed by a power-of-two
// number of 16-byte descriptors:
//
//	off 0  u64 prod    guest-written producer index (free-running)
//	off 8  u64 cons    host-written consumer index (free-running)
//	desc:  u64 addr, u32 len, u32 status
const (
	RingHdrSize  = 16
	RingDescSize = 16
	// RingMaxSlots bounds the slot count a guest may attach.
	RingMaxSlots = 1024
)

// Descriptor status codes (host-written).
const (
	DescFree = 0 // posted by the guest, not yet consumed
	DescDone = 1 // consumed successfully
	DescErr  = 2 // consumed with an error (bad addr/len, injected fault)
)

// Ring directions: even ring indices transmit, odd receive.
const (
	RingDirTx = 0
	RingDirRx = 1
)

// NICQueues is the queue-pair count of the ring NIC (one pair per
// possible VCPU, so each queue has a single guest-side owner).
const NICQueues = 8

// RingIndex maps (queue, direction) to the flat ring index the guest ABI
// uses: queue*2 + dir.
func RingIndex(queue, dir int) int { return queue*2 + dir }

// ring is the host-side state of one attached ring.
type ring struct {
	base  uint64
	slots uint64 // power of two
	mem   RingMemory
	// cons is the TRUSTED shadow consumer index.  It only ever advances;
	// the copy written back to the shared header is a courtesy to the
	// guest, never read back.
	cons uint64
}

func (r *ring) attached() bool { return r.mem != nil }

// descAddr returns the guest address of descriptor slot i (i already
// masked by the caller).
func (r *ring) descAddr(i uint64) uint64 {
	return r.base + RingHdrSize + i*RingDescSize
}

// BatchBuckets labels the frames-per-doorbell histogram: bucket i counts
// doorbells that completed that many descriptors.
var BatchBuckets = [...]string{"0", "1", "2-3", "4-7", "8-15", "16-31", "32-63", "64-127", "128+"}

func histBucket(n int) int {
	switch {
	case n <= 0:
		return 0
	case n == 1:
		return 1
	case n < 4:
		return 2
	case n < 8:
		return 3
	case n < 16:
		return 4
	case n < 32:
		return 5
	case n < 64:
		return 6
	case n < 128:
		return 7
	}
	return 8
}

// RingNIC is the descriptor-ring network interface.  It keeps the
// loopback wire model of the old per-frame NIC (the transmit queue of a
// queue feeds its own receive backlog unless a Sink/Source is attached),
// but frames move in batches: the guest posts descriptors, rings a
// doorbell, and reaps completions, with interrupts coalesced.
//
// The synchronous Send/Recv methods remain as the legacy single-frame
// path; CompatSend/CompatRecv are the same wire cores accounted as
// 1-frame batches (the compat shims' implicit 1-slot ring).
type RingNIC struct {
	mu sync.Mutex
	ChaosPort

	rings   [NICQueues * 2]ring
	backlog [NICQueues][][]byte

	// Source, when set, is pulled at each Rx doorbell for newly-arrived
	// frames on a queue (the host-side load generator); nil means the
	// queue receives only its own looped-back transmissions.
	Source func(queue int, now uint64, max int) [][]byte
	// Sink, when set, consumes transmitted frames instead of looping
	// them back.  Each frame it receives is its own: the NIC keeps no
	// reference to it.
	Sink func(queue int, frame []byte, now uint64)

	// Intr, when set, receives coalesced completion interrupts: VecNIC
	// is raised on the queue's owning CPU once Coalesce completions
	// accumulate.
	Intr *InterruptController
	// Coalesce is the completions-per-interrupt threshold (0 disables
	// completion interrupts, as the legacy synchronous path did).
	Coalesce  int
	sinceIntr [NICQueues]int

	TxFrames uint64
	RxFrames uint64
	TxBytes  uint64
	RxBytes  uint64
	// MTU bounds frame size.
	MTU int
	// PerFrameCost simulates wire+DMA latency in cycles per frame.
	PerFrameCost uint64
	// PerBatchCost is the fixed doorbell overhead in cycles, charged once
	// per doorbell regardless of how many descriptors it moves.
	PerBatchCost uint64
	// Dropped counts chaos-injected send failures and receive drops.
	Dropped uint64
	// BadDescs counts malformed guest descriptors and producer indices
	// (clamped or errored, never trusted).
	BadDescs uint64
	// Doorbells counts doorbell operations (compat ops count as 1-frame
	// doorbells).
	Doorbells uint64
	// Completed counts ring descriptors completed by doorbells;
	// IntrRaised counts coalesced completion interrupts actually raised,
	// so Completed/IntrRaised is the achieved coalescing factor.
	Completed  uint64
	IntrRaised uint64
	// BatchHist is the frames-per-doorbell histogram (see BatchBuckets).
	BatchHist [len(BatchBuckets)]uint64
}

// NewRingNIC returns a NIC with a 1500-byte MTU and default cost model.
func NewRingNIC() *RingNIC {
	return &RingNIC{MTU: 1500, PerFrameCost: 20, PerBatchCost: 100, Coalesce: 8}
}

// NewLoopbackNIC returns the same device; the name survives from the
// synchronous per-frame NIC this type replaced.
func NewLoopbackNIC() *RingNIC { return NewRingNIC() }

// DevName implements Device.
func (n *RingNIC) DevName() string { return "nic" }

// Vector implements Device.
func (n *RingNIC) Vector() int { return VecNIC }

// Stats implements Device.
func (n *RingNIC) Stats() DevStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return DevStats{
		Name:   "nic",
		Ops:    n.TxFrames + n.RxFrames,
		Bytes:  n.TxBytes + n.RxBytes,
		Errors: n.Dropped + n.BadDescs,
	}
}

// transmit is the wire core shared by every send path: chaos seam first
// (the wire can eat any frame), then the size gate, then delivery to the
// Sink or the loopback backlog.  It takes ownership of frame, which the
// caller must not touch afterwards.  Caller holds n.mu.
func (n *RingNIC) transmit(queue int, frame []byte, now uint64) error {
	if n.Chaos != nil && n.Chaos.Should(faultinject.ClassNetIO) {
		n.Dropped++
		n.Chaos.Note("nic.send", "transmit error on %d-byte frame", len(frame))
		return fmt.Errorf("nic: injected transmit error")
	}
	if len(frame) == 0 || len(frame) > n.MTU {
		return fmt.Errorf("nic: bad frame size %d", len(frame))
	}
	n.TxFrames++
	n.TxBytes += uint64(len(frame))
	if n.Sink != nil {
		n.Sink(queue, frame, now)
		return nil
	}
	n.backlog[queue] = append(n.backlog[queue], frame)
	return nil
}

// rxPop is the receive core shared by every receive path: empty check
// first (an empty queue consumes no chaos budget), then the chaos drop
// seam, then the pop.  Caller holds n.mu.
func (n *RingNIC) rxPop(queue int) []byte {
	if len(n.backlog[queue]) == 0 {
		return nil
	}
	if n.Chaos != nil && n.Chaos.Should(faultinject.ClassNetIO) {
		// The wire ate the frame: drop it and report an empty queue.
		n.backlog[queue] = n.backlog[queue][1:]
		n.Dropped++
		n.Chaos.Note("nic.recv", "dropped received frame")
		return nil
	}
	f := n.backlog[queue][0]
	n.backlog[queue] = n.backlog[queue][1:]
	n.RxFrames++
	n.RxBytes += uint64(len(f))
	return f
}

// Send transmits a copy of one frame synchronously on queue 0 (legacy
// path); the caller keeps frame.
func (n *RingNIC) Send(frame []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.transmit(0, bytes.Clone(frame), 0)
}

// Recv pops the next received frame on queue 0 (nil when empty).
func (n *RingNIC) Recv() []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rxPop(0)
}

// CompatSend is Send accounted as a 1-frame doorbell on the compat
// shims' implicit 1-slot ring.  Wire behavior (chaos ordering, size
// gate, counters) is bit-identical to Send.
func (n *RingNIC) CompatSend(frame []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.Doorbells++
	err := n.transmit(0, bytes.Clone(frame), 0)
	if err != nil {
		n.BatchHist[histBucket(0)]++
		return err
	}
	n.BatchHist[histBucket(1)]++
	return nil
}

// CompatRecv is Recv accounted as a 1-frame doorbell on the compat ring.
func (n *RingNIC) CompatRecv() []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.Doorbells++
	f := n.rxPop(0)
	if f == nil {
		n.BatchHist[histBucket(0)]++
		return nil
	}
	n.BatchHist[histBucket(1)]++
	return f
}

// PendingFrames returns queue 0's receive-backlog depth.
func (n *RingNIC) PendingFrames() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.backlog[0])
}

// PendingOn returns the receive-backlog depth of one queue.
func (n *RingNIC) PendingOn(queue int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if queue < 0 || queue >= NICQueues {
		return 0
	}
	return len(n.backlog[queue])
}

// AttachRing implements RingDevice: it binds ring index rx (queue*2+dir)
// to a descriptor ring at base with the given power-of-two slot count,
// validating the whole ring window up front and resetting the host
// consumer shadow.
func (n *RingNIC) AttachRing(idx int, base, slots uint64, mem RingMemory) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if idx < 0 || idx >= len(n.rings) {
		return fmt.Errorf("nic: ring index %d out of range", idx)
	}
	if mem == nil {
		return fmt.Errorf("nic: nil ring memory")
	}
	if slots == 0 || slots > RingMaxSlots || slots&(slots-1) != 0 {
		return fmt.Errorf("nic: bad slot count %d", slots)
	}
	if n.rings[idx].attached() {
		return fmt.Errorf("nic: ring %d: %w", idx, ErrRingAttached)
	}
	if err := mem.Check(base, int(RingHdrSize+slots*RingDescSize)); err != nil {
		return fmt.Errorf("nic: ring window: %w", err)
	}
	n.rings[idx] = ring{base: base, slots: slots, mem: mem}
	return n.rings[idx].mem.Store(base+8, 0, 8)
}

// Post writes one descriptor into a ring on the guest's behalf and
// advances the published producer index.  It returns false (without
// error) when the ring is full; the descriptor content is still
// validated only at doorbell time — Post is a producer-side convenience,
// not a trust point.
func (n *RingNIC) Post(idx int, addr, ln uint64) (bool, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r, err := n.ringAt(idx)
	if err != nil {
		return false, err
	}
	prod, err := r.mem.Load(r.base, 8)
	if err != nil {
		return false, err
	}
	if prod-r.cons >= r.slots {
		return false, nil // full (or producer index corrupted past full)
	}
	da := r.descAddr(prod & (r.slots - 1))
	if err := r.mem.Store(da, addr, 8); err != nil {
		return false, err
	}
	if err := r.mem.Store(da+8, ln, 4); err != nil {
		return false, err
	}
	if err := r.mem.Store(da+12, DescFree, 4); err != nil {
		return false, err
	}
	return true, r.mem.Store(r.base, prod+1, 8)
}

// Reap implements RingDevice: it returns the host's trusted consumer
// index for a ring.  Every descriptor below it has a final status.
func (n *RingNIC) Reap(idx int) (uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r, err := n.ringAt(idx)
	if err != nil {
		return 0, err
	}
	return r.cons, nil
}

func (n *RingNIC) ringAt(idx int) (*ring, error) {
	if idx < 0 || idx >= len(n.rings) {
		return nil, fmt.Errorf("nic: ring index %d out of range", idx)
	}
	r := &n.rings[idx]
	if !r.attached() {
		return nil, fmt.Errorf("nic: ring %d not attached", idx)
	}
	return r, nil
}

// Doorbell implements RingDevice: it consumes posted descriptors on one
// ring (transmitting for Tx rings, filling buffers for Rx rings),
// returning how many descriptors it completed.  now is the caller's
// virtual-cycle clock, used for open-loop arrival pull and latency
// stamping.
func (n *RingNIC) Doorbell(idx int, now uint64) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r, err := n.ringAt(idx)
	if err != nil {
		return 0, err
	}
	n.Doorbells++
	queue, dir := idx/2, idx%2

	// Read the guest's producer index; clamp to one ring of work.  A
	// producer that jumped backwards yields avail > slots after the
	// subtraction (uint64 wrap), so the same clamp covers both attacks.
	prod, err := r.mem.Load(r.base, 8)
	if err != nil {
		return 0, err
	}
	avail := prod - r.cons
	if avail > r.slots {
		n.BadDescs++
		avail = r.slots
	}

	var consumed int
	if dir == RingDirTx {
		consumed = n.doorbellTx(r, queue, avail, now)
	} else {
		consumed = n.doorbellRx(r, queue, avail, now)
	}

	r.cons += uint64(consumed)
	// Best-effort: publish the consumer index for the guest to read
	// directly; Reap returns the authoritative copy.
	_ = r.mem.Store(r.base+8, r.cons, 8)

	n.BatchHist[histBucket(consumed)]++
	n.completions(queue, consumed)
	return consumed, nil
}

// doorbellTx consumes up to avail posted Tx descriptors: validate the
// length against the MTU BEFORE touching guest memory, DMA-read the
// frame through the guarded memory, and transmit.  Every failure is a
// per-descriptor DescErr, never a fault.
func (n *RingNIC) doorbellTx(r *ring, queue int, avail uint64, now uint64) int {
	consumed := 0
	for i := uint64(0); i < avail; i++ {
		slot := (r.cons + uint64(consumed)) & (r.slots - 1)
		da := r.descAddr(slot)
		addr, err1 := r.mem.Load(da, 8)
		ln, err2 := r.mem.Load(da+8, 4)
		status := uint64(DescErr)
		if err1 == nil && err2 == nil && ln > 0 && ln <= uint64(n.MTU) {
			buf := make([]byte, ln)
			if err := r.mem.ReadAt(addr, buf); err != nil {
				n.BadDescs++
			} else if err := n.transmit(queue, buf, now); err == nil {
				status = DescDone
			}
		} else {
			n.BadDescs++
		}
		_ = r.mem.Store(da+12, status, 4)
		consumed++
	}
	return consumed
}

// doorbellRx fills up to avail posted Rx descriptors from the queue's
// backlog (pulling the Source first), truncating frames to the posted
// capacity and writing the used length back.  It stops at the first
// descriptor it cannot fill, leaving it posted.
func (n *RingNIC) doorbellRx(r *ring, queue int, avail uint64, now uint64) int {
	if n.Source != nil && avail > 0 {
		for _, f := range n.Source(queue, now, int(avail)) {
			n.backlog[queue] = append(n.backlog[queue], f)
		}
	}
	consumed := 0
	for uint64(consumed) < avail {
		if len(n.backlog[queue]) == 0 {
			break
		}
		f := n.rxPop(queue)
		if f == nil {
			continue // chaos ate this frame; the descriptor stays posted
		}
		slot := (r.cons + uint64(consumed)) & (r.slots - 1)
		da := r.descAddr(slot)
		addr, err1 := r.mem.Load(da, 8)
		cap64, err2 := r.mem.Load(da+8, 4)
		status := uint64(DescErr)
		used := uint64(0)
		if err1 == nil && err2 == nil && cap64 > 0 && cap64 <= uint64(n.MTU) {
			used = uint64(len(f))
			if used > cap64 {
				used = cap64
			}
			if err := r.mem.WriteAt(addr, f[:used]); err != nil {
				n.BadDescs++
				used = 0
			} else {
				status = DescDone
			}
		} else {
			n.BadDescs++
		}
		_ = r.mem.Store(da+8, used, 4)
		_ = r.mem.Store(da+12, status, 4)
		consumed++
	}
	return consumed
}

// completions runs the interrupt coalescing policy: accumulate completed
// descriptors per queue and raise one VecNIC on the queue's owning CPU
// each time the threshold fills.  Caller holds n.mu.
func (n *RingNIC) completions(queue, consumed int) {
	if consumed == 0 {
		return
	}
	n.Completed += uint64(consumed)
	if n.Intr == nil || n.Coalesce <= 0 {
		return
	}
	n.sinceIntr[queue] += consumed
	for n.sinceIntr[queue] >= n.Coalesce {
		n.sinceIntr[queue] -= n.Coalesce
		n.Intr.RaiseOn(queue, VecNIC)
		n.IntrRaised++
	}
}
