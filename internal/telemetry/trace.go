package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// EventKind names one structured trace event type.
type EventKind string

const (
	// EvTrapEnter: a syscall or interrupt entered the kernel
	// (Args[0] = syscall number / interrupt vector).
	EvTrapEnter EventKind = "trap.enter"
	// EvTrapExit: an interrupt context popped; the interrupted
	// computation resumes.
	EvTrapExit EventKind = "trap.exit"
	// EvCheck: a run-time check executed (Name = pchk.* operation,
	// Err set when the check raised a violation).
	EvCheck EventKind = "check"
	// EvMMU: an MMU configuration operation executed (Name = sva.mmu.*).
	EvMMU EventKind = "mmu"
	// EvPoolCreate: a metapool was registered.
	EvPoolCreate EventKind = "pool.create"
	// EvPoolReset: a metapool was destroyed/reset.
	EvPoolReset EventKind = "pool.reset"
	// EvOops: a guest fault was absorbed by the EFAULT oops unwind
	// (Args[0] = faulting PC when known; Err = fault description).
	EvOops EventKind = "oops"
	// EvFailStop: the recovery ladder gave up on the current execution
	// and stopped it with a structured diagnostic (Err = reason).
	EvFailStop EventKind = "failstop"
	// EvQuarantine: a metapool's metadata was found corrupt and the pool
	// was quarantined (Name = pool name).
	EvQuarantine EventKind = "quarantine"
	// EvInject: a fault injector fired (Name = seam site, Err = payload).
	EvInject EventKind = "inject"
)

// Event is one structured trace record.  Cycle is the virtual-cycle clock
// at emission, so traces line up exactly with profiles and benchmarks.
type Event struct {
	Seq   uint64    `json:"seq"`
	Cycle uint64    `json:"cycle"`
	Kind  EventKind `json:"kind"`
	Name  string    `json:"name,omitempty"`
	Args  []uint64  `json:"args,omitempty"`
	Err   string    `json:"err,omitempty"`
}

// Trace is a bounded ring buffer of Events: when full, the oldest events
// are overwritten.  The zero capacity is rounded up to 1.
type Trace struct {
	buf []Event
	seq uint64
	// CycleSource, when set, stamps each event with the current virtual
	// cycle (the VM wires this to its CPU cycle counter).
	CycleSource func() uint64
}

// NewTrace returns a trace ring holding up to capacity events.
func NewTrace(capacity int) *Trace {
	if capacity < 1 {
		capacity = 1
	}
	return &Trace{buf: make([]Event, capacity)}
}

// Emit appends an event, overwriting the oldest when the ring is full.
// args is copied, so callers may pass stack-allocated slices.
func (t *Trace) Emit(kind EventKind, name string, args []uint64, errMsg string) {
	e := Event{Seq: t.seq, Kind: kind, Name: name, Err: errMsg}
	if len(args) > 0 {
		e.Args = append([]uint64(nil), args...)
	}
	if t.CycleSource != nil {
		e.Cycle = t.CycleSource()
	}
	t.buf[t.seq%uint64(len(t.buf))] = e
	t.seq++
}

// Len returns how many events the ring currently holds.
func (t *Trace) Len() int {
	if t.seq < uint64(len(t.buf)) {
		return int(t.seq)
	}
	return len(t.buf)
}

// Dropped returns how many events were overwritten.
func (t *Trace) Dropped() uint64 {
	if n := uint64(len(t.buf)); t.seq > n {
		return t.seq - n
	}
	return 0
}

// Events returns the buffered events, oldest first.
func (t *Trace) Events() []Event {
	n := t.Len()
	out := make([]Event, 0, n)
	start := t.seq - uint64(n)
	for i := uint64(0); i < uint64(n); i++ {
		out = append(out, t.buf[(start+i)%uint64(len(t.buf))])
	}
	return out
}

// WriteJSONL writes events as one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	for _, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}
