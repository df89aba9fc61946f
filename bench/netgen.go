package main

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"sva/internal/ir"
	"sva/internal/kernel"
	"sva/internal/netload"
)

// netGen is the benchmark's open-loop request generator for the
// descriptor-ring NIC.  It keeps internal/netload's traffic model — the
// 128-byte frame (conn, request index, guest-written checksum at offset 16,
// pseudorandom payload), splitmix64 inter-arrival gaps drawn per queue, and
// latency measured from the scheduled (not delivered) arrival — but takes
// its seed as a parameter, so each benchmark seed offers different traffic.
// At seed 0x5eed it reproduces netload.Measure bit for bit (netgen_test.go).
//
// Queue q is served by virtual CPU q and every callback runs under the NIC
// lock, so each queue's state is touched by one goroutine at a time.
type netGen struct {
	perQueue int
	gap      int
	qs       []genQueue
}

type genQueue struct {
	rng      uint64
	epoch    uint64 // virtual-cycle origin: the queue's first Rx doorbell
	epochSet bool
	rel      uint64 // schedule offset of the last released arrival
	nextGap  uint64 // drawn but not yet released inter-arrival gap
	haveGap  bool
	sched    []uint64 // scheduled arrival per request index
	lats     []uint64 // completion latency per valid reply
	lags     []uint64 // release lateness: doorbell time minus scheduled arrival
	served   int
	bad      int    // replies with a wrong checksum, short frame or unknown index
	replySum uint64 // FNV-1a over every reply byte, in service order
}

func newNetGen(seed uint64, queues, perQueue, gap int) *netGen {
	g := &netGen{perQueue: perQueue, gap: gap, qs: make([]genQueue, queues)}
	for q := range g.qs {
		g.qs[q].rng = seed*0x9e3779b97f4a7c15 + uint64(q+1)
		g.qs[q].replySum = 14695981039346656037 // FNV-1a offset basis
	}
	return g
}

func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// source is the RingNIC arrival callback: it releases every request whose
// scheduled arrival has passed, up to max posted Rx slots.
func (g *netGen) source(queue int, now uint64, max int) [][]byte {
	if queue < 0 || queue >= len(g.qs) {
		return nil
	}
	q := &g.qs[queue]
	if !q.epochSet {
		q.epoch, q.epochSet = now, true
	}
	var out [][]byte
	for len(out) < max && len(q.sched) < g.perQueue {
		if !q.haveGap {
			q.nextGap = 1
			if g.gap > 0 {
				q.nextGap += splitmix(&q.rng) % uint64(2*g.gap)
			}
			q.haveGap = true
		}
		arr := q.epoch + q.rel + q.nextGap
		if arr > now {
			break // not due yet; the drawn gap waits for a later doorbell
		}
		q.rel += q.nextGap
		q.haveGap = false
		f := make([]byte, netload.ReqBytes)
		binary.LittleEndian.PutUint64(f[0:], splitmix(&q.rng)%netload.ConnSpace)
		binary.LittleEndian.PutUint64(f[8:], uint64(len(q.sched)))
		for i := 24; i < netload.ReqBytes; i += 8 {
			binary.LittleEndian.PutUint64(f[i:], splitmix(&q.rng))
		}
		q.sched = append(q.sched, arr)
		q.lags = append(q.lags, now-arr)
		out = append(out, f)
	}
	return out
}

// sink is the RingNIC transmit callback: it checks the checksum the guest
// stamped into the reply and records latency from the scheduled arrival.
func (g *netGen) sink(queue int, frame []byte, now uint64) {
	if queue < 0 || queue >= len(g.qs) {
		return
	}
	q := &g.qs[queue]
	q.served++
	for _, b := range frame {
		q.replySum = (q.replySum ^ uint64(b)) * 1099511628211
	}
	if len(frame) != netload.ReqBytes {
		q.bad++
		return
	}
	req := binary.LittleEndian.Uint64(frame[8:])
	var want uint64
	for _, b := range frame[24:] {
		want += uint64(b)
	}
	if binary.LittleEndian.Uint64(frame[16:]) != want || req >= uint64(len(q.sched)) {
		q.bad++
		return
	}
	q.lats = append(q.lats, now-q.sched[req])
}

// cellResult is one served cell: a RunSMP dispatch of one net_server task
// per virtual CPU against one generator.
type cellResult struct {
	issued, served, valid int
	queue0Valid           int // valid replies on queue 0 (served by VCPU 0)
	// busy sums the VCPUs' virtual-cycle deltas; makespan is the largest.
	busy, makespan uint64
	lats, lags     []uint64 // sorted, virtual cycles
	replySum       uint64   // per-queue digests XOR-folded (netload.Point.ReplySum)
	// Ring NIC counter deltas over the cell.
	doorbells, completed, intr, badDescs uint64
	hostNs                               int64  // host time of RunSMP alone
	allocB                               uint64 // Go heap bytes allocated by RunSMP
}

// serveCell attaches g to sys's NIC, parks one net_server task per queue
// and dispatches them across len(g.qs) virtual CPUs.  Only RunSMP is timed.
func serveCell(sys *kernel.System, server *ir.Function, g *netGen) (cellResult, error) {
	vcpus := len(g.qs)
	nic := sys.VM.Mach.NIC
	nic.Source, nic.Sink = g.source, g.sink
	defer func() { nic.Source, nic.Sink = nil, nil }()
	for t := 0; t < vcpus; t++ {
		if _, err := sys.SpawnSMP(server, uint64(g.perQueue)); err != nil {
			return cellResult{}, err
		}
	}
	bells0, done0, intr0, bad0 := nic.Doorbells, nic.Completed, nic.IntrRaised, nic.BadDescs
	a0 := heapAllocs()
	start := time.Now()
	runs, err := sys.RunSMP(vcpus, 0)
	c := cellResult{hostNs: time.Since(start).Nanoseconds(), allocB: heapAllocs() - a0}
	if err != nil {
		return c, err
	}
	for _, r := range runs {
		if r.Err != nil {
			return c, fmt.Errorf("vcpu %d: %w", r.CPU, r.Err)
		}
		for _, ret := range r.Rets {
			if ret != 0 {
				return c, fmt.Errorf("net_server on vcpu %d returned %d", r.CPU, int64(ret))
			}
		}
		c.busy += r.Cycles
		if r.Cycles > c.makespan {
			c.makespan = r.Cycles
		}
	}
	for i := range g.qs {
		q := &g.qs[i]
		c.issued += len(q.sched)
		c.served += q.served
		c.valid += q.served - q.bad
		c.replySum ^= q.replySum
		c.lats = append(c.lats, q.lats...)
		c.lags = append(c.lags, q.lags...)
	}
	c.queue0Valid = g.qs[0].served - g.qs[0].bad
	sort.Slice(c.lats, func(i, j int) bool { return c.lats[i] < c.lats[j] })
	sort.Slice(c.lags, func(i, j int) bool { return c.lags[i] < c.lags[j] })
	c.doorbells = nic.Doorbells - bells0
	c.completed = nic.Completed - done0
	c.intr = nic.IntrRaised - intr0
	c.badDescs = nic.BadDescs - bad0
	return c, nil
}

// failed counts the cell's failed requests: wrong replies, requests never
// answered (or replies never requested), and descriptors the NIC refused.
func (c cellResult) failed() int {
	lost := c.issued - c.served
	if lost < 0 {
		lost = -lost
	}
	return c.served - c.valid + lost + int(c.badDescs)
}

// pctile returns the p-th percentile (nearest rank below) of sorted xs,
// the same rule netload uses.
func pctile(sorted []uint64, p int) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[(len(sorted)-1)*p/100]
}
