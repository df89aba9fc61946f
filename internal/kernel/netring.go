package kernel

import (
	"sva/internal/ir"
	"sva/internal/svaops"
)

// Descriptor-ring NIC driver (net/drivers): the guest half of the Xen
// split-driver design in hw/ring.go.  Each virtual CPU owns one queue
// pair — Tx ring q*2, Rx ring q*2+1 — so the rings need no guest-side
// locking: per-CPU indexing through the masked sva.cpu.id is the whole
// concurrency story, exactly like current_task.
//
// Memory plan (all statically-sized kernel globals, so the safety
// compiler's object bounds cover every descriptor and frame access):
//
//	netring_area  per-ring descriptor rings: ring r at r*NetRingBytes
//	netring_bufs  frame buffers: 64 Rx + 8 pump buffers per queue
//	netring_seen  per-CPU cursor of Rx completions already served
//	netring_treap per-CPU cursor of Tx completions already reposted
//
// The serve loop trusts nothing the host wrote: a frame address coming
// back through a descriptor is re-derived as an offset into netring_bufs
// and re-indexed through the bounds-checked Index, so a corrupted
// descriptor lands on a safety violation, not a wild pointer.
const (
	NetRingSlots = 64  // descriptors per ring (power of two)
	NetFrameSize = 256 // bytes per frame buffer
	NetPumpBufs  = 8   // extra per-queue buffers for the self-driving pump
	NetRingBytes = 16 + NetRingSlots*16
	netQBufs     = NetRingSlots + NetPumpBufs
)

func (k *K) buildNetRing() {
	b := k.B

	area := k.global("netring_area", ir.ArrayOf(MaxCPUs*2*NetRingBytes, ir.I8), nil, SubNetDrv)
	bufs := k.global("netring_bufs", ir.ArrayOf(MaxCPUs*netQBufs*NetFrameSize, ir.I8), nil, SubNetDrv)
	seenG := k.global("netring_seen", ir.ArrayOf(MaxCPUs, ir.I64), nil, SubNetDrv)
	treapG := k.global("netring_treap", ir.ArrayOf(MaxCPUs, ir.I64), nil, SubNetDrv)
	netIntrs := k.global("net_intrs", ir.I64, c64(0), SubNetDrv)

	// nic_isr(vec, icp): coalesced completion interrupt — count it; the
	// serve loop polls rings on its own schedule.
	k.fn("nic_isr", SubArchDep, ir.Void, []*ir.Type{ir.I64, ir.I64}, "vec", "icp")
	b.AtomicRMW(ir.RMWAdd, netIntrs, c64(1))
	b.Ret(nil)

	// netring_init(): attach every queue pair and post each queue's Rx
	// buffers.  Fully unrolled at build time: every ring index, ring base
	// and buffer offset is a constant the verifier can see.
	k.fn("netring_init", SubNetDrv, ir.Void, nil)
	for q := 0; q < MaxCPUs; q++ {
		for dir := 0; dir < 2; dir++ {
			r := q*2 + dir
			base := b.Index(area, c64(int64(r*NetRingBytes)))
			k.op(svaops.NetRingAttach, c64(int64(r)), base, c64(NetRingSlots))
		}
		rx := int64(q*2 + 1)
		for i := 0; i < NetRingSlots; i++ {
			off := int64((q*netQBufs + i) * NetFrameSize)
			k.op(svaops.NetPost, c64(rx), b.Index(bufs, c64(off)), c64(NetFrameSize))
		}
	}
	b.Ret(nil)

	// sys_netserve(icp, budget): the TCP-ish request/response server.
	// Ring the Rx doorbell, serve up to budget completed request frames
	// (checksum the payload, stamp the sum into the reply header, post
	// the same buffer on the Tx ring), ring the Tx doorbell, then repost
	// transmitted buffers into the Rx slots served so far.  Returns
	// frames served.
	k.syscall("sys_netserve", SubNetDrv)
	budget := b.Param(1)
	q := b.And(k.op(svaops.CPUID), c64(MaxCPUs-1))
	txRing := b.Mul(q, c64(2))
	rxRing := b.Add(txRing, c64(1))
	rxBase := b.Mul(rxRing, c64(NetRingBytes))
	txBase := b.Mul(txRing, c64(NetRingBytes))
	bufsBase := b.PtrToInt(bufs, ir.I64)

	k.op(svaops.NetDoorbell, rxRing)
	cons := k.op(svaops.NetReap, rxRing)

	seenP := b.Index(seenG, q)
	seen := b.Alloca(ir.I64, "seen")
	b.Store(b.Load(seenP), seen)
	served := b.Alloca(ir.I64, "served")
	b.Store(c64(0), served)
	full := b.Alloca(ir.I64, "txfull")
	b.Store(c64(0), full)

	b.While(func() ir.Value {
		more := b.ICmp(ir.PredULT, b.Load(seen), cons)
		room := b.ICmp(ir.PredULT, b.Load(served), budget)
		open := b.ICmp(ir.PredEQ, b.Load(full), c64(0))
		return b.And(b.And(more, room), open)
	}, func() {
		slot := b.And(b.Load(seen), c64(NetRingSlots-1))
		dOff := b.Add(b.Add(rxBase, c64(16)), b.Mul(slot, c64(16)))
		st := b.ZExt(b.Load(b.Bitcast(b.Index(area, b.Add(dOff, c64(12))), ir.PointerTo(ir.I32))), ir.I64)
		isDone := b.ICmp(ir.PredEQ, st, c64(1))
		b.If(isDone, func() {
			ln := b.ZExt(b.Load(b.Bitcast(b.Index(area, b.Add(dOff, c64(8))), ir.PointerTo(ir.I32))), ir.I64)
			addr := b.Load(b.Bitcast(b.Index(area, dOff), ir.PointerTo(ir.I64)))
			// Re-derive the buffer from the (untrusted) descriptor
			// address; Index bounds-checks the offset against the pool.
			frameP := b.Index(bufs, b.Sub(addr, bufsBase))
			sum := b.Alloca(ir.I64, "sum")
			b.Store(c64(0), sum)
			j := b.Alloca(ir.I64, "j")
			b.Store(c64(24), j)
			b.While(func() ir.Value {
				return b.ICmp(ir.PredULT, b.Load(j), ln)
			}, func() {
				ch := b.ZExt(b.Load(b.GEP(frameP, b.Load(j))), ir.I64)
				b.Store(b.Add(b.Load(sum), ch), sum)
				b.Store(b.Add(b.Load(j), c64(1)), j)
			})
			b.Store(b.Load(sum), b.Bitcast(b.GEP(frameP, c64(16)), ir.PointerTo(ir.I64)))
			rc := k.op(svaops.NetPost, txRing, frameP, ln)
			txOK := b.ICmp(ir.PredEQ, rc, c64(0))
			b.If(txOK, func() {
				b.Store(b.Add(b.Load(served), c64(1)), served)
			})
			b.If(b.ICmp(ir.PredNE, rc, c64(0)), func() {
				b.Store(c64(1), full)
			})
		})
		b.If(b.ICmp(ir.PredEQ, b.Load(full), c64(0)), func() {
			b.Store(b.Add(b.Load(seen), c64(1)), seen)
		})
	})
	b.Store(b.Load(seen), seenP)

	k.op(svaops.NetDoorbell, txRing)
	tcons := k.op(svaops.NetReap, txRing)
	treapP := b.Index(treapG, q)
	tr := b.Alloca(ir.I64, "treap")
	// Repost only into Rx slots already served: the Rx producer may run
	// at most one ring ahead of netring_seen, so room = seen + slots -
	// prod.  The device's own full test (against its consumer index)
	// would let a repost overwrite a completed but unserved descriptor.
	// Without the pump every pending Tx completion is the reply to a
	// served frame and fits the room; the pump's extra transmissions are
	// the oldest pending ones, and those past the room are retired
	// unreposted (so the cursor never trails a reused Tx descriptor).
	rxProd := b.Load(b.Bitcast(b.Index(area, rxBase), ir.PointerTo(ir.I64)))
	room := b.Sub(b.Add(b.Load(seen), c64(NetRingSlots)), rxProd)
	tr0 := b.Load(treapP)
	over := b.ICmp(ir.PredUGT, b.Sub(tcons, tr0), room)
	b.Store(b.Select(over, b.Sub(tcons, room), tr0), tr)
	rxFull := b.Alloca(ir.I64, "rxfull")
	b.Store(c64(0), rxFull)
	b.While(func() ir.Value {
		more := b.ICmp(ir.PredULT, b.Load(tr), tcons)
		open := b.ICmp(ir.PredEQ, b.Load(rxFull), c64(0))
		return b.And(more, open)
	}, func() {
		tslot := b.And(b.Load(tr), c64(NetRingSlots-1))
		tOff := b.Add(b.Add(txBase, c64(16)), b.Mul(tslot, c64(16)))
		taddr := b.Load(b.Bitcast(b.Index(area, tOff), ir.PointerTo(ir.I64)))
		tbufP := b.Index(bufs, b.Sub(taddr, bufsBase))
		rc := k.op(svaops.NetPost, rxRing, tbufP, c64(NetFrameSize))
		b.If(b.ICmp(ir.PredEQ, rc, c64(0)), func() {
			b.Store(b.Add(b.Load(tr), c64(1)), tr)
		})
		b.If(b.ICmp(ir.PredNE, rc, c64(0)), func() {
			b.Store(c64(1), rxFull)
		})
	})
	b.Store(b.Load(tr), treapP)
	b.Ret(b.Load(served))

	// sys_netpump(icp, n): self-driving load source for the fault
	// campaign — stamp up to n (≤ NetPumpBufs) request frames into this
	// queue's pump buffers and post them on the Tx ring.  Under loopback
	// they come straight back as Rx traffic for sys_netserve.  Pump
	// buffers may transiently alias Rx postings; that is acceptable for a
	// chaos driver and irrelevant to host safety.
	k.syscall("sys_netpump", SubNetDrv)
	pn := b.Param(1)
	pq := b.And(k.op(svaops.CPUID), c64(MaxCPUs-1))
	ptx := b.Mul(pq, c64(2))
	want := b.Select(b.ICmp(ir.PredUGT, pn, c64(NetPumpBufs)), c64(NetPumpBufs), pn)
	posted := b.Alloca(ir.I64, "posted")
	b.Store(c64(0), posted)
	i := b.Alloca(ir.I64, "i")
	b.Store(c64(0), i)
	stop := b.Alloca(ir.I64, "stop")
	b.Store(c64(0), stop)
	b.While(func() ir.Value {
		more := b.ICmp(ir.PredULT, b.Load(i), want)
		open := b.ICmp(ir.PredEQ, b.Load(stop), c64(0))
		return b.And(more, open)
	}, func() {
		idx := b.Add(b.Add(b.Mul(pq, c64(netQBufs)), c64(NetRingSlots)), b.And(b.Load(i), c64(NetPumpBufs-1)))
		bufP := b.Index(bufs, b.Mul(idx, c64(NetFrameSize)))
		b.Store(b.Load(i), b.Bitcast(bufP, ir.PointerTo(ir.I64)))
		b.Store(pq, b.Bitcast(b.GEP(bufP, c64(8)), ir.PointerTo(ir.I64)))
		rc := k.op(svaops.NetPost, ptx, bufP, c64(128))
		b.If(b.ICmp(ir.PredEQ, rc, c64(0)), func() {
			b.Store(b.Add(b.Load(posted), c64(1)), posted)
			b.Store(b.Add(b.Load(i), c64(1)), i)
		})
		b.If(b.ICmp(ir.PredNE, rc, c64(0)), func() {
			b.Store(c64(1), stop)
		})
	})
	k.op(svaops.NetDoorbell, ptx)
	b.Ret(b.Load(posted))
}
