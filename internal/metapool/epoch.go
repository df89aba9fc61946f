// Epoch-based reclamation for page-map entries.
//
// Page-map lookups are lock-free: a reader loads an entry pointer with one
// atomic load and then dereferences its Range with plain loads.  That was
// safe when entries were only ever dropped to the garbage collector — but
// the sharded write paths recycle entries through per-shard free lists
// (page-entry turnover is the hottest allocation on the drop path), and a
// recycled entry is *rewritten*.  Without a reclamation fence, a reader
// could dereference an entry just as a writer reuses it for a different
// object: a torn Range, and a racy-but-wrong verdict about an object the
// guest never touched.
//
// The scheme is classic two-phase EBR:
//
//	pin:     slot.Store(era.Load()); read the page map; slot.Store(0)
//	retire:  e.tag = era.Load(); push e onto the shard's limbo list
//	reclaim: era.Add(1); min = least nonzero slot;
//	         entries with tag < min move limbo → free list
//
// Why it is safe (all atomics are sequentially consistent in Go):
// an entry is unpublished (its slot overwritten) before it is retired, and
// retirement precedes the era.Add of any reclaim that can free it.  A
// reader whose pin the reclaimer's scan did not observe therefore pinned
// *after* the scan in the SC total order, so its subsequent page-map load
// is ordered after the unpublish and cannot return the retired entry.  A
// reader the scan did observe holds slot value ≤ the entry's tag, which
// keeps min ≤ tag and the entry in limbo.  The race detector agrees for
// the same reason: every plain access to a recycled entry's Range is
// separated by a synchronizes-with edge through the reader's slot.
//
// There is one slot array, one slot per VCPU, and only the lookup path
// (findCPU) pins.  Each slot therefore has at most one concurrent user —
// the goroutine running that VCPU — which is all the scheme needs, and
// which pinR enforces: a pin that finds its slot already nonzero panics
// rather than silently overwriting another reader's announcement.
package metapool

import (
	"sync/atomic"

	"sva/internal/splay"
)

// limboThreshold is how many retired entries a shard accumulates before
// paying for a reclaim pass (an era bump plus a gateSlots slot scan).
const limboThreshold = 64

// ebrSlot is one padded epoch-announcement slot: 0 when idle, the era the
// holder pinned at while it reads page-map entries.
type ebrSlot struct {
	e atomic.Uint64
	_ [56]byte
}

// pinR announces cpu as an active page-map reader and returns its slot;
// the caller stores 0 to unpin once it has copied any Range it needs.
//
// The Swap enforces the one-concurrent-user-per-slot invariant the whole
// scheme rests on: a nonzero prior value proves a second user entered the
// slot while the first was still pinned — two overwriting pins would let a
// reclaim pass free an entry the earlier reader still dereferences, so
// fail loudly instead.  In practice that means two host threads checking
// on behalf of the same VCPU number.  On amd64 a seq-cst Store compiles to
// XCHG anyway, so the check costs one predictable branch.
func (p *Pool) pinR(cpu int) *ebrSlot {
	s := &p.ebrR[gslot(cpu)]
	if s.e.Swap(p.era.Load()) != 0 {
		panic("metapool: concurrent EBR reader pins on one slot — each VCPU number must have one checking goroutine")
	}
	return s
}

// retireEntry hands a just-unpublished page entry to sh's limbo list.  The
// shared overflow sentinel is never retired.  Caller holds sh.mu.
func (p *Pool) retireEntry(sh *objShard, e *pageEntry) {
	if e == nil || e == overflowEntry {
		return
	}
	e.tag = p.era.Load()
	e.next = sh.limbo
	sh.limbo = e
	sh.limboN++
	if sh.limboN >= limboThreshold {
		p.reclaim(sh)
	}
}

// reclaim moves every limbo entry no reader can still hold onto sh's free
// list.  Caller holds sh.mu.
func (p *Pool) reclaim(sh *objShard) {
	p.era.Add(1)
	min := ^uint64(0)
	for i := 0; i < gateSlots; i++ {
		if e := p.ebrR[i].e.Load(); e != 0 && e < min {
			min = e
		}
	}
	var keep *pageEntry
	keepN := 0
	for e := sh.limbo; e != nil; {
		next := e.next
		if e.tag < min {
			e.next = sh.free
			sh.free = e
		} else {
			e.next = keep
			keep = e
			keepN++
		}
		e = next
	}
	sh.limbo, sh.limboN = keep, keepN
	p.eraReclaimed.Add(1)
}

// allocEntry hands out a recycled page entry or a fresh one.  Caller holds
// sh.mu — the same lock reclaim ran under, so a free-list entry provably
// has no pinned reader and may be rewritten before its atomic publication.
func (sh *objShard) allocEntry(r splay.Range) *pageEntry {
	if e := sh.free; e != nil {
		sh.free = e.next
		e.r, e.overflow, e.next, e.tag = r, false, nil, 0
		return e
	}
	return &pageEntry{r: r}
}
