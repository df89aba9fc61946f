// The two-level shadow page map: the O(1) fast path in front of every
// metapool's splay trees.
//
// The paper (§7.1.3) identifies the splay-tree object lookup behind each
// boundscheck/lscheck as the dominant run-time cost of SVA, and our own
// -table=profile attribution agrees.  The splay tree is O(log n) on a miss
// of its root, and — worse for SMP — *every* lookup rotates the tree, so a
// read-mostly workload generates write traffic on shared state.
//
// The page map shadows the object set at page granularity: for each
// 4 KiB guest page it records whether zero, one, or more than one
// registered object overlaps the page.  The common cases resolve without
// touching any tree:
//
//   - no entry        → no object overlaps the page: a definitive miss
//   - a single entry  → the only object on the page; Contains() decides
//   - overflow entry  → several objects share the page: defer to the trees
//
// Lookups are lock-free: page entries are immutable once published and
// reached through two atomic pointer loads; readers hold an epoch pin
// (epoch.go) across the dereference so recycled entries cannot be rewritten
// under them.  Mutation ownership is split by object shape: a narrow
// object's pages all live in one leaf, owned by the object's region shard
// (mutated under that shard's mutex); wide-object mutation and whole-map
// operations run under the exclusive registration gate, which excludes
// every shard mutator.  A leaf therefore always has exactly one live
// writer.
//
// Objects the map cannot represent — spanning more pages than
// maxObjPages, or lying above the 4 GiB coverage window — are counted in
// Pool.unmapped instead of being mapped; while that count is nonzero a
// "definitive miss" is demoted to a slow-path verdict, so correctness
// never depends on every object being representable.  (The guest address
// layout tops out below 4 GiB, so in practice only pathological
// registrations take this path.)
package metapool

import (
	"sync/atomic"

	"sva/internal/splay"
)

const (
	pageShift = 12
	// PageSize is the page-map granule (one guest page).
	PageSize = 1 << pageShift
	l2Bits   = 10 // pages per leaf
	l1Bits   = 10 // leaves per directory
	// pmCoverage is the top of the address range the page map covers:
	// 12 + 10 + 10 = 32 bits, 4 GiB.
	pmCoverage = uint64(1) << (pageShift + l2Bits + l1Bits)
	// maxObjPages bounds host work per registration: an object spanning
	// more pages than this is left unmapped rather than walked page by
	// page (registration arguments are guest-controlled; a 2^40-byte
	// "object" must not buy a 2^28-iteration host loop).
	maxObjPages = 1024
)

// pmVerdict is the outcome of a page-map lookup.
type pmVerdict uint8

const (
	// pmMiss: no registered object overlaps the page.  Definitive only
	// while Pool.unmapped is zero.
	pmMiss pmVerdict = iota
	// pmHit: exactly one object overlaps the page (returned alongside).
	pmHit
	// pmSlow: several objects share the page, or the address lies outside
	// the coverage window — defer to the splay trees.
	pmSlow
)

// pageEntry is one published page node.  Entries are immutable while
// published; invalidation replaces the pointer, never the pointee.  next
// and tag belong to the epoch-based reclamation machinery (epoch.go):
// after unpublication an entry sits on its shard's limbo list (chained
// through next, stamped with the retirement era in tag) until no reader
// pin can reach it, then recycles through the shard's free list.
type pageEntry struct {
	r        splay.Range
	overflow bool
	next     *pageEntry
	tag      uint64
}

// overflowEntry is the shared sentinel for pages with >1 object.  It is
// never retired or recycled.
var overflowEntry = &pageEntry{overflow: true}

type pageLeaf [1 << l2Bits]atomic.Pointer[pageEntry]

// pageMap is the two-level directory.  Leaves materialize on first use and
// are never reclaimed while the pool lives (a Reset drops them wholesale).
type pageMap struct {
	dir [1 << l1Bits]atomic.Pointer[pageLeaf]
}

// mappable reports whether the page map can represent r (see maxObjPages
// and pmCoverage above).  narrow(r) implies mappable(r): a narrow object
// fits one 4 MiB region, which holds exactly maxObjPages pages and ends at
// or below pmCoverage.
func mappable(r splay.Range) bool {
	if r.Len == 0 || r.End() < r.Start || r.End() > pmCoverage {
		return false
	}
	return (r.End()-1)>>pageShift-r.Start>>pageShift < maxObjPages
}

// lookup resolves addr against the page map.  It is the lock-free O(1)
// fast path: two atomic loads, no tree access, no mutation.  Callers that
// dereference the returned Range of a recycled entry do so inside an epoch
// pin (findCPU).
func (m *pageMap) lookup(addr uint64) (splay.Range, pmVerdict) {
	if addr >= pmCoverage {
		return splay.Range{}, pmSlow
	}
	leaf := m.dir[addr>>(pageShift+l2Bits)].Load()
	if leaf == nil {
		return splay.Range{}, pmMiss
	}
	e := leaf[(addr>>pageShift)&(1<<l2Bits-1)].Load()
	if e == nil {
		return splay.Range{}, pmMiss
	}
	if e.overflow {
		return splay.Range{}, pmSlow
	}
	return e.r, pmHit
}

// leaf returns the leaf covering page pg, materializing it if needed.
// A directory slot has exactly one live writer — the shard owning that
// region, or the holder of the exclusive gate — so a plain
// load-check-store suffices; concurrent readers see either nil (miss on an
// empty leaf — correct) or the published leaf.
func (m *pageMap) leaf(pg uint64) *pageLeaf {
	slot := &m.dir[pg>>l2Bits]
	l := slot.Load()
	if l == nil {
		l = new(pageLeaf)
		slot.Store(l)
	}
	return l
}

// insert publishes r on every page it overlaps using fresh (GC-managed)
// entries.  Used by the wide and rebuild paths only; the narrow path goes
// through pmInsertShard for free-list recycling.  Caller holds the
// exclusive gate and has verified mappable(r).  An entry this displaces to
// overflow is dropped to the GC, never recycled — a straggling reader may
// legally hold it forever.
func (m *pageMap) insert(r splay.Range) {
	first, last := r.Start>>pageShift, (r.End()-1)>>pageShift
	for pg := first; pg <= last; pg++ {
		slot := &m.leaf(pg)[pg&(1<<l2Bits-1)]
		if slot.Load() == nil {
			slot.Store(&pageEntry{r: r})
		} else {
			// A second object on the page: checks there go to the trees.
			slot.Store(overflowEntry)
		}
	}
}

// clear drops every leaf (pool reset / rebuild).  Published entries go to
// the GC wholesale.
func (m *pageMap) clear() {
	for i := range m.dir {
		m.dir[i].Store(nil)
	}
}

// pmInsertShard publishes a narrow object's pages, recycling entries
// through sh's free list.  Caller holds sh.mu, owns rg's single leaf, and
// has inserted rg into sh.tree.
func (p *Pool) pmInsertShard(sh *objShard, rg splay.Range) {
	first, last := rg.Start>>pageShift, (rg.End()-1)>>pageShift
	leaf := p.pm.leaf(first)
	for pg := first; pg <= last; pg++ {
		slot := &leaf[pg&(1<<l2Bits-1)]
		if e := slot.Load(); e == nil {
			slot.Store(sh.allocEntry(rg))
		} else {
			// A second object on the page: demote to overflow and retire
			// the displaced single entry.
			slot.Store(overflowEntry)
			p.retireEntry(sh, e)
		}
	}
}

// pmRemoveShard invalidates a narrow object's pages after its removal from
// sh.tree, retiring displaced entries into sh's limbo list.  Overflow
// pages are recomputed from the surviving objects — back to a single entry
// or a definitive miss where possible.  While wide objects exist the
// recomputation is skipped (survivors may live in the wide tree, which
// this path must not lock): the page keeps a stale overflow entry, which
// is always safe — it merely defers lookups to the trees — and the next
// wide-object removal or rebuild tightens it again.  Caller holds sh.mu.
func (p *Pool) pmRemoveShard(sh *objShard, r splay.Range) {
	first, last := r.Start>>pageShift, (r.End()-1)>>pageShift
	leaf := p.pm.dir[first>>l2Bits].Load()
	if leaf == nil {
		return
	}
	for pg := first; pg <= last; pg++ {
		slot := &leaf[pg&(1<<l2Bits-1)]
		e := slot.Load()
		switch {
		case e == nil:
			// Nothing was mapped here (cannot happen for a mapped object,
			// but stay tolerant: a nil entry is always a safe miss).
		case !e.overflow:
			// r was the only object on the page.
			slot.Store(nil)
			p.retireEntry(sh, e)
		case p.wideCount.Load() == 0:
			// With no wide objects, every survivor on this page is narrow
			// and shares r's region, hence lives in sh.tree: the scan is
			// complete, and any single survivor is mappable by narrowness.
			rs := sh.tree.OverlapRanges(pg<<pageShift, PageSize, 2)
			switch {
			case len(rs) == 0:
				slot.Store(nil)
			case len(rs) == 1:
				slot.Store(sh.allocEntry(rs[0]))
			}
		}
	}
}

// mapInsertWide publishes a wide object (or counts it unmapped).  Caller
// holds the exclusive gate with wideMu released; the object is already in
// the wide tree.
func (p *Pool) mapInsertWide(r splay.Range) {
	if !mappable(r) {
		p.unmapped.Add(1)
		return
	}
	p.pm.insert(r)
}

// mapRemoveWide invalidates a wide object's pages after its removal from
// the wide tree (or uncounts it if it was unmapped).  Overflow pages are
// recomputed from both stores — the page's region shard and the wide tree,
// locked one at a time (wideMu never nests with a shard mutex).  Caller
// holds the exclusive gate with wideMu released.
func (p *Pool) mapRemoveWide(r splay.Range) {
	if !mappable(r) {
		p.unmapped.Add(^uint64(0))
		return
	}
	first, last := r.Start>>pageShift, (r.End()-1)>>pageShift
	for pg := first; pg <= last; pg++ {
		leaf := p.pm.dir[pg>>l2Bits].Load()
		if leaf == nil {
			continue
		}
		slot := &leaf[pg&(1<<l2Bits-1)]
		e := slot.Load()
		switch {
		case e == nil:
		case !e.overflow:
			// r was the only object on the page.  The entry was published
			// by the wide path, so it is GC-managed: no retirement needed.
			slot.Store(nil)
		default:
			pgStart := pg << pageShift
			sh := &p.obj[shardIndex(pgStart)]
			sh.mu.Lock()
			rs := sh.tree.OverlapRanges(pgStart, PageSize, 2)
			sh.mu.Unlock()
			if len(rs) < 2 {
				p.wideMu.Lock()
				rs = append(rs, p.wide.OverlapRanges(pgStart, PageSize, 2)...)
				p.wideMu.Unlock()
			}
			switch {
			case len(rs) == 0:
				slot.Store(nil)
			case len(rs) == 1 && mappable(rs[0]):
				slot.Store(&pageEntry{r: rs[0]})
				// An unmappable survivor keeps the overflow entry: its own
				// removal will not walk these pages, so it must not own a
				// direct entry here.
			}
		}
	}
}

// rebuildPM reconstitutes the page map from the trees' current object set
// and recounts unmapped objects.  Used when the splay oracle may have
// diverged from the map (fault injection disarmed after in-place node
// corruption).  Caller holds the exclusive gate; all entries are fresh
// (the old ones — possibly referencing corrupted-then-restored state — go
// to the GC).
func (p *Pool) rebuildPM() {
	p.pm.clear()
	var unmapped uint64
	reinsert := func(r splay.Range) bool {
		if mappable(r) {
			p.pm.insert(r)
		} else {
			unmapped++
		}
		return true
	}
	for i := range p.obj {
		sh := &p.obj[i]
		sh.mu.Lock()
		sh.tree.Walk(reinsert)
		sh.mu.Unlock()
	}
	p.wideMu.Lock()
	p.wide.Walk(reinsert)
	p.wideMu.Unlock()
	p.unmapped.Store(unmapped)
}
