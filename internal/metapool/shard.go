// Sharded write paths for metapool registration.
//
// The paper puts pchk.reg.obj / pchk.drop.obj on the allocation hot path
// of every kernel allocator, and past 8 VCPUs a single per-pool mutex on
// that path becomes the scaling bottleneck (page-map *reads* have been
// lock-free since the two-level shadow map landed).  This file splits the
// object store so writers in different address regions never contend:
//
//   - The address space is cut into 4 MiB regions (one page-map leaf per
//     region), hashed onto numShards shards.  An object contained in one
//     region is "narrow" and lives in that region's shard: its own splay
//     tree, its own mutex, its own page-entry free list.  Narrow covers
//     every real guest allocation; two narrow objects can only overlap if
//     they share a region, so one shard lock suffices for conflict checks.
//
//   - Objects that span regions or lie outside page-map coverage are
//     "wide".  They are rare (narrow ⇒ mappable, so everything the page
//     map can represent per-region is narrow) and live in a separate tree
//     behind wideMu, guarded by a wideCount fast-skip so the narrow paths
//     never touch that lock while no wide object exists.
//
//   - A brlock "gate" arbitrates between the two: narrow mutators take
//     their CPU's read slot, exclusive operations (wide register/drop,
//     Reset, chaos preparation, page-map rebuild) write-lock every slot.
//     Readers (findCPU / findSlow) never touch the gate at all — lookups
//     stay lock-free on the page map and take only the owning shard's
//     mutex on the slow path.
//
// Lock order (outermost first):
//
//	slmu (SingleLock mode only)
//	  gate (per-CPU read slot, or all slots for exclusive ops)
//	    shard.mu (at most one shard at a time)
//	wideMu  — never nested with any shard.mu
//	traceMu — innermost, cold paths only
package metapool

import (
	"sync"

	"sva/internal/splay"
)

const (
	// regionShift: one region is exactly one page-map leaf's coverage
	// (pageShift + l2Bits = 22 bits, 4 MiB), so a narrow object's page
	// entries all live in a single leaf.
	regionShift = pageShift + l2Bits
	// numShards is the number of region shards (regions hash round-robin).
	numShards = 16
	// gateSlots is the brlock width: one read slot per possible VCPU.
	gateSlots = 32
)

// narrow reports whether r fits entirely inside one region below the
// page-map coverage window.  Narrow implies mappable: the region holds
// exactly maxObjPages pages and ends at or below pmCoverage, so every
// narrow object's page walk is bounded and representable.
func narrow(r splay.Range) bool {
	if r.Len == 0 || r.Start+r.Len < r.Start {
		return false
	}
	return r.Start < pmCoverage && r.Start>>regionShift == (r.End()-1)>>regionShift
}

// shardIndex maps an address to its region's shard.
func shardIndex(addr uint64) int {
	return int((addr >> regionShift) & (numShards - 1))
}

// objShard is one region shard: a splay tree of the narrow objects whose
// region hashes here, plus the epoch-based-reclamation side structures for
// the page entries this shard has published (epoch.go).  All fields are
// guarded by mu.
type objShard struct {
	mu   sync.Mutex
	tree splay.Tree
	// limbo chains retired page entries (through pageEntry.next) until no
	// concurrent reader's epoch can still pin them; free chains reclaimed
	// entries ready for reuse.
	limbo  *pageEntry
	limboN int
	free   *pageEntry
	_      [24]byte // pad to a cache line boundary between shards
}

// gateSlot is one padded reader slot of the registration brlock.
type gateSlot struct {
	mu sync.RWMutex
	_  [40]byte // keep slots on distinct cache lines
}

// brGate is the big-reader lock arbitrating narrow (shared) against wide
// (exclusive) write-path operations.  Narrow mutators read-lock only their
// own CPU's slot — uncontended in the common case — while exclusive
// operations write-lock every slot in order.
type brGate struct {
	slot [gateSlots]gateSlot
}

// gslot maps a VCPU number to its gate/EBR slot.  Out-of-range CPUs share
// slot 0 (a backstop: the VM never passes a VCPU number past gateSlots).
func gslot(cpu int) int {
	if uint(cpu) < gateSlots {
		return cpu
	}
	return 0
}

// rlock takes cpu's read slot and returns the slot index for runlock.
func (g *brGate) rlock(cpu int) int {
	s := gslot(cpu)
	g.slot[s].mu.RLock()
	return s
}

func (g *brGate) runlock(s int) { g.slot[s].mu.RUnlock() }

// lockAll write-locks every slot in ascending order: once it returns, no
// narrow mutator is inside its critical section and none can enter.
func (g *brGate) lockAll() {
	for i := range g.slot {
		g.slot[i].mu.Lock()
	}
}

func (g *brGate) unlockAll() {
	for i := gateSlots - 1; i >= 0; i-- {
		g.slot[i].mu.Unlock()
	}
}

// anyOverlapLocked scans every shard tree and the wide tree for some live
// object overlapping rg, without splaying (OverlapRanges), so the
// splay-lookup accounting the equivalence tests pin stays untouched.
// Caller holds the gate exclusively.
func (p *Pool) anyOverlapLocked(rg splay.Range) (splay.Range, bool) {
	for i := range p.obj {
		sh := &p.obj[i]
		sh.mu.Lock()
		rs := sh.tree.OverlapRanges(rg.Start, rg.Len, 1)
		sh.mu.Unlock()
		if len(rs) > 0 {
			return rs[0], true
		}
	}
	p.wideMu.Lock()
	rs := p.wide.OverlapRanges(rg.Start, rg.Len, 1)
	p.wideMu.Unlock()
	if len(rs) > 0 {
		return rs[0], true
	}
	return splay.Range{}, false
}

// removeObjectLocked deletes a stale stack frame from whichever store
// holds it and invalidates its page entries.  Caller holds the gate
// exclusively (stale-stack eviction on the wide registration path).  It
// reports false, changing nothing, when r fails validation (see
// evictLocked).
func (p *Pool) removeObjectLocked(r splay.Range) bool {
	if narrow(r) {
		sh := &p.obj[shardIndex(r.Start)]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return p.evictLocked(sh, r)
	}
	if !p.rangeValid(r) {
		return false
	}
	p.wideMu.Lock()
	p.wide.Remove(r.Start)
	p.wideMu.Unlock()
	p.wideCount.Add(^uint64(0))
	p.mapRemoveWide(r)
	return true
}

// evictLocked deletes a stale stack frame r from sh's tree and page map;
// caller holds sh.mu.  It reports false, changing nothing, when r fails
// validation: a node grown by corrupt metadata would send the page-map
// sweep over up to 2^64 bytes.  The registering caller then fails closed.
func (p *Pool) evictLocked(sh *objShard, r splay.Range) bool {
	if !p.rangeValid(r) {
		return false
	}
	sh.tree.Remove(r.Start)
	p.pmRemoveShard(sh, r)
	return true
}
