// Package metapool implements the run-time side of SVA's safety checking
// (paper §4.3–§4.5): a metapool is the run-time representation of one
// points-to graph partition.  It records every registered object and
// answers the three run-time checks — bounds checks on indexing,
// load-store checks on non-type-homogeneous pools, and indirect call
// checks — plus object registration/deregistration (pchk.reg.obj /
// pchk.drop.obj).
//
// Lookup fast path: a two-level shadow page map (pagemap.go) resolves the
// common cases in O(1) without touching any tree; the splay trees are the
// slow path for pages shared by several objects and the oracle the
// equivalence tests compare against.
//
// Concurrency: pools are shared by every virtual CPU of an SMP guest.
// Page-map reads are lock-free (entries retired through epoch-based
// reclamation, epoch.go); per-VCPU statistics shards are owner-written.
// The write path is sharded by address region (shard.go): registrations
// go into per-region splay trees under per-shard locks, with a brlock gate
// arbitrating the rare wide-object operations.
// Checks deliberately run unserialized against registration: a guest that
// races an access against a free gets a racy verdict, exactly as it would
// on SMP hardware; a guest whose accesses are ordered by its own locks
// (which the SVM executes with host happens-before edges) always sees the
// current object set.
package metapool

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sva/internal/faultinject"
	"sva/internal/splay"
	"sva/internal/telemetry"
)

// ViolationKind classifies a detected safety violation.
type ViolationKind int

const (
	// BoundsViolation: an indexing operation computed a pointer outside
	// the bounds of the source object (buffer overrun).
	BoundsViolation ViolationKind = iota
	// LoadStoreViolation: a load/store through a pointer that does not
	// target a registered object of its metapool.
	LoadStoreViolation
	// IndirectCallViolation: an indirect call to a function outside the
	// compiler-computed callee set (control-flow integrity).
	IndirectCallViolation
	// IllegalFree: pchk.drop.obj on a pointer that is not the start of a
	// live registered object (double free or bad free).
	IllegalFree
	// RegistrationConflict: pchk.reg.obj overlapping a live object.
	RegistrationConflict
	// UninitPointer: dereference of a poison/uninitialized pointer value.
	UninitPointer
	// MetadataCorruption: the pool's own check metadata (a splay node)
	// failed validation — a hardware-level fault hit the checker itself.
	// The pool is quarantined and every subsequent check fails closed.
	MetadataCorruption
)

var kindNames = [...]string{
	"bounds violation",
	"load-store violation",
	"indirect call violation",
	"illegal free",
	"registration conflict",
	"uninitialized pointer dereference",
	"check metadata corruption",
}

func (k ViolationKind) String() string {
	if int(k) >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("violation(%d)", int(k))
}

// Violation is the error raised when a run-time check fails.  The SVM
// converts it into a safety trap.
type Violation struct {
	Kind ViolationKind
	Pool string
	Addr uint64
	Msg  string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("%s in metapool %s at %#x: %s", v.Kind, v.Pool, v.Addr, v.Msg)
}

// Stats counts run-time check activity per metapool.  The schema lives in
// the telemetry package so the registry snapshot and every consumer share
// one type.
type Stats = telemetry.CheckStats

// Pool is one run-time metapool.
type Pool struct {
	Name string
	// TypeHomogeneous pools hold objects of a single type; loads and
	// stores through them need no lscheck and dangling pointers cannot
	// break type safety (given allocator alignment/no-release rules).
	TypeHomogeneous bool
	// Complete is false for partitions exposed to unanalyzed code; checks
	// are "reduced": a failed lookup is inconclusive rather than an error.
	Complete bool
	// ElemSize is the object element size for TH pools (0 otherwise).
	ElemSize uint64

	// obj holds the narrow objects, sharded by address region (shard.go).
	obj [numShards]objShard
	// wide is the tree of objects spanning regions or lying outside
	// page-map coverage; wideCount lets the narrow paths skip wideMu
	// entirely while no such object exists (the overwhelmingly common
	// case — every real guest allocation is narrow).
	wideMu    sync.Mutex
	wide      splay.Tree
	wideCount atomic.Uint64

	// gate arbitrates narrow (shared) against wide (exclusive) write-path
	// operations; the lookup path never touches it.
	gate brGate

	// Epoch-based reclamation state for recycled page entries (epoch.go).
	era  atomic.Uint64
	ebrR [gateSlots]ebrSlot

	// pm is the O(1) shadow page map in front of the trees; unmapped
	// counts objects it cannot represent (while nonzero, a page-map miss
	// is not definitive).
	pm       pageMap
	unmapped atomic.Uint64
	// NoPageMap disables the page-map fast path, forcing every lookup
	// through the splay trees (the splay-only configuration the
	// equivalence property tests and the lookup microbenchmark compare
	// against).
	NoPageMap bool

	// SingleLock serializes every write-path operation on one mutex — a
	// faithful stand-in for the pre-sharding write path, kept so the
	// concurrent-registration microbenchmark can measure the sharded
	// paths against the seed behavior.
	SingleLock bool
	slmu       sync.Mutex

	// trace, when set, receives pool lifecycle events (cold paths only:
	// registration conflicts and Reset — never the check hot path).
	// traceMu serializes emission (Trace.Emit is not thread-safe).
	trace   *telemetry.Trace
	traceMu sync.Mutex

	// chaos, when set, is the fault injector consulted on splay lookups
	// (ClassSplay corrupts a node's metadata in place).  nil in production;
	// the hook costs one pointer compare.  While armed, every lookup takes
	// the slow path: in-place node corruption bypasses the page map, so
	// the page map must not answer for a possibly-diverged tree.
	chaos *faultinject.Injector
	// maxObj is the largest object length ever registered: the redundancy
	// that lets the slow path recognize grow-corruptions of a splay node.
	maxObj atomic.Uint64
	// quarantined is set once check metadata fails validation; from then
	// on every check fails closed with a MetadataCorruption violation.
	quarantined atomic.Bool

	// userLo/userHi: if set, all of userspace is treated as one registered
	// object of this pool (paper §4.6).  Written during setup only.
	userLo, userHi uint64
	hasUser        bool

	// Cold write-path counters with no single owning VCPU, folded into
	// mergedStats: batched counts sva.pool.regbatch calls, eraReclaimed
	// counts epoch reclaim passes.
	batched      atomic.Uint64
	eraReclaimed atomic.Uint64

	// Stats is VCPU 0's statistics shard (and the only one before
	// setVCPUs); shards holds one per VCPU.  Each shard is written only
	// by its owning VCPU; snapshots merge them.
	Stats  Stats
	shards []*Stats
}

// NewPool creates a metapool.
func NewPool(name string, typeHomogeneous, complete bool, elemSize uint64) *Pool {
	p := &Pool{Name: name, TypeHomogeneous: typeHomogeneous, Complete: complete, ElemSize: elemSize}
	p.era.Store(1) // 0 is the "idle" EBR slot value
	return p
}

// setVCPUs sizes the per-VCPU statistics shards.  Must be called before
// the VCPUs start running.
func (p *Pool) setVCPUs(n int) {
	for len(p.shards) < n {
		if len(p.shards) == 0 {
			p.shards = append(p.shards, &p.Stats)
			continue
		}
		p.shards = append(p.shards, &Stats{})
	}
}

// stats returns cpu's statistics shard (VCPU 0 is the embedded Stats).
func (p *Pool) stats(cpu int) *Stats {
	if cpu > 0 && cpu < len(p.shards) {
		return p.shards[cpu]
	}
	return &p.Stats
}

// mergedStats sums the per-VCPU shards plus the pool-level write-path
// counters into one view of the pool.
func (p *Pool) mergedStats() Stats {
	s := p.Stats
	for i := 1; i < len(p.shards); i++ {
		s.Add(*p.shards[i])
	}
	s.Batched += p.batched.Load()
	s.EpochReclaims += p.eraReclaimed.Load()
	return s
}

// IsQuarantined reports whether the pool's metadata was found corrupt
// (every check fails closed from then on).
func (p *Pool) IsQuarantined() bool { return p.quarantined.Load() }

// RegisterUserSpace marks [lo, hi) — the whole of user-space memory — as a
// single valid object of the pool.
func (p *Pool) RegisterUserSpace(lo, hi uint64) {
	p.userLo, p.userHi, p.hasUser = lo, hi, true
}

func (p *Pool) userRange(addr uint64) (splay.Range, bool) {
	if p.hasUser && addr >= p.userLo && addr < p.userHi {
		return splay.Range{Start: p.userLo, Len: p.userHi - p.userLo}, true
	}
	return splay.Range{}, false
}

// findCPU looks up the object containing addr.  The page map answers the
// common cases in O(1) without locks (under an epoch pin, so a concurrent
// drop cannot recycle the entry mid-read); overflow pages, unmapped
// objects, the NoPageMap configuration and armed fault injection go to
// the splay trees.
func (p *Pool) findCPU(cpu int, addr uint64) (splay.Range, bool) {
	if p.quarantined.Load() {
		return splay.Range{}, false // fail closed: metadata is untrusted
	}
	if p.chaos == nil && !p.NoPageMap {
		s := p.pinR(cpu)
		r, v := p.pm.lookup(addr)
		s.e.Store(0) // r is a copy; the entry is no longer referenced
		if v == pmHit && r.Contains(addr) {
			p.stats(cpu).PageHits++
			return r, true
		}
		// The page holds no object containing addr.  With no unmapped
		// objects that verdict is complete: a definitive miss.
		if v != pmSlow && p.unmapped.Load() == 0 {
			p.stats(cpu).PageHits++
			return splay.Range{}, false
		}
	}
	return p.findSlow(cpu, addr)
}

// findSlow is the tree path: the owning region shard's tree, then the wide
// tree while wide objects exist.  CacheMisses counts the lookups that take
// it (PageHits, above, counts the lookups the page map answered).
func (p *Pool) findSlow(cpu int, addr uint64) (splay.Range, bool) {
	st := p.stats(cpu)
	if p.chaos != nil {
		p.chaosPrep()
	}
	st.CacheMisses++ // this lookup pays for a tree descent
	sh := &p.obj[shardIndex(addr)]
	sh.mu.Lock()
	r, ok := sh.tree.Find(addr)
	bad := ok && !p.rangeValid(r)
	if bad {
		// The checker's own metadata is damaged.  Fail closed: quarantine
		// the pool rather than answer checks from corrupt state.  The
		// validity filter runs under the same shard lock as the find, so
		// a concurrent Reset (which clears trees before zeroing maxObj)
		// can never induce a spurious quarantine.
		p.quarantine(r)
	}
	sh.mu.Unlock()
	if bad {
		return splay.Range{}, false
	}
	if !ok && p.wideCount.Load() != 0 {
		p.wideMu.Lock()
		r, ok = p.wide.Find(addr)
		bad = ok && !p.rangeValid(r)
		if bad {
			p.quarantine(r)
		}
		p.wideMu.Unlock()
		if bad {
			return splay.Range{}, false
		}
	}
	return r, ok
}

// rangeValid is the plausibility filter on ranges coming back from a
// splay tree: a zero or wrapping length, or a length larger than any object
// ever registered here, cannot be an intact registration.
func (p *Pool) rangeValid(r splay.Range) bool {
	return r.Len != 0 && r.Start+r.Len > r.Start && r.Len <= p.maxObj.Load()
}

// quarantine marks the pool's metadata as untrusted.  Idempotent; callable
// from any path (the Swap guarantees one winner emits the trace event).
func (p *Pool) quarantine(r splay.Range) {
	if p.quarantined.Swap(true) {
		return
	}
	p.emitTrace(telemetry.EvQuarantine, []uint64{r.Start, r.Len},
		"splay metadata failed validation")
}

// emitTrace serializes trace emission (Trace.Emit is not thread-safe and
// pool events can originate on any VCPU).  Cold paths only.
func (p *Pool) emitTrace(kind telemetry.EventKind, args []uint64, msg string) {
	if p.trace == nil {
		return
	}
	p.traceMu.Lock()
	p.trace.Emit(kind, p.Name, args, msg)
	p.traceMu.Unlock()
}

// corruptionErr is the fail-closed answer every check gives once the pool
// is quarantined.
func (p *Pool) corruptionErr(st *Stats, addr uint64) error {
	st.Violations++
	return &Violation{Kind: MetadataCorruption, Pool: p.Name, Addr: addr,
		Msg: "pool quarantined: check metadata corrupt, failing closed"}
}

// chaosPrep runs before every lookup while fault injection is armed: it
// rolls the injection dice under the exclusive gate, so the injector sees
// a stable object set.  Chaos runs are cold by construction.
func (p *Pool) chaosPrep() {
	p.gate.lockAll()
	if p.chaos.Should(faultinject.ClassSplay) {
		p.corruptNode()
	}
	p.gate.unlockAll()
}

// corruptNode is the ClassSplay injection payload: flip metadata in one
// splay node in place, modeling a hardware fault striking the checker's own
// state.  All three modes are fail-closed under rangeValid / lookup-miss
// semantics — the point of the campaign is proving that.  Caller holds the
// gate exclusively; the victim is picked uniformly across every shard tree
// plus the wide tree (concurrent slow-path readers may reshape a tree but
// cannot change membership, so the in-order rank is stable).
func (p *Pool) corruptNode() {
	var lens [numShards + 1]int
	total := 0
	for i := range p.obj {
		sh := &p.obj[i]
		sh.mu.Lock()
		lens[i] = sh.tree.Len()
		sh.mu.Unlock()
		total += lens[i]
	}
	p.wideMu.Lock()
	lens[numShards] = p.wide.Len()
	p.wideMu.Unlock()
	total += lens[numShards]
	if total == 0 {
		return
	}
	k := int(p.chaos.Rand(uint64(total)))
	mode := p.chaos.Rand(3)
	payload := func(r *splay.Range) {
		switch mode {
		case 0:
			r.Len = 0 // shrink to nothing: lookups miss, checks fail closed
		case 1:
			r.Len |= 1 << (63 - p.chaos.Rand(8)) // grow: caught by rangeValid
		case 2:
			r.Start ^= 1 << (33 + p.chaos.Rand(20)) // teleport: lookups miss
		}
	}
	var old splay.Range
	var ok bool
	hit := -1
	for i := range p.obj {
		if k < lens[i] {
			sh := &p.obj[i]
			sh.mu.Lock()
			old, ok = sh.tree.MutateNth(k, payload)
			sh.mu.Unlock()
			hit = i
			break
		}
		k -= lens[i]
	}
	if hit < 0 {
		p.wideMu.Lock()
		old, ok = p.wide.MutateNth(k, payload)
		p.wideMu.Unlock()
		hit = numShards
	}
	if ok {
		p.chaos.Note("splay.find", "pool %s shard %d node %d was %v, mode %d",
			p.Name, hit, k, old, mode)
	}
}

// growMaxObj raises the largest-ever-object watermark to at least n.
func (p *Pool) growMaxObj(n uint64) {
	for {
		cur := p.maxObj.Load()
		if n <= cur || p.maxObj.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Object tags.
const (
	TagHeap  = 0
	TagStack = 1
)

// RegisterStackCPU records a stack object.  A conflicting *stale stack*
// registration — left behind when a task died without unwinding its kernel
// frames — is evicted first: its frame is gone, so the registration cannot
// correspond to a live object.  Conflicts with non-stack objects are real
// violations.
func (p *Pool) RegisterStackCPU(cpu int, addr, size uint64) error {
	if size == 0 {
		return nil
	}
	if p.SingleLock {
		p.slmu.Lock()
		defer p.slmu.Unlock()
	}
	return p.register(cpu, splay.Range{Start: addr, Len: size, Tag: TagStack}, true)
}

// RegisterCPU records a new object [addr, addr+size) (pchk.reg.obj).
func (p *Pool) RegisterCPU(cpu int, addr, size uint64, tag uint32) error {
	if size == 0 {
		return nil // zero-sized allocations register nothing
	}
	if p.SingleLock {
		p.slmu.Lock()
		defer p.slmu.Unlock()
	}
	return p.register(cpu, splay.Range{Start: addr, Len: size, Tag: tag}, false)
}

// register is the sharded registration path: narrow objects under the
// shared gate, wide ones under the exclusive gate.  stack selects the
// stale-stack eviction protocol (RegisterStackCPU).
func (p *Pool) register(cpu int, rg splay.Range, stack bool) error {
	st := p.stats(cpu)
	p.growMaxObj(rg.Len)
	if narrow(rg) {
		g := p.gate.rlock(cpu)
		err, retryWide := p.registerNarrow(st, rg, stack)
		p.gate.runlock(g)
		if !retryWide {
			return err
		}
		// The conflicting object is a stale wide stack frame: evicting it
		// needs the exclusive path.
	}
	p.gate.lockAll()
	err := p.registerWide(st, rg, stack)
	p.gate.unlockAll()
	return err
}

// registerNarrow inserts a narrow object under the shared gate: one wide
// overlap probe (skipped while no wide object exists), then the owning
// shard's tree.  Returns
// retryWide when a stale wide stack frame must be evicted first.
func (p *Pool) registerNarrow(st *Stats, rg splay.Range, stack bool) (err error, retryWide bool) {
	if p.wideCount.Load() != 0 {
		p.wideMu.Lock()
		over := p.wide.OverlapRanges(rg.Start, rg.Len, 1)
		p.wideMu.Unlock()
		if len(over) > 0 {
			if stack && over[0].Tag == TagStack {
				return nil, true
			}
			st.Violations++
			return p.conflictErr(rg, stack), false
		}
	}
	sh := &p.obj[shardIndex(rg.Start)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		if sh.tree.Insert(rg) {
			p.pmInsertShard(sh, rg)
			st.Registered++
			return nil, false
		}
		if stack {
			if old, ok := sh.tree.FindOverlap(rg.Start, rg.Len); ok && old.Tag == TagStack {
				sh.tree.Remove(old.Start)
				p.pmRemoveShard(sh, old)
				continue
			}
		}
		st.Violations++
		return p.conflictErr(rg, stack), false
	}
}

// registerWide inserts an object under the exclusive gate: wide objects,
// and narrow registrations that must evict a stale wide stack frame.
func (p *Pool) registerWide(st *Stats, rg splay.Range, stack bool) error {
	if rg.Start+rg.Len < rg.Start {
		// Wraparound: the tree would reject it; classify as the
		// registration conflict the seed path reported.
		st.Violations++
		return p.conflictErr(rg, stack)
	}
	for {
		old, ok := p.anyOverlapLocked(rg)
		if !ok {
			break
		}
		if stack && old.Tag == TagStack {
			p.removeObjectLocked(old)
			continue
		}
		st.Violations++
		return p.conflictErr(rg, stack)
	}
	if narrow(rg) {
		sh := &p.obj[shardIndex(rg.Start)]
		sh.mu.Lock()
		sh.tree.Insert(rg)
		p.pmInsertShard(sh, rg)
		sh.mu.Unlock()
	} else {
		p.wideMu.Lock()
		p.wide.Insert(rg)
		p.wideMu.Unlock()
		p.wideCount.Add(1)
		p.mapInsertWide(rg)
	}
	st.Registered++
	return nil
}

func (p *Pool) conflictErr(rg splay.Range, stack bool) error {
	kind := "object"
	if stack {
		kind = "stack object"
	}
	return &Violation{Kind: RegistrationConflict, Pool: p.Name, Addr: rg.Start,
		Msg: fmt.Sprintf("%s [%#x,%#x) overlaps a live object", kind, rg.Start, rg.End())}
}

// maxBatch bounds host work per sva.pool.regbatch call (arguments are
// guest-controlled).
const maxBatch = 4096

// RegisterBatchCPU records n contiguous objects of esize bytes starting at
// base — the slab-refill shape (sva.pool.regbatch).  Semantically
// identical to n RegisterCPU calls; the fast path registers the whole
// batch under a single shard-lock hold.  On a conflict at element k,
// elements before k stay registered and the conflict is returned, exactly
// as the per-object sequence would behave.
func (p *Pool) RegisterBatchCPU(cpu int, base, n, esize uint64) error {
	if n == 0 || esize == 0 {
		return nil
	}
	st := p.stats(cpu)
	if n > maxBatch {
		st.Violations++
		return &Violation{Kind: RegistrationConflict, Pool: p.Name, Addr: base,
			Msg: fmt.Sprintf("batch of %d objects exceeds the %d-object bound", n, maxBatch)}
	}
	if p.SingleLock {
		p.slmu.Lock()
		defer p.slmu.Unlock()
	}
	p.batched.Add(1)
	total := n * esize
	whole := splay.Range{Start: base, Len: total}
	if total/esize == n && narrow(whole) && p.chaos == nil {
		p.growMaxObj(esize)
		g := p.gate.rlock(cpu)
		if p.wideCount.Load() == 0 {
			sh := &p.obj[shardIndex(base)]
			sh.mu.Lock()
			for i := uint64(0); i < n; i++ {
				rg := splay.Range{Start: base + i*esize, Len: esize, Tag: TagHeap}
				if !sh.tree.Insert(rg) {
					sh.mu.Unlock()
					p.gate.runlock(g)
					st.Violations++
					return p.conflictErr(rg, false)
				}
				p.pmInsertShard(sh, rg)
				st.Registered++
			}
			sh.mu.Unlock()
			p.gate.runlock(g)
			return nil
		}
		// Wide objects live: the element-at-a-time fallback re-acquires the
		// gate slot per element (register), and sync.RWMutex
		// forbids recursive RLock — a concurrent lockAll between the two
		// acquisitions would deadlock.  Release ours before entering it.
		p.gate.runlock(g)
	}
	// Slow shape (wide batch, overflowing arithmetic, wide objects live, or
	// chaos armed): element-at-a-time through the classic paths.
	for i := uint64(0); i < n; i++ {
		rg := splay.Range{Start: base + i*esize, Len: esize, Tag: TagHeap}
		if err := p.register(cpu, rg, false); err != nil {
			return err
		}
	}
	return nil
}

// DropCPU removes the object starting at addr (pchk.drop.obj).  Dropping a
// pointer that is not the start of a live object is an illegal free
// (guarantee T5: no double or illegal frees).  Fast path: the object is
// narrow in its region shard; only when wide objects exist does a miss
// escalate to the exclusive gate.
func (p *Pool) DropCPU(cpu int, addr uint64) error {
	st := p.stats(cpu)
	if p.SingleLock {
		p.slmu.Lock()
		defer p.slmu.Unlock()
	}
	g := p.gate.rlock(cpu)
	sh := &p.obj[shardIndex(addr)]
	sh.mu.Lock()
	if r, ok := sh.tree.FindStart(addr); ok {
		sh.tree.Remove(r.Start)
		p.pmRemoveShard(sh, r)
		sh.mu.Unlock()
		p.gate.runlock(g)
		st.Dropped++
		return nil
	}
	sh.mu.Unlock()
	p.gate.runlock(g)
	if p.wideCount.Load() != 0 {
		p.gate.lockAll()
		p.wideMu.Lock()
		r, ok := p.wide.FindStart(addr)
		if ok {
			p.wide.Remove(r.Start)
		}
		p.wideMu.Unlock()
		if ok {
			p.wideCount.Add(^uint64(0))
			p.mapRemoveWide(r)
			p.gate.unlockAll()
			st.Dropped++
			return nil
		}
		p.gate.unlockAll()
	}
	st.Violations++
	if r, ok := p.lookupAny(addr); ok {
		return &Violation{Kind: IllegalFree, Pool: p.Name, Addr: addr,
			Msg: fmt.Sprintf("free of interior pointer into %v", r)}
	}
	return &Violation{Kind: IllegalFree, Pool: p.Name, Addr: addr,
		Msg: "free of address with no live object (double free?)"}
}

// lookupAny finds the object containing addr in the owning shard or the
// wide tree, without page-map help (violation-flavor classification on the
// drop path).
func (p *Pool) lookupAny(addr uint64) (splay.Range, bool) {
	sh := &p.obj[shardIndex(addr)]
	sh.mu.Lock()
	r, ok := sh.tree.Find(addr)
	sh.mu.Unlock()
	if ok {
		return r, true
	}
	if p.wideCount.Load() != 0 {
		p.wideMu.Lock()
		r, ok = p.wide.Find(addr)
		p.wideMu.Unlock()
	}
	return r, ok
}

// GetBoundsCPU returns the bounds of the object containing addr.
func (p *Pool) GetBoundsCPU(cpu int, addr uint64) (start, end uint64, ok bool) {
	if r, ok := p.userRange(addr); ok {
		return r.Start, r.End(), true
	}
	if r, ok := p.findCPU(cpu, addr); ok {
		return r.Start, r.End(), true
	}
	return 0, 0, false
}

// BoundsCheckCPU verifies that derived — a pointer computed by indexing
// from src — still points into (or one past) the same registered object
// (pchk.bounds / the boundscheck operation).
//
// For incomplete pools the check is "reduced" (§4.5): if neither pointer
// hits a registered object, nothing can be concluded and the check passes;
// if either one hits, both must be in the same object.
func (p *Pool) BoundsCheckCPU(cpu int, src, derived uint64) error {
	st := p.stats(cpu)
	st.BoundsChecks++
	if p.quarantined.Load() {
		return p.corruptionErr(st, src)
	}
	r, ok := p.userRange(src)
	if !ok {
		r, ok = p.findCPU(cpu, src)
		if p.quarantined.Load() {
			return p.corruptionErr(st, src)
		}
	}
	if ok {
		// One-past-the-end is legal for the derived pointer (C idiom).
		if derived >= r.Start && derived <= r.End() {
			return nil
		}
		st.Violations++
		return &Violation{Kind: BoundsViolation, Pool: p.Name, Addr: derived,
			Msg: fmt.Sprintf("indexing from %#x escapes object %v", src, r)}
	}
	// Source not registered.  Check whether the derived pointer lands in
	// some object; then src and derived straddle an object boundary.
	if r2, ok2 := p.findCPU(cpu, derived); ok2 {
		st.Violations++
		return &Violation{Kind: BoundsViolation, Pool: p.Name, Addr: derived,
			Msg: fmt.Sprintf("indexing from unregistered %#x into object %v", src, r2)}
	}
	if p.quarantined.Load() {
		return p.corruptionErr(st, derived)
	}
	if p.Complete {
		st.Violations++
		return &Violation{Kind: BoundsViolation, Pool: p.Name, Addr: src,
			Msg: "indexing from pointer with no registered object in complete pool"}
	}
	return nil // reduced check on incomplete pool: inconclusive
}

// LoadStoreCheckCPU verifies that a pointer used by a load or store
// targets a registered object of this pool (pchk.lscheck).  It is only
// required for non-TH pools; for incomplete pools it is disabled by the
// compiler (the sole source of false negatives, §4.5).
func (p *Pool) LoadStoreCheckCPU(cpu int, addr uint64) error {
	st := p.stats(cpu)
	st.LSChecks++
	if p.quarantined.Load() {
		return p.corruptionErr(st, addr)
	}
	if _, ok := p.userRange(addr); ok {
		return nil
	}
	if _, ok := p.findCPU(cpu, addr); ok {
		return nil
	}
	if p.quarantined.Load() {
		return p.corruptionErr(st, addr)
	}
	if !p.Complete {
		return nil // reduced check
	}
	st.Violations++
	return &Violation{Kind: LoadStoreViolation, Pool: p.Name, Addr: addr,
		Msg: "access through pointer outside every registered object"}
}

// NoteElidedBoundsCPU records a bounds check the compiler proved
// redundant at this site (the check itself does not run), charged to
// cpu's shard.
func (p *Pool) NoteElidedBoundsCPU(cpu int) { p.stats(cpu).ElidedBounds++ }

// NoteElidedLSCPU records an elided load-store check, charged to cpu's
// shard.
func (p *Pool) NoteElidedLSCPU(cpu int) { p.stats(cpu).ElidedLS++ }

// NumObjects returns the live object count.
func (p *Pool) NumObjects() int {
	n := 0
	for i := range p.obj {
		sh := &p.obj[i]
		sh.mu.Lock()
		n += sh.tree.Len()
		sh.mu.Unlock()
	}
	p.wideMu.Lock()
	n += p.wide.Len()
	p.wideMu.Unlock()
	return n
}

// Reset drops all objects and VCPU 0's statistics (pool destruction).
// Statistics shards of other VCPUs are owner-written and survive a reset;
// merged views simply keep their history.
//
// The quarantine bit deliberately SURVIVES a reset: quarantine means the
// pool's metadata failed validation, and a guest that destroys and
// re-creates the pool (a rebooted kernel re-running its init path at the
// same VA) must not launder the verdict — fail-closed state only clears
// when the whole domain is rebuilt from the pristine image and the
// supervisor re-applies its ledger (Registry.ApplyQuarantine).
//
// Ordering: trees clear under their shard locks before maxObj zeroes, so
// a concurrent slow-path reader — whose validity filter runs under the
// same shard lock as its find — can never pair a live range with a zeroed
// watermark (no spurious quarantine from a reset race).
func (p *Pool) Reset() {
	if p.SingleLock {
		p.slmu.Lock()
		defer p.slmu.Unlock()
	}
	p.gate.lockAll()
	defer p.gate.unlockAll()
	p.emitTrace(telemetry.EvPoolReset, []uint64{uint64(p.NumObjects())}, "")
	for i := range p.obj {
		sh := &p.obj[i]
		sh.mu.Lock()
		sh.tree.ClearRecycle()
		// Retired and recycled page entries go to the GC wholesale: a
		// fresh pool must not inherit entries a straggling reader may
		// still pin.
		sh.limbo, sh.limboN, sh.free = nil, 0, nil
		sh.mu.Unlock()
	}
	p.wideMu.Lock()
	p.wide.ClearRecycle()
	p.wideMu.Unlock()
	p.wideCount.Store(0)
	p.pm.clear()
	p.unmapped.Store(0)
	p.Stats = Stats{}
	p.batched.Store(0)
	p.eraReclaimed.Store(0)
	p.maxObj.Store(0)
}

// Quarantine forces the pool into the fail-closed state (every check
// reports MetadataCorruption from now on).  Exposed for the domain
// supervisor's cross-reboot ledger; the normal entry point is metadata
// validation failing during a check.
func (p *Pool) Quarantine() { p.quarantined.Store(true) }

// SplayLookups returns how many lookups reached the pool's splay trees
// (page-map hits never do).
func (p *Pool) SplayLookups() uint64 {
	var n uint64
	for i := range p.obj {
		sh := &p.obj[i]
		sh.mu.Lock()
		n += sh.tree.Lookups
		sh.mu.Unlock()
	}
	p.wideMu.Lock()
	n += p.wide.Lookups
	p.wideMu.Unlock()
	return n
}

// splayDepth reads the deepest tree height across shards (snapshot gauge).
func (p *Pool) splayDepth() int {
	max := 0
	for i := range p.obj {
		sh := &p.obj[i]
		sh.mu.Lock()
		if d := sh.tree.Depth(); d > max {
			max = d
		}
		sh.mu.Unlock()
	}
	p.wideMu.Lock()
	if d := p.wide.Depth(); d > max {
		max = d
	}
	p.wideMu.Unlock()
	return max
}

// Registry is the VM's table of run-time metapools plus the indirect-call
// target sets computed by the compiler's call-graph analysis.
type Registry struct {
	Pools []*Pool
	// CallSets[i] is the set of legal function addresses for indirect
	// call-check set i.  Populated at module-load time, read-only after.
	CallSets []map[uint64]bool
	// ICChecks/ICViolations count indirect-call checks at the registry
	// level (call sets are not owned by any single pool).  These are
	// VCPU 0's shard; icShards holds the others.
	ICChecks     uint64
	ICViolations uint64
	icShards     []*icStat
	// nvcpu is the shard count applied to pools added after SetVCPUs.
	nvcpu int
	// noPageMap is inherited by pools added after SetPageMapDisabled(true).
	noPageMap bool
	// trace is inherited by pools added after SetTrace.
	trace *telemetry.Trace
	// chaos is inherited by pools added after SetChaos.
	chaos *faultinject.Injector
}

// icStat is one VCPU's indirect-call counter shard.
type icStat struct {
	Checks     uint64
	Violations uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// SetVCPUs sizes every pool's per-VCPU statistics shards plus the
// registry's indirect-call shards.  Must be called before
// the VCPUs start running; pools added later inherit the count.
func (r *Registry) SetVCPUs(n int) {
	if n < 1 {
		n = 1
	}
	r.nvcpu = n
	for len(r.icShards) < n {
		r.icShards = append(r.icShards, &icStat{})
	}
	for _, p := range r.Pools {
		p.setVCPUs(n)
	}
}

// AddPool appends a pool and returns its ID.  Quarantine is sticky by
// name within a registry lifetime: a kernel that reboots inside the same
// VM and re-creates a pool (same name, possibly the same VA) inherits
// the old incarnation's fail-closed verdict rather than laundering it.
func (r *Registry) AddPool(p *Pool) int {
	if r.noPageMap {
		p.NoPageMap = true
	}
	if !p.IsQuarantined() {
		for _, old := range r.Pools {
			if old.Name == p.Name && old.IsQuarantined() {
				p.Quarantine()
				break
			}
		}
	}
	if r.nvcpu > 1 {
		p.setVCPUs(r.nvcpu)
	}
	p.trace = r.trace
	p.chaos = r.chaos
	r.Pools = append(r.Pools, p)
	if r.trace != nil {
		r.trace.Emit(telemetry.EvPoolCreate, p.Name, []uint64{uint64(len(r.Pools) - 1)}, "")
	}
	return len(r.Pools) - 1
}

// Pool returns the pool with the given ID.  The ID must come from a
// trusted (host-side) source; use PoolChecked for guest-supplied IDs.
func (r *Registry) Pool(id int) *Pool {
	if id < 0 || id >= len(r.Pools) {
		panic(fmt.Sprintf("metapool: bad pool id %d", id))
	}
	return r.Pools[id]
}

// PoolChecked returns the pool with the given ID, or a Violation when the
// ID does not name a live pool.  This is the lookup for IDs that arrive
// from guest state (pchk.* intrinsic arguments): a bad ID is the guest's
// fault and must surface as a classified outcome, never a host panic.
func (r *Registry) PoolChecked(id int) (*Pool, error) {
	if id < 0 || id >= len(r.Pools) {
		return nil, &Violation{Kind: MetadataCorruption, Pool: fmt.Sprintf("pool%d", id),
			Addr: uint64(id), Msg: "check names a metapool that does not exist"}
	}
	return r.Pools[id], nil
}

// QuarantinedNames returns the names of every quarantined pool — the
// domain supervisor's ledger, carried across a microreboot and re-applied
// to the fresh registry with ApplyQuarantine.
func (r *Registry) QuarantinedNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, p := range r.Pools {
		if p.IsQuarantined() && !seen[p.Name] {
			seen[p.Name] = true
			names = append(names, p.Name)
		}
	}
	return names
}

// ApplyQuarantine forces every pool whose name appears in names into the
// fail-closed state (and remembers nothing else: names with no matching
// pool are ignored — the rebuilt image may legitimately not create them).
func (r *Registry) ApplyQuarantine(names []string) {
	if len(names) == 0 {
		return
	}
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	for _, p := range r.Pools {
		if set[p.Name] {
			p.Quarantine()
		}
	}
}

// AddCallSet registers an indirect-call target set, returning its ID.
func (r *Registry) AddCallSet(targets map[uint64]bool) int {
	r.CallSets = append(r.CallSets, targets)
	return len(r.CallSets) - 1
}

// IndirectCallCheckCPU verifies that target is a legal callee for set id
// (control-flow integrity, guarantee T1).
func (r *Registry) IndirectCallCheckCPU(cpu, id int, target uint64) error {
	checks, viols := &r.ICChecks, &r.ICViolations
	if cpu > 0 && cpu < len(r.icShards) {
		sh := r.icShards[cpu]
		checks, viols = &sh.Checks, &sh.Violations
	}
	*checks++
	if id < 0 || id >= len(r.CallSets) {
		*viols++
		return &Violation{Kind: IndirectCallViolation, Pool: fmt.Sprintf("callset%d", id),
			Addr: target, Msg: "unknown call set"}
	}
	if r.CallSets[id][target] {
		return nil
	}
	*viols++
	return &Violation{Kind: IndirectCallViolation, Pool: fmt.Sprintf("callset%d", id),
		Addr: target, Msg: "indirect call target not in compiler-computed callee set"}
}

// icTotals sums the registry-level indirect-call counters across shards.
func (r *Registry) icTotals() (checks, viols uint64) {
	checks, viols = r.ICChecks, r.ICViolations
	for i := 1; i < len(r.icShards); i++ {
		checks += r.icShards[i].Checks
		viols += r.icShards[i].Violations
	}
	return checks, viols
}

// TotalStats sums statistics across all pools (merging per-VCPU shards)
// plus the registry-level indirect-call counters.
func (r *Registry) TotalStats() Stats {
	var s Stats
	for _, p := range r.Pools {
		s.Add(p.mergedStats())
	}
	ic, icv := r.icTotals()
	s.ICChecks += ic
	s.Violations += icv
	return s
}

// SetPageMapDisabled toggles the page-map fast path on every current pool
// and every pool registered later.  The map itself stays maintained, so
// re-enabling needs no rebuild; only the lookup path changes.  This is the
// splay-only configuration of the equivalence property test and the
// lookup microbenchmark.
func (r *Registry) SetPageMapDisabled(disabled bool) {
	r.noPageMap = disabled
	for _, p := range r.Pools {
		p.NoPageMap = disabled
	}
}

// PoolSnapshot is one pool's row in a Registry snapshot.
type PoolSnapshot = telemetry.PoolStats

// Snapshot captures per-pool check and lookup statistics plus the
// registry-level indirect-call counters at one instant.  internal/report
// and `sva-bench -table=checks` render it.
type Snapshot = telemetry.CheckSnapshot

// Snapshot returns the registry's current statistics, merging per-VCPU
// shards.  During an SMP run the shards are live; snapshot after the VCPUs
// join for exact totals.
func (r *Registry) Snapshot() Snapshot {
	ic, icv := r.icTotals()
	s := Snapshot{
		ICChecks:     ic,
		ICViolations: icv,
		Totals:       r.TotalStats(),
	}
	for _, p := range r.Pools {
		s.Pools = append(s.Pools, PoolSnapshot{
			Name:            p.Name,
			TypeHomogeneous: p.TypeHomogeneous,
			Complete:        p.Complete,
			Objects:         p.NumObjects(),
			SplayLookups:    p.SplayLookups(),
			SplayDepth:      p.splayDepth(),
			Quarantined:     p.quarantined.Load(),
			Stats:           p.mergedStats(),
		})
	}
	return s
}

// Attach registers the metapool registry as a telemetry source: every
// unified snapshot carries the full per-pool check statistics.
func (r *Registry) Attach(reg *telemetry.Registry) {
	reg.Register(func(s *telemetry.Snapshot) {
		s.Checks = r.Snapshot()
	})
}

// SetTrace routes pool lifecycle events (create/reset) into a telemetry
// trace ring.  Pass nil to detach.  The check hot path is unaffected.
func (r *Registry) SetTrace(t *telemetry.Trace) {
	r.trace = t
	for _, p := range r.Pools {
		p.trace = t
	}
}

// SetChaos arms (or, with nil, disarms) the ClassSplay fault-injection seam
// on every current and future pool.  With no injector the hot-path cost is
// one nil compare per lookup.  While armed, lookups bypass the page map
// (in-place node corruption diverges the trees from the map); disarming
// rebuilds each pool's page map from its trees so the fast path resumes
// from consistent state.
func (r *Registry) SetChaos(inj *faultinject.Injector) {
	r.chaos = inj
	for _, p := range r.Pools {
		p.gate.lockAll()
		p.chaos = inj
		if inj == nil {
			p.rebuildPM()
		}
		p.gate.unlockAll()
	}
}
