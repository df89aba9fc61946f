// Package telemetry is the SVM's single observability subsystem.  It owns
// the canonical statistics schema every component publishes into (VM
// execution counters, per-metapool check activity, the safety compiler's
// static Table-9 metrics, kernel syscall counts), a virtual-cycle profiler
// that attributes every charged cycle to the guest function and SVA
// operation executing when the charge landed, and a bounded ring-buffer
// trace of structured events dumpable as JSONL.
//
// The paper's entire evaluation (§7, Tables 4–9) attributes cost to
// individual SVM mechanisms; this package is the one place that
// attribution lives.  Components keep their own counters on the hot path
// (zero cost while telemetry is passive) and register a publish hook in a
// Registry; Registry.Snapshot pulls everything into one typed Snapshot.
package telemetry

// DeviceStats is one device's uniform counter snapshot (the telemetry
// mirror of hw.DevStats; this package stays import-free of hw).
type DeviceStats struct {
	Name   string
	Ops    uint64
	Bytes  uint64
	Errors uint64
}

// NetStats is the device-layer snapshot: every platform device's uniform
// counters plus the descriptor-ring NIC's batching and interrupt
// coalescing activity.
type NetStats struct {
	Devices []DeviceStats
	// Ring NIC activity.
	TxFrames   uint64
	RxFrames   uint64
	Doorbells  uint64
	Completed  uint64 // descriptors completed across all doorbells
	IntrRaised uint64 // coalesced completion interrupts delivered
	BadDescs   uint64 // malformed descriptors/indices the host refused
	Dropped    uint64 // chaos-injected wire losses
	// Batches is the frames-per-doorbell histogram (hw.BatchBuckets).
	Batches []uint64
}

// VMStats aggregates virtual-machine execution counters (the stats block
// behind vm.Counters).
type VMStats struct {
	Steps  uint64 // instructions interpreted
	KSteps uint64 // instructions interpreted at kernel privilege
	// EngineSteps counts instructions retired by the direct-threaded
	// engine (a subset of Steps; zero with the engine off).
	EngineSteps  uint64
	Calls        uint64
	Traps        uint64 // syscalls + interrupts delivered
	Intrinsics   uint64
	MemOps       uint64
	ChecksBounds uint64
	ChecksLS     uint64
	ChecksIC     uint64
	// ElidedBounds / ElidedLS count dynamic executions of pchk.elide.*
	// annotations: checks that would have run had the §7.1.3 redundancy
	// pass not removed them.
	ElidedBounds uint64
	ElidedLS     uint64
	Translations uint64 // functions translated (lazily, once each)
	Switches     uint64 // continuation switches (context switches)
	// Recovery-ladder counters (DESIGN.md §12): oops unwinds absorbed,
	// fail-stops raised, watchdog fuel exhaustions, pools quarantined.
	Oops           uint64
	FailStops      uint64
	WatchdogFaults uint64
	Quarantines    uint64
}

// Add accumulates another VM's counters into s (merging per-VCPU counter
// blocks into one machine-wide view).
func (s *VMStats) Add(o VMStats) {
	s.Steps += o.Steps
	s.KSteps += o.KSteps
	s.EngineSteps += o.EngineSteps
	s.Calls += o.Calls
	s.Traps += o.Traps
	s.Intrinsics += o.Intrinsics
	s.MemOps += o.MemOps
	s.ChecksBounds += o.ChecksBounds
	s.ChecksLS += o.ChecksLS
	s.ChecksIC += o.ChecksIC
	s.ElidedBounds += o.ElidedBounds
	s.ElidedLS += o.ElidedLS
	s.Translations += o.Translations
	s.Switches += o.Switches
	s.Oops += o.Oops
	s.FailStops += o.FailStops
	s.WatchdogFaults += o.WatchdogFaults
	s.Quarantines += o.Quarantines
}

// CheckStats counts run-time check activity (the stats block behind
// metapool.Stats; one per pool, plus a summed total).
type CheckStats struct {
	Registered   uint64
	Dropped      uint64
	BoundsChecks uint64
	LSChecks     uint64
	ICChecks     uint64
	// ElidedBounds/ElidedLS count checks a pool would have run had the
	// compiler's §7.1.3 redundancy pass not proven them unnecessary.
	ElidedBounds uint64
	ElidedLS     uint64
	Violations   uint64
	// Every object lookup lands in exactly one of PageHits and CacheMisses.
	// PageHits: the O(1) shadow page map answered (single-object hit or
	// definitive miss).  CacheMisses: the lookup took the tree path and
	// paid for a splay-tree descent.
	PageHits    uint64
	CacheMisses uint64
	// CacheHits, PendHits, Absorbed and Spilled are always 0: the metapool
	// has no last-hit or pending caches.  They stay in the schema because
	// the benchmark's per-layer metrics (bench/metrics.go, bench/trace.go)
	// read them.
	CacheHits uint64
	PendHits  uint64
	Absorbed  uint64
	Spilled   uint64
	// Batched counts sva.pool.regbatch calls; EpochReclaims counts
	// epoch-based-reclamation passes over retired page-map entries.
	Batched       uint64
	EpochReclaims uint64
}

// Add accumulates another check-stats block into s (merging a pool's
// per-VCPU shards into one row).
func (s *CheckStats) Add(o CheckStats) {
	s.Registered += o.Registered
	s.Dropped += o.Dropped
	s.BoundsChecks += o.BoundsChecks
	s.LSChecks += o.LSChecks
	s.ICChecks += o.ICChecks
	s.ElidedBounds += o.ElidedBounds
	s.ElidedLS += o.ElidedLS
	s.Violations += o.Violations
	s.PageHits += o.PageHits
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.PendHits += o.PendHits
	s.Absorbed += o.Absorbed
	s.Spilled += o.Spilled
	s.Batched += o.Batched
	s.EpochReclaims += o.EpochReclaims
}

// PoolStats is one metapool's row in a snapshot.
type PoolStats struct {
	Name            string
	TypeHomogeneous bool
	Complete        bool
	Objects         int
	// SplayLookups is how many lookups reached the splay tree.
	SplayLookups uint64
	// SplayDepth is the tree's current height (a gauge, computed at
	// snapshot time; 0 for an empty tree).
	SplayDepth int
	// Quarantined is set once the pool's metadata was found corrupt; a
	// quarantined pool fails every subsequent check closed.
	Quarantined bool
	Stats       CheckStats
}

// CheckSnapshot captures per-pool check and cache statistics plus the
// registry-level indirect-call counters at one instant.
type CheckSnapshot struct {
	Pools        []PoolStats
	ICChecks     uint64
	ICViolations uint64
	Totals       CheckStats
}

// KernelStats carries guest-kernel-level counters.
type KernelStats struct {
	// Syscalls counts trap dispatches per syscall number.
	Syscalls map[int64]uint64
}

// Snapshot is the unified view of every registered statistics source at
// one instant: the redesigned replacement for the old three-way
// vm.Counters / metapool.Snapshot / safety.Metrics seam.
type Snapshot struct {
	VM     VMStats
	Checks CheckSnapshot
	Kernel KernelStats
	// Net is the device-layer view: per-device counters plus the ring
	// NIC's batching/coalescing activity (nil before the machine binds).
	Net *NetStats
	// Static is the safety compiler's static accounting (nil when the
	// running configuration was not safety-compiled).
	Static *StaticStats
	// Profile is the virtual-cycle profile (nil while profiling is off).
	Profile *Profile
	// Events is the trace ring-buffer content, oldest first (nil while
	// tracing is off).
	Events []Event
}
