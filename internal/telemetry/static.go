package telemetry

import (
	"fmt"
	"strings"
)

// AccessStats classifies one static access category (loads, stores, struct
// indexing, array indexing) the way Table 9 of the paper does: the fraction
// of static accesses touching incomplete partitions and the fraction
// touching type-safe (type-homogeneous) partitions.
type AccessStats struct {
	Total      int
	Incomplete int
	TypeSafe   int
}

// PctIncomplete returns the incomplete fraction in percent.
func (a AccessStats) PctIncomplete() float64 { return pct(a.Incomplete, a.Total) }

// PctTypeSafe returns the type-safe fraction in percent.
func (a AccessStats) PctTypeSafe() float64 { return pct(a.TypeSafe, a.Total) }

func pct(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// StaticStats are the safety-checking compiler's static measurements of
// Table 9 plus check-insertion counts (the stats block behind
// safety.Metrics).
type StaticStats struct {
	// AllocSitesTotal counts allocation sites in the whole kernel;
	// AllocSitesSeen counts those in safety-compiled code.
	AllocSitesTotal int
	AllocSitesSeen  int

	Loads     AccessStats
	Stores    AccessStats
	StructIdx AccessStats
	ArrayIdx  AccessStats

	// Check-insertion accounting.  Elided counts are included in the
	// Inserted totals: an elided check is an inserted site the §7.1.3
	// redundancy pass rewrote to a pchk.elide.* annotation.
	BoundsChecksInserted int
	BoundsChecksElided   int
	// Per-rule attribution of elided bounds checks: R1 dominating
	// identical check, R2 guarded counted-loop index, R3 value-range
	// proven indices (a site provable several ways counts for the first).
	// R4 counts loop-versioned sites: each keeps its check in the
	// fallback loop and gains an elided twin in the fast copy, so R4
	// sites are not part of BoundsChecksElided.
	BoundsElidedR1 int
	BoundsElidedR2 int
	BoundsElidedR3 int
	BoundsElidedR4 int
	// BoundsExactR5 counts executed bounds checks on a registered global
	// that rule R5 turned into lookup-free pchk.exact checks; they stay
	// executed checks, so they are not part of BoundsChecksElided.
	BoundsExactR5      int
	GEPsProvenSafe     int
	LSChecksInserted   int
	LSChecksElided     int
	ICChecksInserted   int
	ObjRegistrations   int
	StackRegistrations int
	PromotedAllocas    int
	// §4.8 precision transformations.
	ClonesCreated int
	Devirtualized int
}

// PctAllocSitesSeen returns the allocation-site coverage in percent.
func (m StaticStats) PctAllocSitesSeen() float64 { return pct(m.AllocSitesSeen, m.AllocSitesTotal) }

// String renders the metrics in the shape of Table 9.
func (m StaticStats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Allocation sites seen: %.1f%% (%d/%d)\n",
		m.PctAllocSitesSeen(), m.AllocSitesSeen, m.AllocSitesTotal)
	row := func(name string, a AccessStats) {
		fmt.Fprintf(&sb, "%-18s total=%-6d incomplete=%5.1f%%  type-safe=%5.1f%%\n",
			name, a.Total, a.PctIncomplete(), a.PctTypeSafe())
	}
	row("Loads", m.Loads)
	row("Stores", m.Stores)
	row("Structure Indexing", m.StructIdx)
	row("Array Indexing", m.ArrayIdx)
	fmt.Fprintf(&sb, "Bounds checks      inserted=%-6d elided=%d (R1=%d R2=%d R3=%d), loop-versioned R4=%d, exact R5=%d\n",
		m.BoundsChecksInserted, m.BoundsChecksElided, m.BoundsElidedR1, m.BoundsElidedR2, m.BoundsElidedR3,
		m.BoundsElidedR4, m.BoundsExactR5)
	return sb.String()
}
