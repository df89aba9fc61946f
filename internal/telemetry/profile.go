package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"sva/internal/svaops"
)

// Profiler accumulates virtual-cycle attribution while enabled: every
// cycle the VM charges is booked against the guest function executing when
// the charge landed (flat profile plus caller edges), and every SVA/check
// operation's charge is additionally booked against the operation itself.
// Cycles are deterministic, so profiles are bit-reproducible.
//
// The function and operation views overlap by design: an op's cycles also
// appear in the function that executed it.  Coverage (Attributed vs the
// CPU's total delta) is computed against the function view only.
type Profiler struct {
	fns   map[string]*fnCount
	ops   map[string]*opCount
	sites map[SiteKey]*opCount
	// Attributed sums all cycles booked to functions.
	attributed uint64
}

type fnCount struct {
	cycles  uint64
	steps   uint64
	callers map[string]uint64 // caller name -> cycles charged on that edge
}

type opCount struct {
	cycles uint64
	count  uint64
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{fns: map[string]*fnCount{}, ops: map[string]*opCount{}, sites: map[SiteKey]*opCount{}}
}

// ChargeFn books cycles (one executed instruction's full charge, including
// any intrinsic work it triggered) to function fn, attributed along the
// edge from caller ("" for the root frame).
func (p *Profiler) ChargeFn(fn, caller string, cycles uint64) {
	c := p.fns[fn]
	if c == nil {
		c = &fnCount{callers: map[string]uint64{}}
		p.fns[fn] = c
	}
	c.cycles += cycles
	c.steps++
	c.callers[caller] += cycles
	p.attributed += cycles
}

// ChargeOp books one executed operation's charge against the operation.
func (p *Profiler) ChargeOp(name string, cycles uint64) {
	c := p.ops[name]
	if c == nil {
		c = &opCount{}
		p.ops[name] = c
	}
	c.cycles += cycles
	c.count++
}

// SiteKey identifies one check call site: the guest function, the index
// of the basic block holding the call, the operation, and its first
// argument (the metapool ID; the call-set ID for pchk.iccheck).
type SiteKey struct {
	Fn    string
	Block int
	Op    string
	Pool  uint64
}

// String renders the site as fn#block.
func (k SiteKey) String() string { return fmt.Sprintf("%s#%d", k.Fn, k.Block) }

// ChargeSite books one executed check operation's charge against its call
// site, alongside the ChargeOp booking of the operation itself.
func (p *Profiler) ChargeSite(k SiteKey, cycles uint64) {
	c := p.sites[k]
	if c == nil {
		c = &opCount{}
		p.sites[k] = c
	}
	c.cycles += cycles
	c.count++
}

// FnEntry is one function's row in a Profile, callers sorted by cycles.
type FnEntry struct {
	Name    string
	Cycles  uint64
	Steps   uint64
	Callers []CallerEntry
}

// CallerEntry attributes a function's cycles to one caller.
type CallerEntry struct {
	Name   string
	Cycles uint64
}

// OpEntry is one operation's row in a Profile.
type OpEntry struct {
	Name   string
	Class  string
	Count  uint64
	Cycles uint64
}

// SiteEntry is one check call site's row in a Profile.
type SiteEntry struct {
	SiteKey
	Count  uint64
	Cycles uint64
}

// Profile is a sorted snapshot of a Profiler.
type Profile struct {
	Functions []FnEntry
	Ops       []OpEntry
	// Sites attributes every check-class operation to its call site.
	Sites []SiteEntry
	// Attributed is the total cycles booked to functions; dividing by the
	// CPU's cycle delta over the profiled window gives coverage.
	Attributed uint64
}

// Snapshot renders the profiler's current state, sorted by cycles
// descending (ties broken by name for determinism).
func (p *Profiler) Snapshot() *Profile {
	prof := &Profile{Attributed: p.attributed}
	for name, c := range p.fns {
		e := FnEntry{Name: name, Cycles: c.cycles, Steps: c.steps}
		for caller, cyc := range c.callers {
			e.Callers = append(e.Callers, CallerEntry{Name: caller, Cycles: cyc})
		}
		sort.Slice(e.Callers, func(i, j int) bool {
			if e.Callers[i].Cycles != e.Callers[j].Cycles {
				return e.Callers[i].Cycles > e.Callers[j].Cycles
			}
			return e.Callers[i].Name < e.Callers[j].Name
		})
		prof.Functions = append(prof.Functions, e)
	}
	sort.Slice(prof.Functions, func(i, j int) bool {
		if prof.Functions[i].Cycles != prof.Functions[j].Cycles {
			return prof.Functions[i].Cycles > prof.Functions[j].Cycles
		}
		return prof.Functions[i].Name < prof.Functions[j].Name
	})
	for name, c := range p.ops {
		class := ""
		if op := svaops.Lookup(name); op != nil {
			class = op.Class.String()
		}
		prof.Ops = append(prof.Ops, OpEntry{Name: name, Class: class, Count: c.count, Cycles: c.cycles})
	}
	sort.Slice(prof.Ops, func(i, j int) bool {
		if prof.Ops[i].Cycles != prof.Ops[j].Cycles {
			return prof.Ops[i].Cycles > prof.Ops[j].Cycles
		}
		return prof.Ops[i].Name < prof.Ops[j].Name
	})
	for k, c := range p.sites {
		prof.Sites = append(prof.Sites, SiteEntry{SiteKey: k, Count: c.count, Cycles: c.cycles})
	}
	sort.Slice(prof.Sites, func(i, j int) bool {
		a, b := prof.Sites[i], prof.Sites[j]
		switch {
		case a.Cycles != b.Cycles:
			return a.Cycles > b.Cycles
		case a.Fn != b.Fn:
			return a.Fn < b.Fn
		case a.Block != b.Block:
			return a.Block < b.Block
		case a.Op != b.Op:
			return a.Op < b.Op
		}
		return a.Pool < b.Pool
	})
	return prof
}

// FormatSites renders the per-site check attribution: one row per check
// call site with its executions and cycles, and its share of all
// check-site cycles.
func (p *Profile) FormatSites() string {
	var sb strings.Builder
	var total uint64
	for _, s := range p.Sites {
		total += s.Cycles
	}
	fmt.Fprintf(&sb, "Per-site checks (%d sites, %d cycles)\n", len(p.Sites), total)
	fmt.Fprintf(&sb, "%-28s %-18s %6s %10s %12s %7s\n", "Site", "Operation", "pool", "count", "cycles", "%check")
	for _, s := range p.Sites {
		pool := fmt.Sprintf("MP%d", s.Pool)
		if s.Op == svaops.ICCheck {
			pool = fmt.Sprintf("set%d", s.Pool)
		}
		share := 0.0
		if total > 0 {
			share = 100 * float64(s.Cycles) / float64(total)
		}
		fmt.Fprintf(&sb, "%-28s %-18s %6s %10d %12d %6.1f%%\n", s.SiteKey, s.Op, pool, s.Count, s.Cycles, share)
	}
	return sb.String()
}

// Format renders the profile: coverage, the top-N flat function report
// with the dominant caller per function, and the per-operation breakdown
// grouped by class.  total is the CPU cycle delta over the profiled
// window (0 suppresses coverage and percent-of-total columns).
func (p *Profile) Format(top int, total uint64) string {
	var sb strings.Builder
	sb.WriteString("Profile: virtual-cycle attribution\n")
	if total > 0 {
		fmt.Fprintf(&sb, "total cycles: %d, attributed: %d (%.1f%%)\n",
			total, p.Attributed, 100*float64(p.Attributed)/float64(total))
	} else {
		fmt.Fprintf(&sb, "attributed cycles: %d\n", p.Attributed)
	}
	pctOf := func(cyc uint64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(cyc) / float64(total)
	}

	fmt.Fprintf(&sb, "\nTop %d functions (flat)\n", top)
	fmt.Fprintf(&sb, "%-32s %12s %7s %10s  %s\n", "Function", "cycles", "%total", "steps", "top caller")
	for i, f := range p.Functions {
		if i >= top {
			break
		}
		caller := "-"
		if len(f.Callers) > 0 && f.Callers[0].Name != "" {
			caller = f.Callers[0].Name
		}
		fmt.Fprintf(&sb, "%-32s %12d %6.1f%% %10d  %s\n", f.Name, f.Cycles, pctOf(f.Cycles), f.Steps, caller)
	}

	sb.WriteString("\nPer-operation breakdown (cycles charged inside each op)\n")
	fmt.Fprintf(&sb, "%-10s %-28s %10s %12s %7s\n", "Class", "Operation", "count", "cycles", "%total")
	byClass := map[string]uint64{}
	for _, op := range p.Ops {
		fmt.Fprintf(&sb, "%-10s %-28s %10d %12d %6.1f%%\n", op.Class, op.Name, op.Count, op.Cycles, pctOf(op.Cycles))
		byClass[op.Class] += op.Cycles
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool {
		if byClass[classes[i]] != byClass[classes[j]] {
			return byClass[classes[i]] > byClass[classes[j]]
		}
		return classes[i] < classes[j]
	})
	sb.WriteString("\nBy class\n")
	for _, c := range classes {
		name := c
		if name == "" {
			name = "(guest)"
		}
		fmt.Fprintf(&sb, "  %-10s %12d %6.1f%%\n", name, byClass[c], pctOf(byClass[c]))
	}
	if len(p.Sites) > 0 {
		sb.WriteString("\n")
		sb.WriteString(p.FormatSites())
	}
	return sb.String()
}
