package typecheck

import (
	"fmt"

	"sva/internal/ir"
	"sva/internal/svaops"
)

// BugKind enumerates the four classes of pointer-analysis bugs injected in
// the paper's §5 experiment ("incorrect variable aliasing, incorrect
// inter-node edges, incorrect claims of type homogeneity, and insufficient
// merging of points-to graph nodes").  InjectBug plants one instance; the
// checker must catch all of them.
type BugKind int

const (
	// BugAliasing: a derived pointer is annotated with the wrong metapool.
	BugAliasing BugKind = iota
	// BugEdge: a metapool's declared pointee edge is corrupted.
	BugEdge
	// BugTHClaim: a type-homogeneity claim names the wrong element type.
	BugTHClaim
	// BugSplit: one partition is split in two without re-running the
	// analysis (insufficient merging).
	BugSplit
	// BugBogusElision: a run-time check is annotated as elided even
	// though no dominating identical check or loop guard justifies it —
	// the checker must re-derive every elision and reject this one
	// (§7.1.3 optimization under the §5 TCB discipline).
	BugBogusElision
	// BugBogusRangeElision: a legitimately R3-elided check has the proof
	// pulled out from under it — a constant the value-range derivation
	// depends on (a branch-guard comparison bound, a urem divisor, an
	// and-mask) is corrupted so the index interval no longer fits the
	// accessed extent.  The checker's independent re-derivation must fail
	// and reject the now-unjustified elision.
	BugBogusRangeElision
	// BugBogusVersioning: an R4 loop-versioned elision loses its proof —
	// the range test's end is widened, the induction cell's start is
	// lowered below the test's start, an elision moves onto the
	// fallback loop outside the test's true edge, the step becomes +2,
	// or a pchk.drop.obj lands in the fast loop.  Seed s applies
	// corruption s%5 to versioned loop s/5.
	BugBogusVersioning
)

// bugNames is the one list of bug kinds: its order is the BugKind order.
var bugNames = [...]string{"aliasing", "edge", "th-claim", "split", "bogus-elision",
	"bogus-range-elision", "bogus-versioning"}

func (k BugKind) String() string {
	if int(k) >= 0 && int(k) < len(bugNames) {
		return bugNames[k]
	}
	return fmt.Sprintf("bug(%d)", int(k))
}

// BugKinds returns every bug kind, in declaration order.
func BugKinds() []BugKind {
	ks := make([]BugKind, len(bugNames))
	for i := range ks {
		ks[i] = BugKind(i)
	}
	return ks
}

// ParseBugKind maps a bug-kind name (as printed by String) to its kind.
func ParseBugKind(name string) (BugKind, bool) {
	for i, n := range bugNames {
		if n == name {
			return BugKind(i), true
		}
	}
	return 0, false
}

// InjectBug plants the seed-th instance of the given bug kind into a
// safety-compiled program, returning a description of what was corrupted.
// ok is false when the program has no injection site of that kind.  Seeds
// past the number of sites wrap around and re-plant an earlier corruption;
// the description names the corrupted site exactly, so callers counting
// distinct injections compare descriptions.
func InjectBug(kind BugKind, seed int, descs []*ir.MetapoolDesc, mods ...*ir.Module) (string, bool) {
	switch kind {
	case BugAliasing:
		return injectAliasing(seed, descs, mods)
	case BugEdge:
		return injectEdge(seed, descs, mods)
	case BugTHClaim:
		return injectTHClaim(seed, descs, mods)
	case BugSplit:
		return injectSplit(seed, descs, mods)
	case BugBogusElision:
		return injectBogusElision(seed, mods)
	case BugBogusRangeElision:
		return injectBogusRangeElision(seed, mods)
	case BugBogusVersioning:
		return injectBogusVersioning(seed, mods)
	}
	return "", false
}

// compiledInstrs yields every instruction of safety-compiled functions,
// numbered afresh so descriptions name each site unambiguously.
func compiledInstrs(mods []*ir.Module, visit func(f *ir.Function, in *ir.Instr) bool) {
	for _, m := range mods {
		for _, f := range m.Funcs {
			if !f.SafetyCompiled {
				continue
			}
			f.Renumber()
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if !visit(f, in) {
						return
					}
				}
			}
		}
	}
}

// pick returns the seed-th element of sites, wrapping around.
func pick[T any](sites []T, seed int) (T, bool) {
	if seed < 0 || len(sites) == 0 {
		var zero T
		return zero, false
	}
	return sites[seed%len(sites)], true
}

func otherPool(descs []*ir.MetapoolDesc, not string) string {
	for _, d := range descs {
		if d.Name != not {
			return d.Name
		}
	}
	return ""
}

func injectAliasing(seed int, descs []*ir.MetapoolDesc, mods []*ir.Module) (string, bool) {
	var sites []*ir.Instr
	compiledInstrs(mods, func(f *ir.Function, in *ir.Instr) bool {
		if (in.Op == ir.OpBitcast || in.Op == ir.OpGEP) && in.Pool != "" && poolOf(in.Args[0]) == in.Pool {
			sites = append(sites, in)
		}
		return true
	})
	in, ok := pick(sites, seed)
	if !ok {
		return "", false
	}
	wrong := otherPool(descs, in.Pool)
	if wrong == "" {
		return "", false
	}
	desc := fmt.Sprintf("reannotated %s result %s in @%s from %s to %s",
		in.Op, in.Ident(), in.Parent().Func.Nm, in.Pool, wrong)
	in.Pool = wrong
	return desc, true
}

func injectEdge(seed int, descs []*ir.MetapoolDesc, mods []*ir.Module) (string, bool) {
	// Corrupt the pointee edge of a pool that a pointer load actually
	// traverses, so the bug is semantically meaningful.
	var pools []string
	seen := map[string]bool{}
	compiledInstrs(mods, func(f *ir.Function, in *ir.Instr) bool {
		if in.Op == ir.OpLoad && in.Typ.IsPointer() && in.Pool != "" {
			if sp := poolOf(in.Args[0]); sp != "" && !seen[sp] {
				seen[sp] = true
				pools = append(pools, sp)
			}
		}
		return true
	})
	name, ok := pick(pools, seed)
	if !ok {
		return "", false
	}
	for _, d := range descs {
		if d.Name == name {
			wrong := otherPool(descs, d.Pointee)
			old := d.Pointee
			d.Pointee = wrong
			return fmt.Sprintf("pool %s pointee edge %s -> %s", name, old, wrong), true
		}
	}
	return "", false
}

func injectTHClaim(seed int, descs []*ir.MetapoolDesc, mods []*ir.Module) (string, bool) {
	// Find TH pools with a typed registration (so the claim is checkable),
	// then lie about the element type.
	typed := map[string]bool{}
	compiledInstrs(mods, func(f *ir.Function, in *ir.Instr) bool {
		name, ok := in.IsIntrinsicCall()
		if !ok || (name != "pchk.reg.obj" && name != "pchk.reg.stack") {
			return true
		}
		src := in.Args[1]
		if ci, okc := src.(*ir.Instr); okc && ci.Op == ir.OpBitcast {
			src = ci.Args[0]
		}
		if t := src.Type(); t.IsPointer() && t.Elem() != ir.I8 {
			if p := poolOf(src); p != "" {
				typed[p] = true
			}
		}
		return true
	})
	var candidates []*ir.MetapoolDesc
	for _, d := range descs {
		if d.TypeHomogeneous && d.ElemType != nil && typed[d.Name] {
			candidates = append(candidates, d)
		}
	}
	d, ok := pick(candidates, seed)
	if !ok {
		return "", false
	}
	old := d.ElemType
	wrong := ir.StructOf(ir.I8, ir.I64, ir.I8) // a type no kernel object has
	if old == wrong {
		wrong = ir.StructOf(ir.I16, ir.I16)
	}
	d.ElemType = wrong
	return fmt.Sprintf("pool %s TH element type %s -> %s", d.Name, old, wrong), true
}

func injectSplit(seed int, descs []*ir.MetapoolDesc, mods []*ir.Module) (string, bool) {
	// Split: relabel one pointer load's result into a fresh clone of its
	// pool, as if the analysis had failed to merge the two partitions.
	var sites []*ir.Instr
	compiledInstrs(mods, func(f *ir.Function, in *ir.Instr) bool {
		if in.Op == ir.OpLoad && in.Typ.IsPointer() && in.Pool != "" && poolOf(in.Args[0]) != "" {
			sites = append(sites, in)
		}
		return true
	})
	in, ok := pick(sites, seed)
	if !ok {
		return "", false
	}
	clone := *descsByName(descs, in.Pool)
	clone.Name = in.Pool + ".split"
	// The caller owns descs; the split pool is described but the edge
	// structure no longer matches the annotations.
	mods[0].Metapools = append(mods[0].Metapools, &clone)
	old := in.Pool
	in.Pool = clone.Name
	return fmt.Sprintf("split pool %s: load result %s in @%s moved to %s",
		old, in.Ident(), in.Parent().Func.Nm, clone.Name), true
}

func injectBogusElision(seed int, mods []*ir.Module) (string, bool) {
	// The checks still present after compilation are exactly those the
	// optimizer could NOT prove redundant (it elides everything its rules
	// cover, and the checker re-derives the same rules).  Rewriting one of
	// them into a pchk.elide.* annotation therefore claims an elision with
	// no dominating check and no guard proof — the checker must reject it.
	type site struct {
		m  *ir.Module
		in *ir.Instr
		f  *ir.Function
	}
	var sites []site
	for _, m := range mods {
		compiledInstrs([]*ir.Module{m}, func(f *ir.Function, in *ir.Instr) bool {
			if name, ok := in.IsIntrinsicCall(); ok &&
				(name == svaops.BoundsCheck || name == svaops.LSCheck) {
				sites = append(sites, site{m, in, f})
			}
			return true
		})
	}
	s, ok := pick(sites, seed)
	if !ok {
		return "", false
	}
	name, _ := s.in.IsIntrinsicCall()
	elide := svaops.ElideBounds
	if name == svaops.LSCheck {
		elide = svaops.ElideLS
	}
	s.in.Callee = svaops.Get(s.m, elide)
	return fmt.Sprintf("rewrote unjustified %s %s in @%s to %s", name, s.in.Ident(), s.f.Nm, elide), true
}

// newReplayVerifier builds a fresh elideVerifier for f (fresh value-range
// state too, so it sees the current constants, not pre-corruption ones).
func newReplayVerifier(f *ir.Function) *elideVerifier {
	ev := &elideVerifier{
		f:        f,
		cfg:      f.CFG(),
		evidence: map[string][]elideSite{},
		vns:      map[ir.Value]string{},
		leafID:   map[ir.Value]int{},
		cells:    map[*ir.Instr]*vcellInfo{},
		guards:   map[*ir.Instr][]vcellGuard{},
	}
	ev.dom = f.DomTree()
	return ev
}

// replayElisions walks f the way checkElisions does, calling visit for each
// pchk.elide.bounds with the verifier and its proof status under each rule.
// Returning false stops the walk.
func replayElisions(ev *elideVerifier, visit func(in *ir.Instr, r1, r2, r3, r4 bool) bool) {
	for _, b := range ev.cfg.RPO {
		for i, in := range b.Instrs {
			name, ok := in.IsIntrinsicCall()
			if !ok {
				continue
			}
			switch name {
			case svaops.BoundsCheck:
				if key, _, keyed := ev.boundsKey(in); keyed {
					ev.evidence[key] = append(ev.evidence[key], elideSite{b, i})
				}
			case svaops.LSCheck:
				if key, _, keyed := ev.lsKey(in); keyed {
					ev.evidence[key] = append(ev.evidence[key], elideSite{b, i})
				}
			case svaops.ElideBounds:
				key, pool, keyed := ev.boundsKey(in)
				r1 := keyed && ev.provenByEvidence(key, pool, b, i)
				r2 := ev.gepGuardSafe(in)
				r3 := ev.gepRangeSafe(in)
				r4 := ev.gepVersionSafe(in, b, i)
				if !visit(in, r1, r2, r3, r4) {
					return
				}
				if keyed && (r1 || r2 || r3 || r4) {
					ev.evidence[key] = append(ev.evidence[key], elideSite{b, i})
				}
			case svaops.ElideLS:
				if key, pool, keyed := ev.lsKey(in); keyed && ev.provenByEvidence(key, pool, b, i) {
					ev.evidence[key] = append(ev.evidence[key], elideSite{b, i})
				}
			}
		}
	}
}

// rangeProofConsts collects the constants an R3 proof leans on for one
// elided check: ConstInt operands of the fact-source comparisons that
// tightened an index interval (branch-guard bounds), and ConstInt operands
// of each index's defining instruction and its immediate operands (urem
// divisors, and-masks, select cap arms).
func (ev *elideVerifier) rangeProofConsts(check *ir.Instr) []struct {
	host *ir.Instr
	argi int
} {
	type slot = struct {
		host *ir.Instr
		argi int
	}
	var out []slot
	g, ok := vstripPtrCasts(check.Args[2]).(*ir.Instr)
	if !ok || g.Op != ir.OpGEP {
		return nil
	}
	blk := check.Parent()
	seen := map[*ir.Instr]bool{}
	addHost := func(h *ir.Instr) {
		if h == nil || seen[h] {
			return
		}
		seen[h] = true
		for i, a := range h.Args {
			if c, okc := a.(*ir.ConstInt); okc && c.Type().IsInt() {
				out = append(out, slot{h, i})
			}
		}
	}
	for k := 1; k < len(g.Args); k++ {
		_, wits := ev.ranges().atWitness(g.Args[k], blk, true)
		for _, w := range wits {
			addHost(w)
		}
		if di, oki := g.Args[k].(*ir.Instr); oki {
			addHost(di)
			for _, a := range di.Args {
				if ai, oka := a.(*ir.Instr); oka {
					addHost(ai)
				}
			}
		}
	}
	return out
}

func injectBogusRangeElision(seed int, mods []*ir.Module) (string, bool) {
	// Candidates: elisions only R3 justifies (an R1/R2 proof would survive
	// the corruption), paired with each constant their proof depends on.
	type cand struct {
		f      *ir.Function
		target *ir.Instr
		host   *ir.Instr
		argi   int
	}
	var cands []cand
	for _, m := range mods {
		for _, f := range m.Funcs {
			if !f.SafetyCompiled {
				continue
			}
			ev := newReplayVerifier(f)
			replayElisions(ev, func(in *ir.Instr, r1, r2, r3, r4 bool) bool {
				if r1 || r2 || r4 || !r3 {
					return true
				}
				for _, s := range ev.rangeProofConsts(in) {
					cands = append(cands, cand{f, in, s.host, s.argi})
				}
				return true
			})
		}
	}
	if len(cands) == 0 {
		return "", false
	}
	// Not every constant is load-bearing (a proof can hold through several
	// facts): corrupt each distinct constant, re-derive with a fresh
	// verifier, and keep the corruptions the checker genuinely cannot
	// re-prove; the seed picks one of those.
	type slot struct {
		host *ir.Instr
		argi int
	}
	corrupt := func(c cand) (old *ir.ConstInt, nv int64) {
		old = c.host.Args[c.argi].(*ir.ConstInt)
		nv = vMaxS(old.Type().Bits())
		if old.SignedValue() == nv {
			nv = vMinS(old.Type().Bits())
		}
		c.host.Args[c.argi] = ir.NewInt(old.Type(), nv)
		return old, nv
	}
	var bearing []cand
	tried := map[slot]bool{}
	for _, c := range cands {
		if tried[slot{c.host, c.argi}] {
			continue
		}
		tried[slot{c.host, c.argi}] = true
		old, _ := corrupt(c)
		broken := false
		replayElisions(newReplayVerifier(c.f), func(in *ir.Instr, r1, r2, r3, r4 bool) bool {
			if in != c.target {
				return true
			}
			broken = !r1 && !r2 && !r3 && !r4
			return false
		})
		c.host.Args[c.argi] = old
		if broken {
			bearing = append(bearing, c)
		}
	}
	c, ok := pick(bearing, seed)
	if !ok {
		return "", false
	}
	old, nv := corrupt(c)
	return fmt.Sprintf("corrupted range witness in @%s: %s constant %d -> %d under elided check on %s",
		c.f.Nm, c.host.Op, old.SignedValue(), nv, c.target.Args[2].Ident()), true
}

func descsByName(descs []*ir.MetapoolDesc, name string) *ir.MetapoolDesc {
	for _, d := range descs {
		if d.Name == name {
			return d
		}
	}
	return &ir.MetapoolDesc{Name: name}
}

// versionedLoop is one R4-versioned loop as the injector sees it: the
// range test and one of the fast copy's elided checks.
type versionedLoop struct {
	m     *ir.Module
	f     *ir.Function
	ev    *elideVerifier
	test  *ir.Instr // pchk.bounds.test call
	fast  *ir.BasicBlock
	elide *ir.Instr // an elided check under the test's true edge
	cell  *ir.Instr // its induction cell
}

// versionedLoops finds every range test with an elided check in its fast
// copy, in function order.
func versionedLoops(mods []*ir.Module) []versionedLoop {
	var out []versionedLoop
	for _, m := range mods {
		for _, f := range m.Funcs {
			if !f.SafetyCompiled {
				continue
			}
			f.Renumber()
			ev := newReplayVerifier(f)
			for _, v := range ev.boundsTests() {
				br := v.Terminator()
				l := versionedLoop{m: m, f: f, ev: ev, test: br.Args[0].(*ir.Instr), fast: br.Blocks[0]}
				for _, b := range f.Blocks {
					if l.elide != nil || !ev.dom.Dominates(l.fast, b) {
						continue
					}
					for _, in := range b.Instrs {
						if name, ok := in.IsIntrinsicCall(); ok && name == svaops.ElideBounds && indexCell(in) != nil {
							l.elide, l.cell = in, indexCell(in)
							break
						}
					}
				}
				if l.elide != nil {
					out = append(out, l)
				}
			}
		}
	}
	return out
}

// injectBogusVersioning applies corruption seed%5 to versioned loop
// seed/5 (wrapping), each of which removes a premise of the verifier's R4
// proof.
func injectBogusVersioning(seed int, mods []*ir.Module) (string, bool) {
	if seed < 0 {
		return "", false
	}
	l, ok := pick(versionedLoops(mods), seed/5)
	if !ok {
		return "", false
	}
	at := fmt.Sprintf("@%s (test %s)", l.f.Nm, l.test.Ident())
	c := l.test.Args[2].(*ir.ConstInt)
	switch seed % 5 {
	case 0:
		// The test's end widened from n-1 to n.
		last, okl := l.test.Args[3].(*ir.Instr)
		if !okl || len(last.Args) != 2 {
			return "", false
		}
		l.test.Args[3] = last.Args[0]
		return "widened the range test's end from n-1 to n in " + at, true
	case 1:
		// The loop start lowered below the test's start.
		for _, b := range l.f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpStore || in.Args[1] != ir.Value(l.cell) {
					continue
				}
				if k, okk := in.Args[0].(*ir.ConstInt); okk && k.SignedValue() == c.SignedValue() {
					in.Args[0] = ir.I64c(c.SignedValue() - 1)
					return fmt.Sprintf("lowered the induction start %d -> %d below the range test's in %s",
						c.SignedValue(), c.SignedValue()-1, at), true
				}
			}
		}
	case 2:
		// An elision moved onto the fallback loop, outside the true edge.
		for _, b := range l.f.Blocks {
			if l.ev.dom.Dominates(l.fast, b) {
				continue
			}
			for _, in := range b.Instrs {
				if name, okc := in.IsIntrinsicCall(); okc && name == svaops.BoundsCheck &&
					in.Args[1] == l.elide.Args[1] && indexCell(in) == l.cell {
					in.Callee = svaops.Get(l.m, svaops.ElideBounds)
					return fmt.Sprintf("moved the elision of %s onto fallback check %s in %s",
						l.elide.Args[2].Ident(), in.Args[2].Ident(), at), true
				}
			}
		}
	case 3:
		// The fast loop's step changed from +1 to +2.
		for _, b := range l.f.Blocks {
			if !l.ev.dom.Dominates(l.fast, b) {
				continue
			}
			for _, in := range b.Instrs {
				if in.Op != ir.OpStore || in.Args[1] != ir.Value(l.cell) {
					continue
				}
				if add, oka := in.Args[0].(*ir.Instr); oka && add.Op == ir.OpAdd {
					for i, a := range add.Args {
						if k, okk := a.(*ir.ConstInt); okk && k.SignedValue() == 1 {
							add.Args[i] = ir.I64c(2)
							return "changed the fast loop's step from +1 to +2 in " + at, true
						}
					}
				}
			}
		}
	case 4:
		// A pool mutation inside the fast loop.
		blk := l.elide.Parent()
		_, i, _ := vsitePos(l.elide)
		drop := &ir.Instr{Op: ir.OpCall, Typ: ir.Void, Callee: svaops.Get(l.m, svaops.ObjDrop),
			Args: []ir.Value{l.elide.Args[0], l.elide.Args[1]}}
		old := blk.Instrs
		blk.Instrs = nil
		for k, in := range old {
			if k == i {
				blk.Append(drop)
			}
			blk.Append(in)
		}
		return fmt.Sprintf("inserted pchk.drop.obj before elided check %s in the fast loop of %s",
			l.elide.Args[2].Ident(), at), true
	}
	return "", false
}

// indexCell returns the alloca whose load indexes check's derived pointer
// (a one-index GEP), or nil.
func indexCell(check *ir.Instr) *ir.Instr {
	gep, ok := vstripPtrCasts(check.Args[2]).(*ir.Instr)
	if !ok || gep.Op != ir.OpGEP || len(gep.Args) != 2 {
		return nil
	}
	ld, ok := gep.Args[1].(*ir.Instr)
	if !ok || ld.Op != ir.OpLoad {
		return nil
	}
	if a, ok := ld.Args[0].(*ir.Instr); ok && a.Op == ir.OpAlloca {
		return a
	}
	return nil
}
