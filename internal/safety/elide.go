package safety

// Redundant run-time check elimination (paper §7.1.3, "eliminating
// redundant run-time checks").  The pass runs after instrumentation and
// rewrites a pchk.bounds / pchk.lscheck call into the corresponding
// pchk.elide.* annotation when the check is provably redundant.  Two rules
// are applied, and — critically for the §5 TCB argument — both are
// re-derived from scratch by the bytecode verifier (internal/typecheck),
// which rejects any elision it cannot prove itself.  This pass therefore
// stays outside the trusted computing base: a bug here yields either a
// verifier rejection or a program with more checks than necessary, never
// a missed check that the verifier accepted.
//
// Rule R1 (identical dominating check): a check on the same (metapool,
// canonical pointer value) pair dominates this one, and no instruction on
// any intervening path can mutate the pool's object set (pchk.drop.obj /
// pchk.reg.* on the pool, or any call that might allocate or free —
// conservatively, every call that is not a whitelisted side-effect-free
// intrinsic).  Canonical values strip pointer bitcasts (the instrumenter
// emits a fresh i8* view per check) and compare getelementptrs
// structurally, so the second check on a recomputed address of the same
// element is recognized.
//
// Rule R2 (guarded counted-loop index): a bounds check on a GEP whose
// array indices are each either statically bounded (the §7.1.3 masked
// idioms) or a load of a non-escaping integer stack slot that a dominating
// loop-header branch proves to be in [0, len).  This is the shape the IR
// builder's For loops produce (an alloca'd induction cell tested by
// icmp slt/ult against a constant limit) and covers the kernel's PID- and
// fd-table scan loops.  The cell discipline — every store is a
// non-negative constant initialization or a guarded constant-step
// increment, and the cell address never escapes — makes the guarded range
// sound without a general value-range analysis.

import (
	"fmt"

	"sva/internal/analysis"
	"sva/internal/ir"
	"sva/internal/svaops"
)

// elideStats attributes elisions to the rule that proved them (a site
// provable several ways counts for the first rule in R1 → R2 → R3 order).
type elideStats struct {
	BoundsR1, BoundsR2, BoundsR3 int
	LSR1                         int
	// checked lists the functions that keep an executed bounds check:
	// the only ones rule R4 can improve.
	checked []*ir.Function
}

func (s elideStats) bounds() int { return s.BoundsR1 + s.BoundsR2 + s.BoundsR3 }

// elideModule runs redundant-check elimination over every safety-compiled
// function of m, returning per-rule counts of bounds and load-store checks
// rewritten to pchk.elide.* annotations.  rangeElide toggles rule R3 (the
// R3 on/off equivalence suite and ablations).
func elideModule(m *ir.Module, rangeElide bool) (stats elideStats) {
	for _, f := range m.Funcs {
		if !f.SafetyCompiled {
			continue
		}
		fs := elideFunc(m, f, rangeElide)
		stats.BoundsR1 += fs.BoundsR1
		stats.BoundsR2 += fs.BoundsR2
		stats.BoundsR3 += fs.BoundsR3
		stats.LSR1 += fs.LSR1
		stats.checked = append(stats.checked, fs.checked...)
	}
	return
}

func elideFunc(m *ir.Module, f *ir.Function, rangeElide bool) (stats elideStats) {
	if len(f.Blocks) == 0 {
		return
	}
	ea := newElideAnalysis(f)
	// Walk blocks in reverse postorder: every dominator of a block comes
	// earlier, so all usable evidence has been recorded by the time a
	// check is considered.  Checks in unreachable blocks are never elided.
	for _, b := range ea.cfg.RPO {
		for i, in := range b.Instrs {
			name, ok := in.IsIntrinsicCall()
			if !ok {
				continue
			}
			switch name {
			case svaops.BoundsCheck:
				key, pool, keyed := ea.boundsKey(in)
				switch {
				case keyed && ea.provenByEvidence(key, pool, b, i):
					in.Callee = svaops.Get(m, svaops.ElideBounds)
					stats.BoundsR1++
				case ea.gepGuardSafe(in):
					in.Callee = svaops.Get(m, svaops.ElideBounds)
					stats.BoundsR2++
				case rangeElide && ea.gepRangeSafe(in):
					in.Callee = svaops.Get(m, svaops.ElideBounds)
					stats.BoundsR3++
				default:
					if len(stats.checked) == 0 {
						stats.checked = []*ir.Function{f}
					}
				}
				if keyed {
					ea.evidence[key] = append(ea.evidence[key], eviSite{b, i})
				}
			case svaops.LSCheck:
				key, pool, keyed := ea.lsKey(in)
				if keyed && ea.provenByEvidence(key, pool, b, i) {
					in.Callee = svaops.Get(m, svaops.ElideLS)
					stats.LSR1++
				}
				if keyed {
					ea.evidence[key] = append(ea.evidence[key], eviSite{b, i})
				}
			}
		}
	}
	return
}

// ---------------------------------------------------------------------------
// Shared analysis machinery.  The bytecode verifier re-implements this
// logic independently in internal/typecheck/elide.go; keep the two in
// behavioral lockstep (the verifier must prove at least everything this
// pass elides, and the TCB experiment relies on it proving nothing more).

type eviSite struct {
	b *ir.BasicBlock
	i int
}

type elideAnalysis struct {
	f   *ir.Function
	cfg *ir.CFG
	dom *ir.DomTree

	// evidence maps a canonical check key to the sites (in RPO walk
	// order) where that check — executed or already proven elidable — is
	// known to have passed.
	evidence map[string][]eviSite

	vns    map[ir.Value]string
	leafID map[ir.Value]int

	cells  map[*ir.Instr]*cellInfo
	guards map[*ir.Instr][]cellGuard

	// rng is the lazily built intraprocedural value-range analysis backing
	// rule R3 (vrange.go).
	rng *analysis.FuncRanges
}

// cellInfo is the discipline summary for one induction cell (an i64
// alloca used only through direct loads and stores).
type cellInfo struct {
	ok bool
	// initStores are stores of a non-negative constant; every load of the
	// cell must be dominated by one for the cell's content to be provably
	// non-negative.
	initStores []eviSite
	// incStores are `store (add (load cell), +C)` sites; each needs a live
	// guard at its operand load so the cell cannot overflow past the
	// signed range.
	incStores []*ir.Instr
	loads     []*ir.Instr
	// r4ok is the R4 discipline: no escape, every store a constant in
	// [0, cellLimitMax) or a +1 step from a load under a live unsigned
	// guard.  floor is then the least constant stored, which bounds the
	// content of every initialized load from below.
	r4ok  bool
	floor int64
}

// cellGuard is a loop-header branch `br (icmp slt|ult (load cell), n), T, F`
// in block h whose true edge proves content(cell) < n on entry to T.
type cellGuard struct {
	h, t *ir.BasicBlock
	pred ir.Pred
	n    ir.Value
	// limit is n's value when konst: n is a constant in (0, cellLimitMax).
	limit int64
	konst bool
}

// cellLimitMax bounds guard limits and initialization constants so that a
// guarded increment can never overflow int64 (limit + step < 2^62+2^32).
const cellLimitMax = int64(1) << 61

// cellStepMax bounds increment constants.
const cellStepMax = int64(1) << 31

func newElideAnalysis(f *ir.Function) *elideAnalysis {
	return &elideAnalysis{
		f:        f,
		cfg:      f.CFG(),
		dom:      f.DomTree(),
		evidence: map[string][]eviSite{},
		vns:      map[ir.Value]string{},
		leafID:   map[ir.Value]int{},
		cells:    map[*ir.Instr]*cellInfo{},
		guards:   map[*ir.Instr][]cellGuard{},
	}
}

// stripPtrCasts peels pointer-to-pointer bitcasts: the instrumenter emits
// a fresh i8* view of the checked pointer at every check site.
func stripPtrCasts(v ir.Value) ir.Value {
	for {
		in, ok := v.(*ir.Instr)
		if !ok || in.Op != ir.OpBitcast || !in.Typ.IsPointer() ||
			!in.Args[0].Type().IsPointer() {
			return v
		}
		v = in.Args[0]
	}
}

// vn returns a canonical value number for v: bitcasts are stripped,
// constants and globals compare by content, getelementptrs compare
// structurally (same base value, same base type, same index values), and
// everything else compares by SSA identity.
func (ea *elideAnalysis) vn(v ir.Value) string {
	v = stripPtrCasts(v)
	if s, ok := ea.vns[v]; ok {
		return s
	}
	var s string
	switch t := v.(type) {
	case *ir.ConstInt:
		s = fmt.Sprintf("ci%d:%d", t.Type().Bits(), t.SignedValue())
	case *ir.ConstNull:
		s = "null"
	case *ir.Global:
		s = "g:" + t.Nm
	case *ir.Function:
		s = "f:" + t.Nm
	case *ir.Instr:
		if t.Op == ir.OpGEP {
			// The base's static type fixes the scaling of each index, so
			// it must participate in the key alongside the index values.
			s = "gep:" + t.Args[0].Type().String()
			for _, a := range t.Args {
				s += "," + ea.vn(a)
			}
		} else {
			s = ea.leaf(v)
		}
	default:
		s = ea.leaf(v)
	}
	ea.vns[v] = s
	return s
}

func (ea *elideAnalysis) leaf(v ir.Value) string {
	id, ok := ea.leafID[v]
	if !ok {
		id = len(ea.leafID)
		ea.leafID[v] = id
	}
	return fmt.Sprintf("v%d", id)
}

// poolConst extracts the constant pool ID of a check call.
func poolConst(in *ir.Instr) (int64, bool) {
	c, ok := in.Args[0].(*ir.ConstInt)
	if !ok {
		return 0, false
	}
	return c.SignedValue(), true
}

func (ea *elideAnalysis) boundsKey(in *ir.Instr) (string, int64, bool) {
	mp, ok := poolConst(in)
	if !ok {
		return "", 0, false
	}
	return fmt.Sprintf("b:%d:%s:%s", mp, ea.vn(in.Args[1]), ea.vn(in.Args[2])), mp, true
}

func (ea *elideAnalysis) lsKey(in *ir.Instr) (string, int64, bool) {
	mp, ok := poolConst(in)
	if !ok {
		return "", 0, false
	}
	return fmt.Sprintf("l:%d:%s", mp, ea.vn(in.Args[1])), mp, true
}

// ---------------------------------------------------------------------------
// Rule R1: identical dominating check with mutation-free paths.

// provenByEvidence reports whether some recorded site for key dominates
// (b2,i2) with no pool mutation on any intervening path.
func (ea *elideAnalysis) provenByEvidence(key string, pool int64, b2 *ir.BasicBlock, i2 int) bool {
	sites := ea.evidence[key]
	for k := len(sites) - 1; k >= 0; k-- {
		e := sites[k]
		if e.b == b2 {
			if e.i < i2 && !ea.killIn(e.b, e.i+1, i2, pool) {
				return true
			}
			continue
		}
		if !ea.dom.Dominates(e.b, b2) {
			continue
		}
		if ea.killIn(e.b, e.i+1, len(e.b.Instrs), pool) {
			continue
		}
		if ok := ea.pathsClean(e.b, b2, i2, pool); ok {
			return true
		}
	}
	return false
}

// pathsClean checks every intervening block on walks from evidence block
// b1 to (b2,i2) that do not re-enter b1 (re-entering b1 re-establishes the
// fact, so only the suffix after the last visit of b1 matters).
func (ea *elideAnalysis) pathsClean(b1, b2 *ir.BasicBlock, i2 int, pool int64) bool {
	inter := interAvoid(ea.cfg, b1, b2)
	for x := range inter {
		if ea.killIn(x, 0, len(x.Instrs), pool) {
			return false
		}
	}
	// If b2 is not on a cycle back to itself avoiding b1, only its prefix
	// before the check matters (the full-block scan above covers the
	// cyclic case).
	if !inter[b2] && ea.killIn(b2, 0, i2, pool) {
		return false
	}
	return true
}

// killIn reports whether instructions [from, to) of b can mutate pool's
// object set.
func (ea *elideAnalysis) killIn(b *ir.BasicBlock, from, to int, pool int64) bool {
	for i := from; i < to && i < len(b.Instrs); i++ {
		if instrKills(b.Instrs[i], pool) {
			return true
		}
	}
	return false
}

// instrKills reports whether in can add or remove objects from pool.
// Registration and drop intrinsics kill their target pool; any call whose
// effects are unknown (non-intrinsic, or a state-manipulation intrinsic
// that may run other code) conservatively kills everything.
func instrKills(in *ir.Instr, pool int64) bool {
	if in.Op != ir.OpCall {
		return false
	}
	name, ok := in.IsIntrinsicCall()
	if !ok {
		return true // unknown callee: may allocate, free or re-register
	}
	switch name {
	case svaops.ObjRegister, svaops.ObjRegisterStack, svaops.ObjDrop:
		if mp, okc := poolConst(in); okc {
			return mp == pool
		}
		return true
	case svaops.BoundsCheck, svaops.LSCheck, svaops.ICCheck,
		svaops.GetBoundsLo, svaops.GetBoundsHi, svaops.BoundsTest, svaops.ExactCheck,
		svaops.ElideBounds, svaops.ElideLS,
		svaops.Memcpy, svaops.Memmove, svaops.Memset, svaops.Memcmp:
		// Checks only consult the object sets; the sva.mem* operations
		// move bytes but never (de)register objects.
		return false
	}
	return true // llva.* state ops may context-switch into arbitrary code
}

// interAvoid returns the blocks strictly between b1 and b2: reachable
// from a successor of b1 without passing through b1, and reaching b2
// through at least one edge without passing through b1.  b2 itself is in
// the set exactly when some cycle returns to it while avoiding b1.
func interAvoid(cfg *ir.CFG, b1, b2 *ir.BasicBlock) map[*ir.BasicBlock]bool {
	fwd := map[*ir.BasicBlock]bool{}
	var stack []*ir.BasicBlock
	for _, s := range cfg.Succs[b1] {
		if s != b1 && !fwd[s] {
			fwd[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range cfg.Succs[x] {
			if s != b1 && !fwd[s] {
				fwd[s] = true
				stack = append(stack, s)
			}
		}
	}
	bwd := map[*ir.BasicBlock]bool{}
	stack = stack[:0]
	for _, p := range cfg.Preds[b2] {
		if p != b1 && !bwd[p] {
			bwd[p] = true
			stack = append(stack, p)
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range cfg.Preds[x] {
			if p != b1 && !bwd[p] {
				bwd[p] = true
				stack = append(stack, p)
			}
		}
	}
	inter := map[*ir.BasicBlock]bool{}
	for x := range fwd {
		if bwd[x] {
			inter[x] = true
		}
	}
	return inter
}

// ---------------------------------------------------------------------------
// Rule R2: guarded counted-loop indexing.

// gepGuardSafe reports whether the bounds check's GEP stays within the
// static extent of its base under rule R2: first index zero, struct
// indices in-range constants, and every array index either statically
// bounded or proven in [0, len) by a live counted-loop guard.
func (ea *elideAnalysis) gepGuardSafe(check *ir.Instr) bool {
	g, ok := stripPtrCasts(check.Args[2]).(*ir.Instr)
	if !ok || g.Op != ir.OpGEP {
		return false
	}
	// The check must pair the GEP with its own base: the elision argument
	// is "derived stays within the static extent of base".
	if stripPtrCasts(check.Args[1]) != stripPtrCasts(g.Args[0]) {
		return false
	}
	cur := g.Args[0].Type().Elem()
	for k := 1; k < len(g.Args); k++ {
		idx := g.Args[k]
		if k == 1 {
			c, okc := idx.(*ir.ConstInt)
			if !okc || c.SignedValue() != 0 {
				return false
			}
			continue
		}
		switch cur.Kind() {
		case ir.ArrayKind:
			n := int64(cur.Len())
			if !indexBoundedBy(idx, n) && !ea.cellBound(idx, n) {
				return false
			}
			cur = cur.Elem()
		case ir.StructKind:
			c, okc := idx.(*ir.ConstInt)
			if !okc {
				return false
			}
			fi := c.SignedValue()
			if fi < 0 || fi >= int64(cur.NumFields()) {
				return false
			}
			cur = cur.Field(int(fi))
		default:
			return false
		}
	}
	return true
}

// cellBound reports whether idx is a load of a disciplined induction cell
// whose value some live guard proves to lie in [0, n).
func (ea *elideAnalysis) cellBound(idx ir.Value, n int64) bool {
	ld, ok := idx.(*ir.Instr)
	if !ok || ld.Op != ir.OpLoad {
		return false
	}
	cell, ok := ld.Args[0].(*ir.Instr)
	if !ok || cell.Op != ir.OpAlloca {
		return false
	}
	ci := ea.cellDiscipline(cell)
	if !ci.ok {
		return false
	}
	// Non-negativity: some constant initialization dominates this load.
	if !ea.initDominates(ci, ld) {
		return false
	}
	// Upper bound: a guard with limit <= n is live at the load.
	for _, g := range ea.cellGuards(cell) {
		if g.konst && g.limit <= n && ea.guardLiveAt(cell, g, ld) {
			return true
		}
	}
	return false
}

// sitePos locates an instruction within its parent block.
func sitePos(in *ir.Instr) (b *ir.BasicBlock, idx int, ok bool) {
	b = in.Parent()
	if b == nil {
		return nil, 0, false
	}
	for i, x := range b.Instrs {
		if x == in {
			return b, i, true
		}
	}
	return nil, 0, false
}

func (ea *elideAnalysis) initDominates(ci *cellInfo, ld *ir.Instr) bool {
	bL, iL, ok := sitePos(ld)
	if !ok {
		return false
	}
	for _, s := range ci.initStores {
		if s.b == bL && s.i < iL {
			return true
		}
		if s.b != bL && ea.dom.Dominates(s.b, bL) {
			return true
		}
	}
	return false
}

// guardLiveAt reports whether guard g's fact (content(cell) < limit on
// entry to g.t) still holds at the load: g.t dominates the load's block
// and no store to the cell appears on any path from the last entry of g.t
// to the load.  Every entry to g.t comes through the guard branch (g.t has
// a unique predecessor), so paths that revisit g.t re-establish the fact.
func (ea *elideAnalysis) guardLiveAt(cell *ir.Instr, g cellGuard, ld *ir.Instr) bool {
	bL, iL, ok := sitePos(ld)
	if !ok {
		return false
	}
	if !ea.dom.Dominates(g.t, bL) {
		return false
	}
	if g.t == bL {
		return !storeToCellIn(bL, 0, iL, cell)
	}
	if storeToCellIn(g.t, 0, len(g.t.Instrs), cell) {
		return false
	}
	inter := interAvoid(ea.cfg, g.t, bL)
	for x := range inter {
		if storeToCellIn(x, 0, len(x.Instrs), cell) {
			return false
		}
	}
	if !inter[bL] && storeToCellIn(bL, 0, iL, cell) {
		return false
	}
	return true
}

func storeToCellIn(b *ir.BasicBlock, from, to int, cell *ir.Instr) bool {
	for i := from; i < to && i < len(b.Instrs); i++ {
		in := b.Instrs[i]
		if in.Op == ir.OpStore && in.Args[1] == ir.Value(cell) {
			return true
		}
	}
	return false
}

// cellDiscipline classifies cell's uses and stores; memoized.  It settles
// both the R2 discipline (ok) and the R4 one (r4ok, floor).
func (ea *elideAnalysis) cellDiscipline(cell *ir.Instr) *cellInfo {
	if ci, ok := ea.cells[cell]; ok {
		return ci
	}
	ci := &cellInfo{}
	ea.cells[cell] = ci
	if cell.AllocTy != ir.I64 || len(cell.Args) != 0 {
		return ci
	}
	// Escape analysis: the cell address may only feed direct loads,
	// direct stores (as the address), and the i8* cast the instrumenter
	// passes to stack registration.
	for _, b := range ea.f.Blocks {
		for _, in := range b.Instrs {
			for ai, a := range in.Args {
				if a != ir.Value(cell) {
					continue
				}
				switch {
				case in.Op == ir.OpLoad && ai == 0:
					ci.loads = append(ci.loads, in)
				case in.Op == ir.OpStore && ai == 1:
					// classified below
				case in.Op == ir.OpBitcast && registrationOnly(ea.f, in):
				default:
					return ci // escapes
				}
			}
			if in.Callee == ir.Value(cell) {
				return ci
			}
		}
	}
	// Store discipline: constant non-negative initializations or guarded
	// constant-step increments.
	unit := true
	ci.floor = cellLimitMax
	for _, b := range ea.f.Blocks {
		for i, in := range b.Instrs {
			if in.Op != ir.OpStore || in.Args[1] != ir.Value(cell) {
				continue
			}
			if c, okc := in.Args[0].(*ir.ConstInt); okc {
				if sv := c.SignedValue(); sv >= 0 && sv < cellLimitMax {
					ci.initStores = append(ci.initStores, eviSite{b, i})
					ci.floor = min(ci.floor, sv)
					continue
				}
				return ci
			}
			if ld, step := incrementOf(in.Args[0], cell); ld != nil {
				ci.incStores = append(ci.incStores, ld)
				unit = unit && step == 1
				continue
			}
			return ci
		}
	}
	// R2 overflow freedom: each increment's operand load must itself be
	// under some constant guard (so the written value stays far below
	// 2^63).
	ci.ok = ea.incrementsGuarded(cell, ci, func(g cellGuard) bool { return g.konst })
	// R4 monotonicity: every step is +1 from a load under a live unsigned
	// guard `x <u n` (any n), so x+1 <= n-1+1 cannot wrap and the content
	// never drops below the least constant stored.
	ci.r4ok = unit && ea.incrementsGuarded(cell, ci, func(g cellGuard) bool { return g.pred == ir.PredULT })
	return ci
}

// incrementsGuarded reports whether every increment's operand load of
// cell is under a live guard accepted by use.
func (ea *elideAnalysis) incrementsGuarded(cell *ir.Instr, ci *cellInfo, use func(cellGuard) bool) bool {
	for _, ld := range ci.incStores {
		bounded := false
		for _, g := range ea.cellGuards(cell) {
			if use(g) && ea.guardLiveAt(cell, g, ld) {
				bounded = true
				break
			}
		}
		if !bounded {
			return false
		}
	}
	return true
}

// incrementOf matches `add (load cell), C` (either operand order) with
// 0 < C <= cellStepMax, returning the load and C.
func incrementOf(v ir.Value, cell *ir.Instr) (*ir.Instr, int64) {
	add, ok := v.(*ir.Instr)
	if !ok || add.Op != ir.OpAdd {
		return nil, 0
	}
	var ld *ir.Instr
	var c *ir.ConstInt
	for _, a := range add.Args {
		if in, oki := a.(*ir.Instr); oki && in.Op == ir.OpLoad && in.Args[0] == ir.Value(cell) {
			ld = in
		} else if cc, okc := a.(*ir.ConstInt); okc {
			c = cc
		}
	}
	if ld == nil || c == nil {
		return nil, 0
	}
	sv := c.SignedValue()
	if sv <= 0 || sv > cellStepMax {
		return nil, 0
	}
	return ld, sv
}

// registrationOnly reports whether every use of cast is as the pointer
// operand of a stack-registration or drop intrinsic.
func registrationOnly(f *ir.Function, cast *ir.Instr) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for ai, a := range in.Args {
				if a != ir.Value(cast) {
					continue
				}
				name, ok := in.IsIntrinsicCall()
				if !ok || ai != 1 || (name != svaops.ObjRegisterStack && name != svaops.ObjDrop) {
					return false
				}
			}
			if in.Callee == ir.Value(cast) {
				return false
			}
		}
	}
	return true
}

// cellGuards collects the loop-header branches guarding cell: a block
// terminated by `condbr (icmp slt|ult (load cell), L), T, F` where the
// compared load reads the cell in the same block with no intervening
// store, T != F, and T's unique predecessor is the guarding block (so
// every entry to T carries the fact).  R2 uses the guards whose limit is
// an in-range constant (konst); R4 uses the unsigned ones with any limit.
func (ea *elideAnalysis) cellGuards(cell *ir.Instr) []cellGuard {
	if gs, ok := ea.guards[cell]; ok {
		return gs
	}
	var gs []cellGuard
	for _, h := range ea.f.Blocks {
		if len(h.Instrs) == 0 {
			continue
		}
		br := h.Instrs[len(h.Instrs)-1]
		if br.Op != ir.OpCondBr || len(br.Blocks) != 2 || br.Blocks[0] == br.Blocks[1] {
			continue
		}
		cmp, ok := br.Args[0].(*ir.Instr)
		if !ok || cmp.Op != ir.OpICmp || (cmp.Pred != ir.PredSLT && cmp.Pred != ir.PredULT) {
			continue
		}
		ld, ok := cmp.Args[0].(*ir.Instr)
		if !ok || ld.Op != ir.OpLoad || ld.Args[0] != ir.Value(cell) {
			continue
		}
		g := cellGuard{h: h, t: br.Blocks[0], pred: cmp.Pred, n: cmp.Args[1]}
		if c, okc := cmp.Args[1].(*ir.ConstInt); okc {
			g.limit = c.SignedValue()
			g.konst = g.limit > 0 && g.limit < cellLimitMax
		}
		if !g.konst && g.pred != ir.PredULT {
			continue
		}
		// The compared load must read the cell in this block with no
		// store in between, so the fact talks about the branch-time
		// content.
		bL, iL, okp := sitePos(ld)
		if !okp || bL != h || storeToCellIn(h, iL+1, len(h.Instrs), cell) {
			continue
		}
		if preds := ea.cfg.Preds[g.t]; len(preds) != 1 || preds[0] != h {
			continue
		}
		gs = append(gs, g)
	}
	ea.guards[cell] = gs
	return gs
}

// ---------------------------------------------------------------------------
// Rule R4: loop-versioned bounds checks.
//
// A loop `while (load j <u n) { ... pchk.bounds(base, gep i8* base, load j) ... }`
// whose bound n comes from untrusted data defeats R1–R3: no dominating
// check, constant guard or interval covers base+j.  Classic loop
// versioning (Gupta, LOPLAS 1993) hoists one range test instead:
//
//	pre:    ...; cc = icmp ult c, n; condbr cc, r4.test, H
//	r4.test: ok = pchk.bounds.test(pool, base, c, n-1); condbr ok, H.r4, H
//	H.r4 ...: a copy of the loop whose versioned checks are pchk.elide.bounds
//	H ...:    the original loop, every check in place
//
// where c is the least constant ever stored to the induction cell j (the
// cell's R4 discipline makes j >= c at every initialized load) and the
// header's own test keeps j <u n.  Objects are contiguous, so a passing
// test covers base+j for every j in [c, n).  A failing test, or c >= n,
// runs the original loop unchanged, so the trap point, trap cycle and
// partial side effects under a hostile n are exactly those of the checked
// program.  The loop must contain no pool mutation or unknown call (the
// instrKills rule), so the test's answer still holds at every copied
// check; like R1, this assumes no other VCPU drops the object meanwhile.

// r4Loop is one loop the R4 rewrite versions.
type r4Loop struct {
	pre   *ir.BasicBlock // unique outside predecessor, ends `br head`
	head  *ir.BasicBlock
	body  []*ir.BasicBlock // loop blocks in function order
	n     ir.Value         // exit-test bound
	c     int64            // cell floor: least start value
	pool  int64
	base  ir.Value    // i8* base the versioned checks index from
	sites []*ir.Instr // pchk.bounds calls to elide in the copy
	inner map[*ir.BasicBlock]bool
}

// versionLoops applies rule R4 to funcs, the functions of m that keep an
// executed bounds check after R1–R3, returning the number of checks given
// an elided twin.
func versionLoops(m *ir.Module, funcs []*ir.Function) (versioned int) {
	for _, f := range funcs {
		versioned += versionFunc(m, f)
	}
	return
}

func versionFunc(m *ir.Module, f *ir.Function) int {
	ea := newElideAnalysis(f)
	// Candidates are found on the unmodified function; only pairwise
	// disjoint ones (loop plus preheader) are rewritten, innermost first
	// (reverse RPO visits inner headers before outer ones), so no rewrite
	// invalidates another's analysis.
	var loops []*r4Loop
	claimed := map[*ir.BasicBlock]bool{}
	for k := len(ea.cfg.RPO) - 1; k >= 0; k-- {
		l := ea.r4Candidate(ea.cfg.RPO[k])
		if l == nil || claimed[l.pre] {
			continue
		}
		clash := false
		for b := range l.inner {
			clash = clash || claimed[b]
		}
		if clash {
			continue
		}
		claimed[l.pre] = true
		for b := range l.inner {
			claimed[b] = true
		}
		loops = append(loops, l)
	}
	n := 0
	for _, l := range loops {
		n += versionLoop(m, f, l)
	}
	if len(loops) > 0 {
		f.InvalidateCFG()
		f.Renumber()
	}
	return n
}

// r4Candidate matches the loop headed by h against rule R4's shape,
// returning nil when it does not apply.
func (ea *elideAnalysis) r4Candidate(h *ir.BasicBlock) *r4Loop {
	br := h.Terminator()
	if br == nil || br.Op != ir.OpCondBr {
		return nil
	}
	cmp, ok := br.Args[0].(*ir.Instr)
	if !ok || cmp.Op != ir.OpICmp || cmp.Pred != ir.PredULT {
		return nil
	}
	ld, ok := cmp.Args[0].(*ir.Instr)
	if !ok || ld.Op != ir.OpLoad {
		return nil
	}
	cell, ok := ld.Args[0].(*ir.Instr)
	if !ok || cell.Op != ir.OpAlloca {
		return nil
	}
	var guard *cellGuard
	for _, g := range ea.cellGuards(cell) {
		if g.h == h && g.pred == ir.PredULT {
			guard = &g
			break
		}
	}
	if guard == nil {
		return nil
	}
	inner := naturalLoop(ea.cfg, ea.dom, h)
	if inner == nil || !inner[guard.t] || inner[br.Blocks[1]] || definedIn(guard.n, inner) {
		return nil
	}
	var pre *ir.BasicBlock
	for _, p := range ea.cfg.Preds[h] {
		if inner[p] {
			continue
		}
		if pre != nil {
			return nil
		}
		pre = p
	}
	if pre == nil || pre.Terminator().Op != ir.OpBr {
		return nil
	}
	ci := ea.cellDiscipline(cell)
	if !ci.r4ok {
		return nil
	}
	l := &r4Loop{pre: pre, head: h, n: guard.n, c: ci.floor, inner: inner}
	for _, b := range ea.f.Blocks {
		if !inner[b] {
			continue
		}
		l.body = append(l.body, b)
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				return nil // the copy would need merged incoming edges
			}
			if in.Op.IsTerminator() {
				for _, s := range in.Blocks {
					if !inner[s] && len(s.Instrs) > 0 && s.Instrs[0].Op == ir.OpPhi {
						return nil
					}
				}
			}
			if name, okc := in.IsIntrinsicCall(); okc && name == svaops.BoundsCheck {
				ea.r4Site(l, cell, ci, guard, in)
			}
		}
	}
	if len(l.sites) == 0 {
		return nil
	}
	for _, b := range l.body {
		if ea.killIn(b, 0, len(b.Instrs), l.pool) {
			return nil
		}
	}
	return l
}

// r4Site adds check to l's sites when it indexes i8* base by a load of the
// induction cell under the exit test, with base fixed outside the loop.
// The first matching site fixes the loop's (pool, base) pair.
func (ea *elideAnalysis) r4Site(l *r4Loop, cell *ir.Instr, ci *cellInfo, guard *cellGuard, check *ir.Instr) {
	mp, ok := poolConst(check)
	if !ok {
		return
	}
	g, ok := stripPtrCasts(check.Args[2]).(*ir.Instr)
	if !ok || g.Op != ir.OpGEP || len(g.Args) != 2 || g.Args[0].Type() != svaops.BytePtr {
		return
	}
	base := g.Args[0]
	if stripPtrCasts(check.Args[1]) != stripPtrCasts(base) || definedIn(base, l.inner) {
		return
	}
	if l.base != nil && (base != l.base || mp != l.pool) {
		return
	}
	idx, ok := g.Args[1].(*ir.Instr)
	if !ok || idx.Op != ir.OpLoad || idx.Args[0] != ir.Value(cell) ||
		!ea.initDominates(ci, idx) || !ea.guardLiveAt(cell, *guard, idx) {
		return
	}
	l.base, l.pool = base, mp
	l.sites = append(l.sites, check)
}

// versionLoop performs the R4 rewrite of one loop, returning the number
// of checks elided in the fast copy.
func versionLoop(m *ir.Module, f *ir.Function, l *r4Loop) int {
	copies := ir.CloneBlocks(l.body, ".r4")
	byOrig := map[*ir.Instr]bool{}
	for _, s := range l.sites {
		byOrig[s] = true
	}
	for _, b := range l.body {
		nb := copies[b]
		for i, in := range b.Instrs {
			if byOrig[in] {
				nb.Instrs[i].Callee = svaops.Get(m, svaops.ElideBounds)
			}
		}
	}
	// pre: replace `br head` by the c <u n guard.
	c := ir.I64c(l.c)
	test := f.NewBlock(l.head.Nm + ".r4test")
	pre := l.pre
	pre.Instrs = pre.Instrs[:len(pre.Instrs)-1]
	cc := pre.Append(&ir.Instr{Op: ir.OpICmp, Typ: ir.I1, Pred: ir.PredULT, Args: []ir.Value{c, l.n}})
	pre.Append(&ir.Instr{Op: ir.OpCondBr, Typ: ir.Void, Args: []ir.Value{cc}, Blocks: []*ir.BasicBlock{test, l.head}})
	// r4.test: one range query for the whole loop.
	last := test.Append(&ir.Instr{Op: ir.OpSub, Typ: ir.I64, Args: []ir.Value{l.n, ir.I64c(1)}})
	ok := test.Append(&ir.Instr{Op: ir.OpCall, Typ: ir.I1, Callee: svaops.Get(m, svaops.BoundsTest),
		Args: []ir.Value{ir.I32c(l.pool), l.base, c, last}})
	test.Append(&ir.Instr{Op: ir.OpCondBr, Typ: ir.Void, Args: []ir.Value{ok}, Blocks: []*ir.BasicBlock{copies[l.head], l.head}})
	return len(l.sites)
}

// naturalLoop returns the blocks of the loop headed by h: h plus every
// block that reaches a latch (a predecessor of h that h dominates) without
// passing through h.  It returns nil when h heads no loop.
func naturalLoop(cfg *ir.CFG, dom *ir.DomTree, h *ir.BasicBlock) map[*ir.BasicBlock]bool {
	var stack []*ir.BasicBlock
	for _, p := range cfg.Preds[h] {
		if dom.Dominates(h, p) {
			stack = append(stack, p)
		}
	}
	if len(stack) == 0 {
		return nil
	}
	loop := map[*ir.BasicBlock]bool{h: true}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if loop[x] || !dom.Dominates(h, x) {
			continue
		}
		loop[x] = true
		stack = append(stack, cfg.Preds[x]...)
	}
	return loop
}

// definedIn reports whether v is an instruction of one of blocks.
func definedIn(v ir.Value, blocks map[*ir.BasicBlock]bool) bool {
	in, ok := v.(*ir.Instr)
	return ok && blocks[in.Parent()]
}

// ---------------------------------------------------------------------------
// Rule R5: exact checks for global-based bounds checks.
//
// A bounds check whose source pointer, after pointer casts, is a global
// that registerGlobals registered in the check's own pool needs no
// metapool lookup: the object containing the source is the global itself,
// [g, g+sizeof g).  The check becomes pchk.exact(pool, src, derived, size),
// an inline range compare — SAFECode's exactcheck (Dhurjati and Adve, ICSE
// 2006).  The verifier re-derives the global, its pool and its size.

// exactChecks applies rule R5 to every executed bounds check of m,
// returning the number of checks retargeted.  globals maps each registered
// global to its pool.
func exactChecks(m *ir.Module, globals map[*ir.Global]int) (n int) {
	if len(globals) == 0 {
		return 0
	}
	var layout ir.Layout
	for _, f := range m.Funcs {
		if !f.SafetyCompiled {
			continue
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if name, ok := in.IsIntrinsicCall(); !ok || name != svaops.BoundsCheck {
					continue
				}
				g, ok := stripPtrCasts(in.Args[1]).(*ir.Global)
				if !ok {
					continue
				}
				mp, ok := poolConst(in)
				if pool, reg := globals[g]; !ok || !reg || int64(pool) != mp {
					continue
				}
				// A zero-size global registers an empty range that no
				// lookup finds; leave its check to the lookup.
				size := layout.Size(g.ValueType)
				if size <= 0 {
					continue
				}
				in.Callee = svaops.Get(m, svaops.ExactCheck)
				in.Args = []ir.Value{in.Args[0], in.Args[1], in.Args[2], ir.I64c(size)}
				n++
			}
		}
	}
	return n
}
