package typecheck

// Elision verification (paper §5 discipline applied to §7.1.3's redundant
// run-time check elimination).  The optimizing pass in internal/safety is
// NOT trusted: every pchk.elide.bounds / pchk.elide.ls annotation it
// emits is re-proved here from scratch — dominance, mutation-freedom and
// the counted-loop guard discipline are all re-derived from the bytecode
// alone — and any elision the checker cannot prove is rejected.  The
// rules are deliberately a re-implementation, not an import, of the
// optimizer's logic: the pass stays outside the TCB, and the code below
// is what actually vouches for every missing check.
//
// Rule R1 (identical dominating check): a check — executed or itself a
// verified elision — on the same (pool, canonical pointer) pair dominates
// the annotation, and no path in between contains an instruction that
// could mutate the pool's object set (pchk.reg.* / pchk.drop.obj on the
// pool, or any call that is not a whitelisted effect-free intrinsic).
//
// Rule R2 (guarded counted-loop index): the elided bounds check covers a
// GEP pairing a base with a derived pointer inside the base's static
// extent: first index zero, constant in-range struct fields, and array
// indices either statically bounded or loads of a disciplined induction
// cell proven in [0, len) by a live loop-header guard.
//
// Rule R3 (value-range proven indices): like R2 but the index bounds come
// from an interval abstract interpretation over the function's SSA values
// (branch-refined ranges, urem/and-mask transfers); see vrange.go.
//
// Rule R4 (loop-versioned checks): the elided check indexes an i8* base by
// a load of an induction cell whose every store is a constant >= c or a +1
// step under an unsigned guard, under a live exit test `j <u n`; and the
// last pchk.bounds.test before it, entered only through a `c <u n` guard,
// asked for base+c .. base+n-1 in base's object and took its true edge,
// with no kill and no recomputation of n or base since.

import (
	"fmt"

	"sva/internal/ir"
	"sva/internal/svaops"
)

type elideSite struct {
	b *ir.BasicBlock
	i int
}

type elideVerifier struct {
	f   *ir.Function
	cfg *ir.CFG
	dom *ir.DomTree

	evidence map[string][]elideSite

	vns    map[ir.Value]string
	leafID map[ir.Value]int

	cells  map[*ir.Instr]*vcellInfo
	guards map[*ir.Instr][]vcellGuard

	// rng is the lazily-built value-range analysis for rule R3 (vrange.go).
	rng *vRanges
	// tests lists the blocks branching on a pchk.bounds.test (rule R4).
	tests *[]*ir.BasicBlock
}

type vcellInfo struct {
	ok         bool
	initStores []elideSite
	incStores  []*ir.Instr
	loads      []*ir.Instr
	// r4ok: every store is a constant in [0, 2^61) or a +1 step from a
	// load under a live unsigned guard, so no initialized load reads
	// less than floor, the least constant stored.
	r4ok  bool
	floor int64
}

// vcellGuard is `condbr (icmp slt|ult (load cell), n), t, _` ending block
// h; limit is n when konst (a constant in (0, 2^61)).
type vcellGuard struct {
	h, t  *ir.BasicBlock
	pred  ir.Pred
	n     ir.Value
	limit int64
	konst bool
}

const (
	vcellLimitMax = int64(1) << 61
	vcellStepMax  = int64(1) << 31
)

// checkElisions re-derives every elision annotation in f, failing those
// that cannot be proved.
func (c *Checker) checkElisions(f *ir.Function) {
	if len(f.Blocks) == 0 {
		return
	}
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
	inRPO := map[*ir.BasicBlock]bool{}
	for _, b := range ev.cfg.RPO {
		inRPO[b] = true
	}
	// Reverse-postorder walk: dominators precede their subtree, so all
	// evidence usable at a site has been recorded (and, for elisions,
	// verified) before the site is reached.
	for _, b := range ev.cfg.RPO {
		for i, in := range b.Instrs {
			name, ok := in.IsIntrinsicCall()
			if !ok {
				continue
			}
			switch name {
			case svaops.BoundsCheck, svaops.ExactCheck:
				// A verified exact check (rule R5) decides the same fact
				// as the bounds check it replaced.
				if key, _, keyed := ev.boundsKey(in); keyed {
					ev.evidence[key] = append(ev.evidence[key], elideSite{b, i})
				}
			case svaops.LSCheck:
				if key, _, keyed := ev.lsKey(in); keyed {
					ev.evidence[key] = append(ev.evidence[key], elideSite{b, i})
				}
			case svaops.ElideBounds:
				key, pool, keyed := ev.boundsKey(in)
				if (keyed && ev.provenByEvidence(key, pool, b, i)) || ev.gepGuardSafe(in) || ev.gepRangeSafe(in) ||
					ev.gepVersionSafe(in, b, i) {
					if keyed {
						ev.evidence[key] = append(ev.evidence[key], elideSite{b, i})
					}
				} else {
					c.fail(f, "elision", "cannot re-derive elided bounds check on %s (no dominating check, guard, range or versioning proof)",
						in.Args[2].Ident())
				}
			case svaops.ElideLS:
				key, pool, keyed := ev.lsKey(in)
				if keyed && ev.provenByEvidence(key, pool, b, i) {
					ev.evidence[key] = append(ev.evidence[key], elideSite{b, i})
				} else {
					c.fail(f, "elision", "cannot re-derive elided load-store check on %s (no dominating check)",
						in.Args[1].Ident())
				}
			}
		}
	}
	// An elision in an unreachable block was never visited above; the
	// optimizer cannot justify it, so reject it outright.
	for _, b := range f.Blocks {
		if inRPO[b] {
			continue
		}
		for _, in := range b.Instrs {
			if name, ok := in.IsIntrinsicCall(); ok &&
				(name == svaops.ElideBounds || name == svaops.ElideLS) {
				c.fail(f, "elision", "elided check in unreachable block %s", b.Nm)
			}
		}
	}
}

func vstripPtrCasts(v ir.Value) ir.Value {
	for {
		in, ok := v.(*ir.Instr)
		if !ok || in.Op != ir.OpBitcast || !in.Typ.IsPointer() ||
			!in.Args[0].Type().IsPointer() {
			return v
		}
		v = in.Args[0]
	}
}

func (ev *elideVerifier) vn(v ir.Value) string {
	v = vstripPtrCasts(v)
	if s, ok := ev.vns[v]; ok {
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
			s = "gep:" + t.Args[0].Type().String()
			for _, a := range t.Args {
				s += "," + ev.vn(a)
			}
		} else {
			s = ev.leaf(v)
		}
	default:
		s = ev.leaf(v)
	}
	ev.vns[v] = s
	return s
}

func (ev *elideVerifier) leaf(v ir.Value) string {
	id, ok := ev.leafID[v]
	if !ok {
		id = len(ev.leafID)
		ev.leafID[v] = id
	}
	return fmt.Sprintf("v%d", id)
}

func vpoolConst(in *ir.Instr) (int64, bool) {
	c, ok := in.Args[0].(*ir.ConstInt)
	if !ok {
		return 0, false
	}
	return c.SignedValue(), true
}

func (ev *elideVerifier) boundsKey(in *ir.Instr) (string, int64, bool) {
	mp, ok := vpoolConst(in)
	if !ok {
		return "", 0, false
	}
	return fmt.Sprintf("b:%d:%s:%s", mp, ev.vn(in.Args[1]), ev.vn(in.Args[2])), mp, true
}

func (ev *elideVerifier) lsKey(in *ir.Instr) (string, int64, bool) {
	mp, ok := vpoolConst(in)
	if !ok {
		return "", 0, false
	}
	return fmt.Sprintf("l:%d:%s", mp, ev.vn(in.Args[1])), mp, true
}

func (ev *elideVerifier) provenByEvidence(key string, pool int64, b2 *ir.BasicBlock, i2 int) bool {
	sites := ev.evidence[key]
	for k := len(sites) - 1; k >= 0; k-- {
		e := sites[k]
		if e.b == b2 {
			if e.i < i2 && !ev.killIn(e.b, e.i+1, i2, pool) {
				return true
			}
			continue
		}
		if !ev.dom.Dominates(e.b, b2) {
			continue
		}
		if ev.killIn(e.b, e.i+1, len(e.b.Instrs), pool) {
			continue
		}
		if ev.pathsClean(e.b, b2, i2, pool) {
			return true
		}
	}
	return false
}

func (ev *elideVerifier) pathsClean(b1, b2 *ir.BasicBlock, i2 int, pool int64) bool {
	inter := vinterAvoid(ev.cfg, b1, b2)
	for x := range inter {
		if ev.killIn(x, 0, len(x.Instrs), pool) {
			return false
		}
	}
	if !inter[b2] && ev.killIn(b2, 0, i2, pool) {
		return false
	}
	return true
}

func (ev *elideVerifier) killIn(b *ir.BasicBlock, from, to int, pool int64) bool {
	for i := from; i < to && i < len(b.Instrs); i++ {
		if vinstrKills(b.Instrs[i], pool) {
			return true
		}
	}
	return false
}

func vinstrKills(in *ir.Instr, pool int64) bool {
	if in.Op != ir.OpCall {
		return false
	}
	name, ok := in.IsIntrinsicCall()
	if !ok {
		return true
	}
	switch name {
	case svaops.ObjRegister, svaops.ObjRegisterStack, svaops.ObjDrop:
		if mp, okc := vpoolConst(in); okc {
			return mp == pool
		}
		return true
	case svaops.BoundsCheck, svaops.LSCheck, svaops.ICCheck,
		svaops.GetBoundsLo, svaops.GetBoundsHi, svaops.BoundsTest, svaops.ExactCheck,
		svaops.ElideBounds, svaops.ElideLS,
		svaops.Memcpy, svaops.Memmove, svaops.Memset, svaops.Memcmp:
		return false
	}
	return true
}

func vinterAvoid(cfg *ir.CFG, b1, b2 *ir.BasicBlock) map[*ir.BasicBlock]bool {
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

func (ev *elideVerifier) gepGuardSafe(check *ir.Instr) bool {
	g, ok := vstripPtrCasts(check.Args[2]).(*ir.Instr)
	if !ok || g.Op != ir.OpGEP {
		return false
	}
	if vstripPtrCasts(check.Args[1]) != vstripPtrCasts(g.Args[0]) {
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
			if !indexBounded(idx, n) && !ev.cellBound(idx, n) {
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

func (ev *elideVerifier) cellBound(idx ir.Value, n int64) bool {
	ld, ok := idx.(*ir.Instr)
	if !ok || ld.Op != ir.OpLoad {
		return false
	}
	cell, ok := ld.Args[0].(*ir.Instr)
	if !ok || cell.Op != ir.OpAlloca {
		return false
	}
	ci := ev.cellDiscipline(cell)
	if !ci.ok {
		return false
	}
	if !ev.initDominates(ci, ld) {
		return false
	}
	for _, g := range ev.cellGuards(cell) {
		if g.konst && g.limit <= n && ev.guardLiveAt(cell, g, ld) {
			return true
		}
	}
	return false
}

func vsitePos(in *ir.Instr) (b *ir.BasicBlock, idx int, ok bool) {
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

func (ev *elideVerifier) initDominates(ci *vcellInfo, ld *ir.Instr) bool {
	bL, iL, ok := vsitePos(ld)
	if !ok {
		return false
	}
	for _, s := range ci.initStores {
		if s.b == bL && s.i < iL {
			return true
		}
		if s.b != bL && ev.dom.Dominates(s.b, bL) {
			return true
		}
	}
	return false
}

func (ev *elideVerifier) guardLiveAt(cell *ir.Instr, g vcellGuard, ld *ir.Instr) bool {
	bL, iL, ok := vsitePos(ld)
	if !ok {
		return false
	}
	if !ev.dom.Dominates(g.t, bL) {
		return false
	}
	if g.t == bL {
		return !vstoreToCellIn(bL, 0, iL, cell)
	}
	if vstoreToCellIn(g.t, 0, len(g.t.Instrs), cell) {
		return false
	}
	inter := vinterAvoid(ev.cfg, g.t, bL)
	for x := range inter {
		if vstoreToCellIn(x, 0, len(x.Instrs), cell) {
			return false
		}
	}
	if !inter[bL] && vstoreToCellIn(bL, 0, iL, cell) {
		return false
	}
	return true
}

func vstoreToCellIn(b *ir.BasicBlock, from, to int, cell *ir.Instr) bool {
	for i := from; i < to && i < len(b.Instrs); i++ {
		in := b.Instrs[i]
		if in.Op == ir.OpStore && in.Args[1] == ir.Value(cell) {
			return true
		}
	}
	return false
}

func (ev *elideVerifier) cellDiscipline(cell *ir.Instr) *vcellInfo {
	if ci, ok := ev.cells[cell]; ok {
		return ci
	}
	ci := &vcellInfo{}
	ev.cells[cell] = ci
	if cell.AllocTy != ir.I64 || len(cell.Args) != 0 {
		return ci
	}
	for _, b := range ev.f.Blocks {
		for _, in := range b.Instrs {
			for ai, a := range in.Args {
				if a != ir.Value(cell) {
					continue
				}
				switch {
				case in.Op == ir.OpLoad && ai == 0:
					ci.loads = append(ci.loads, in)
				case in.Op == ir.OpStore && ai == 1:
				case in.Op == ir.OpBitcast && vregistrationOnly(ev.f, in):
				default:
					return ci
				}
			}
			if in.Callee == ir.Value(cell) {
				return ci
			}
		}
	}
	unit := true
	ci.floor = vcellLimitMax
	for _, b := range ev.f.Blocks {
		for i, in := range b.Instrs {
			if in.Op != ir.OpStore || in.Args[1] != ir.Value(cell) {
				continue
			}
			if c, okc := in.Args[0].(*ir.ConstInt); okc {
				if sv := c.SignedValue(); sv >= 0 && sv < vcellLimitMax {
					ci.initStores = append(ci.initStores, elideSite{b, i})
					ci.floor = min(ci.floor, sv)
					continue
				}
				return ci
			}
			if ld, step := vincrementOf(in.Args[0], cell); ld != nil {
				ci.incStores = append(ci.incStores, ld)
				unit = unit && step == 1
				continue
			}
			return ci
		}
	}
	ci.ok = ev.incrementsGuarded(cell, ci, func(g vcellGuard) bool { return g.konst })
	ci.r4ok = unit && ev.incrementsGuarded(cell, ci, func(g vcellGuard) bool { return g.pred == ir.PredULT })
	return ci
}

func (ev *elideVerifier) incrementsGuarded(cell *ir.Instr, ci *vcellInfo, use func(vcellGuard) bool) bool {
	for _, ld := range ci.incStores {
		bounded := false
		for _, g := range ev.cellGuards(cell) {
			if use(g) && ev.guardLiveAt(cell, g, ld) {
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

func vincrementOf(v ir.Value, cell *ir.Instr) (*ir.Instr, int64) {
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
	if sv <= 0 || sv > vcellStepMax {
		return nil, 0
	}
	return ld, sv
}

func vregistrationOnly(f *ir.Function, cast *ir.Instr) bool {
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

func (ev *elideVerifier) cellGuards(cell *ir.Instr) []vcellGuard {
	if gs, ok := ev.guards[cell]; ok {
		return gs
	}
	var gs []vcellGuard
	for _, h := range ev.f.Blocks {
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
		g := vcellGuard{h: h, t: br.Blocks[0], pred: cmp.Pred, n: cmp.Args[1]}
		if c, okc := cmp.Args[1].(*ir.ConstInt); okc {
			g.limit = c.SignedValue()
			g.konst = g.limit > 0 && g.limit < vcellLimitMax
		}
		if !g.konst && g.pred != ir.PredULT {
			continue
		}
		bL, iL, okp := vsitePos(ld)
		if !okp || bL != h || vstoreToCellIn(h, iL+1, len(h.Instrs), cell) {
			continue
		}
		if preds := ev.cfg.Preds[g.t]; len(preds) != 1 || preds[0] != h {
			continue
		}
		gs = append(gs, g)
	}
	ev.guards[cell] = gs
	return gs
}

// gepVersionSafe re-derives rule R4 for the elided check at (b, i): the
// check indexes i8* base by a load of an R4-disciplined cell j (so
// j >= floor), under a live exit test j <u n, and the most recent
// pchk.bounds.test before it — on (pool, base, c, n-1) with c <= floor,
// behind a c <u n guard — returned true with no kill since.  The test
// then proved base+c .. base+n-1 inside base's object without wrap, and
// base+j lies between them.
func (ev *elideVerifier) gepVersionSafe(check *ir.Instr, b *ir.BasicBlock, i int) bool {
	mp, ok := vpoolConst(check)
	if !ok {
		return false
	}
	g, ok := vstripPtrCasts(check.Args[2]).(*ir.Instr)
	if !ok || g.Op != ir.OpGEP || len(g.Args) != 2 || g.Args[0].Type() != svaops.BytePtr {
		return false
	}
	base := g.Args[0]
	if vstripPtrCasts(check.Args[1]) != vstripPtrCasts(base) {
		return false
	}
	ld, ok := g.Args[1].(*ir.Instr)
	if !ok || ld.Op != ir.OpLoad {
		return false
	}
	cell, ok := ld.Args[0].(*ir.Instr)
	if !ok || cell.Op != ir.OpAlloca {
		return false
	}
	ci := ev.cellDiscipline(cell)
	if !ci.r4ok || !ev.initDominates(ci, ld) {
		return false
	}
	for _, gd := range ev.cellGuards(cell) {
		if gd.pred != ir.PredULT || !ev.guardLiveAt(cell, gd, ld) {
			continue
		}
		for _, v := range ev.boundsTests() {
			if ev.testCovers(v, mp, base, gd.n, ci.floor, b, i) {
				return true
			}
		}
	}
	return false
}

// boundsTests lists the blocks that end by branching on a
// pchk.bounds.test computed in the same block; memoized.
func (ev *elideVerifier) boundsTests() []*ir.BasicBlock {
	if ev.tests != nil {
		return *ev.tests
	}
	var vs []*ir.BasicBlock
	for _, v := range ev.f.Blocks {
		br := v.Terminator()
		if br == nil || br.Op != ir.OpCondBr || len(br.Blocks) != 2 || br.Blocks[0] == br.Blocks[1] {
			continue
		}
		call, ok := br.Args[0].(*ir.Instr)
		if !ok || call.Parent() != v {
			continue
		}
		if name, ok := call.IsIntrinsicCall(); ok && name == svaops.BoundsTest {
			vs = append(vs, v)
		}
	}
	ev.tests = &vs
	return vs
}

// testCovers reports whether the bounds test ending block v vouches for
// pool mp's object around base+[c, n-1] at (b, i), for some c <= floor.
func (ev *elideVerifier) testCovers(v *ir.BasicBlock, mp int64, base, n ir.Value, floor int64, b *ir.BasicBlock, i int) bool {
	br := v.Terminator()
	call := br.Args[0].(*ir.Instr)
	if tp, ok := vpoolConst(call); !ok || tp != mp || vstripPtrCasts(call.Args[1]) != vstripPtrCasts(base) {
		return false
	}
	c, ok := call.Args[2].(*ir.ConstInt)
	if !ok || c.SignedValue() < 0 || c.SignedValue() > floor {
		return false
	}
	last, ok := call.Args[3].(*ir.Instr)
	if !ok || last.Op != ir.OpSub || last.Args[0] != n {
		return false
	}
	if one, ok := last.Args[1].(*ir.ConstInt); !ok || one.SignedValue() != 1 {
		return false
	}
	// The c <u n guard: v's only entry is the true edge of
	// `condbr (icmp ult c, n)`, so n-1 >= c does not wrap.
	preds := ev.cfg.Preds[v]
	if len(preds) != 1 {
		return false
	}
	pbr := preds[0].Terminator()
	if pbr == nil || pbr.Op != ir.OpCondBr || len(pbr.Blocks) != 2 || pbr.Blocks[0] != v || pbr.Blocks[1] == v {
		return false
	}
	cc, ok := pbr.Args[0].(*ir.Instr)
	if !ok || cc.Op != ir.OpICmp || cc.Pred != ir.PredULT || cc.Args[1] != n {
		return false
	}
	if c2, ok := cc.Args[0].(*ir.ConstInt); !ok || c2.SignedValue() != c.SignedValue() {
		return false
	}
	// The true edge dominates the check: every path to it passes v, and
	// none reaches it from the false edge without passing v again.
	if b == v || !ev.dom.Dominates(v, b) || vreachesAvoiding(ev.cfg, br.Blocks[1], b, v) {
		return false
	}
	// Neither the test's answer nor its operands change on the way: no
	// kill after the call, and n and base are not recomputed.
	_, at, _ := vsitePos(call)
	if ev.killIn(v, at+1, len(v.Instrs), mp) || !ev.pathsClean(v, b, i, mp) {
		return false
	}
	inter := vinterAvoid(ev.cfg, v, b)
	for _, x := range []ir.Value{n, base} {
		if d, ok := x.(*ir.Instr); ok && (inter[d.Parent()] || d.Parent() == b) {
			return false
		}
	}
	return true
}

// vreachesAvoiding reports whether to is reachable from from along edges
// that never enter avoid.
func vreachesAvoiding(cfg *ir.CFG, from, to, avoid *ir.BasicBlock) bool {
	if from == avoid {
		return false
	}
	seen := map[*ir.BasicBlock]bool{from: true}
	stack := []*ir.BasicBlock{from}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == to {
			return true
		}
		for _, s := range cfg.Succs[x] {
			if s != avoid && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}
