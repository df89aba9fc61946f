// Package typecheck implements the SVA bytecode verifier of paper §5: a
// simple, intraprocedural type checker over the metapool annotations the
// safety-checking compiler attached to pointer values.  Because the typing
// rules need only local information (the operands of each instruction), the
// checker is small and fast — and it, not the complex interprocedural
// compiler, is the component inside the trusted computing base.
//
// The checker validates four properties, matching the §5 bug-injection
// experiment:
//
//  1. aliasing consistency — derived pointers (bitcast, getelementptr,
//     phi, select) stay in their source's metapool;
//  2. inter-pool edges — loading a pointer from pool M yields a pointer of
//     M's declared pointee pool, and stores respect the same edge;
//  3. type-homogeneity claims — object-level pointers into a TH pool agree
//     with the pool's declared element type;
//  4. check coverage — the run-time checks the pool descriptors require
//     (lscheck on non-TH complete pools, boundscheck on unproven indexing,
//     registration of allocations) are actually present.
package typecheck

import (
	"fmt"

	"sva/internal/ir"
	"sva/internal/svaops"
)

// Error is one type-check failure.
type Error struct {
	Fn   string
	Rule string
	Msg  string
}

func (e Error) Error() string { return fmt.Sprintf("@%s [%s]: %s", e.Fn, e.Rule, e.Msg) }

// Checker verifies one safety-compiled program.
type Checker struct {
	descs map[string]*ir.MetapoolDesc
	// descID maps pool name to its registry index (the mp constants
	// embedded in check calls).
	descID map[string]int
	// Allocators lists allocation functions whose results must be
	// registered (for the coverage rule).
	Allocators map[string]bool

	errs []error
}

// New builds a checker from the program's metapool descriptors (found on
// the first module).
func New(descs []*ir.MetapoolDesc) *Checker {
	c := &Checker{
		descs:      map[string]*ir.MetapoolDesc{},
		descID:     map[string]int{},
		Allocators: map[string]bool{},
	}
	for i, d := range descs {
		c.descs[d.Name] = d
		c.descID[d.Name] = i
	}
	return c
}

// Check verifies all safety-compiled functions of the given modules,
// returning every violation found.
func (c *Checker) Check(mods ...*ir.Module) []error {
	c.errs = nil
	for _, m := range mods {
		for _, f := range m.Funcs {
			if f.SafetyCompiled {
				c.checkFunc(f)
			}
		}
	}
	return c.errs
}

func (c *Checker) fail(f *ir.Function, rule, format string, args ...interface{}) {
	c.errs = append(c.errs, Error{Fn: f.Nm, Rule: rule, Msg: fmt.Sprintf(format, args...)})
}

// poolOf reads the metapool annotation of a value ("" if none — constants,
// nulls and non-pointers have no pool).
func poolOf(v ir.Value) string {
	switch v := v.(type) {
	case *ir.Instr:
		return v.Pool
	case *ir.Param:
		return v.Pool
	case *ir.Global:
		return v.Pool
	}
	return ""
}

func isNullish(v ir.Value) bool {
	switch v.(type) {
	case *ir.ConstNull, *ir.ConstUndef:
		return true
	}
	return false
}

func (c *Checker) desc(f *ir.Function, name string) *ir.MetapoolDesc {
	d := c.descs[name]
	if d == nil && name != "" {
		c.fail(f, "pools", "annotation names unknown metapool %s", name)
	}
	return d
}

func (c *Checker) checkFunc(f *ir.Function) {
	f.Renumber()
	// Re-derive every pchk.elide.* annotation before applying the
	// coverage rules (which accept an elided check as coverage only
	// because this pass independently proved it redundant).
	c.checkElisions(f)
	for _, b := range f.Blocks {
		// lschecked tracks pointer values covered by a pchk.lscheck in
		// this block so far; boundsChecked tracks GEPs awaiting coverage.
		lschecked := map[ir.Value]bool{}
		boundsChecked := map[ir.Value]bool{}
		// First sweep: record which values the block's checks cover.
		for _, in := range b.Instrs {
			if name, ok := in.IsIntrinsicCall(); ok {
				switch name {
				case svaops.LSCheck, svaops.ElideLS:
					// The check may operate on an inserted i8* view of the
					// pointer; coverage extends to the cast's source.  An
					// elided check still counts as coverage: checkElisions
					// proved it would have passed.
					lschecked[in.Args[1]] = true
					if bc, okc := in.Args[1].(*ir.Instr); okc && bc.Op == ir.OpBitcast {
						lschecked[bc.Args[0]] = true
					}
					c.checkMPConst(f, in, in.Args[1])
				case svaops.BoundsCheck, svaops.ElideBounds:
					boundsChecked[in.Args[2]] = true
					if bc, okc := in.Args[2].(*ir.Instr); okc && bc.Op == ir.OpBitcast {
						boundsChecked[bc.Args[0]] = true
					}
					c.checkMPConst(f, in, in.Args[1])
				case svaops.ObjRegister, svaops.ObjRegisterStack:
					c.checkMPConst(f, in, in.Args[1])
					c.checkTHRegistration(f, in)
				case svaops.ObjDrop, svaops.BoundsTest:
					c.checkMPConst(f, in, in.Args[1])
				}
			}
		}
		for _, in := range b.Instrs {
			c.checkInstr(f, in, lschecked, boundsChecked)
		}
	}
}

// checkMPConst verifies that a check call's pool-ID constant matches the
// annotated pool of the pointer it checks (rule: the compiler cannot lie
// about which pool a check consults).
func (c *Checker) checkMPConst(f *ir.Function, in *ir.Instr, ptr ir.Value) {
	idc, ok := in.Args[0].(*ir.ConstInt)
	if !ok {
		c.fail(f, "checks", "%s with non-constant pool ID", mustName(in))
		return
	}
	pool := poolOf(ptr)
	if pool == "" {
		// The pointer value itself may be an inserted cast; its pool was
		// inherited during annotation, so absence here means the compiler
		// produced an unannotated pointer — flag it.
		c.fail(f, "aliasing", "%s checks unannotated pointer %s", mustName(in), ptr.Ident())
		return
	}
	want, ok := c.descID[pool]
	if !ok {
		c.fail(f, "pools", "pointer %s annotated with unknown pool %s", ptr.Ident(), pool)
		return
	}
	if int(idc.SignedValue()) != want {
		c.fail(f, "aliasing", "%s uses pool ID %d but %s belongs to %s (ID %d)",
			mustName(in), idc.SignedValue(), ptr.Ident(), pool, want)
	}
}

// checkTHRegistration validates type-homogeneity claims at registration
// sites: the registered pointer's object type must match the pool's
// declared element type.
func (c *Checker) checkTHRegistration(f *ir.Function, in *ir.Instr) {
	idc, ok := in.Args[0].(*ir.ConstInt)
	if !ok {
		return
	}
	var d *ir.MetapoolDesc
	for name, id := range c.descID {
		if id == int(idc.SignedValue()) {
			d = c.descs[name]
		}
	}
	if d == nil || !d.TypeHomogeneous || d.ElemType == nil {
		return
	}
	// Find the object type: strip the inserted i8* cast.
	src := in.Args[1]
	if ci, ok := src.(*ir.Instr); ok && ci.Op == ir.OpBitcast {
		src = ci.Args[0]
	}
	t := src.Type()
	if !t.IsPointer() {
		return
	}
	et := t.Elem()
	for et.IsArray() {
		et = et.Elem()
	}
	if et == ir.I8 {
		// Raw allocator result: acceptable — the typed view is checked at
		// its cast sites via the aliasing rule.
		return
	}
	if et != d.ElemType {
		c.fail(f, "type-homogeneity", "object of type %s registered in TH pool %s of %s",
			et, d.Name, d.ElemType)
	}
}

func mustName(in *ir.Instr) string {
	n, _ := in.IsIntrinsicCall()
	return n
}

func (c *Checker) checkInstr(f *ir.Function, in *ir.Instr, lschecked, boundsChecked map[ir.Value]bool) {
	switch in.Op {
	case ir.OpBitcast, ir.OpGEP:
		// Rule 1: derived pointers stay in the source pool.
		src, dst := poolOf(in.Args[0]), in.Pool
		if src != "" && dst != "" && src != dst {
			c.fail(f, "aliasing", "%s result annotated %s but source %s is in %s",
				in.Op, dst, in.Args[0].Ident(), src)
		}
		if in.Op == ir.OpGEP && dst != "" {
			c.requireBoundsCheck(f, in, boundsChecked)
		}

	case ir.OpPhi, ir.OpSelect:
		if !in.Typ.IsPointer() || in.Pool == "" {
			return
		}
		for i, a := range in.Args {
			if in.Op == ir.OpSelect && i == 0 {
				continue
			}
			if !a.Type().IsPointer() || isNullish(a) {
				continue
			}
			if p := poolOf(a); p != "" && p != in.Pool {
				c.fail(f, "aliasing", "phi/select mixes pools %s and %s", in.Pool, p)
			}
		}

	case ir.OpLoad:
		srcPool := poolOf(in.Args[0])
		if srcPool == "" {
			return
		}
		d := c.desc(f, srcPool)
		if d == nil {
			return
		}
		// Rule 4: non-TH complete pools need a load-store check.
		if !d.TypeHomogeneous && d.Complete && !lschecked[in.Args[0]] {
			c.fail(f, "coverage", "load through non-TH complete pool %s without lscheck", srcPool)
		}
		// Rule 2: pointer loads follow the declared pool edge.
		if in.Typ.IsPointer() && in.Pool != "" {
			if d.Pointee == "" {
				c.fail(f, "edges", "load of pointer from pool %s which declares no pointee pool", srcPool)
			} else if in.Pool != d.Pointee {
				c.fail(f, "edges", "load from %s yields pool %s, declared pointee is %s",
					srcPool, in.Pool, d.Pointee)
			}
		}

	case ir.OpStore:
		dstPool := poolOf(in.Args[1])
		if dstPool == "" {
			return
		}
		d := c.desc(f, dstPool)
		if d == nil {
			return
		}
		if !d.TypeHomogeneous && d.Complete && !lschecked[in.Args[1]] {
			c.fail(f, "coverage", "store through non-TH complete pool %s without lscheck", dstPool)
		}
		if in.Args[0].Type().IsPointer() && !isNullish(in.Args[0]) {
			vp := poolOf(in.Args[0])
			if vp != "" {
				if d.Pointee == "" {
					c.fail(f, "edges", "store of pointer (pool %s) into pool %s which declares no pointee",
						vp, dstPool)
				} else if vp != d.Pointee {
					c.fail(f, "edges", "store of pool-%s pointer into %s whose pointee is %s",
						vp, dstPool, d.Pointee)
				}
			}
		}

	case ir.OpCall:
		if _, intrinsic := in.IsIntrinsicCall(); intrinsic {
			return
		}
		callee, ok := in.Callee.(*ir.Function)
		if !ok || !callee.SafetyCompiled {
			return
		}
		// Rule 1 across calls: argument pools match parameter pools.
		for i := 0; i < len(in.Args) && i < len(callee.Params); i++ {
			prm := callee.Params[i]
			if !prm.Typ.IsPointer() || isNullish(in.Args[i]) {
				continue
			}
			ap, pp := poolOf(in.Args[i]), prm.Pool
			if ap != "" && pp != "" && ap != pp {
				c.fail(f, "aliasing", "call @%s arg %d pool %s != param pool %s",
					callee.Nm, i, ap, pp)
			}
		}
		if in.Typ.IsPointer() && in.Pool != "" && callee.RetPool != "" && in.Pool != callee.RetPool {
			c.fail(f, "aliasing", "call @%s result pool %s != callee return pool %s",
				callee.Nm, in.Pool, callee.RetPool)
		}
	}
}

// requireBoundsCheck enforces rule 4 for indexing: a GEP that is not
// provably safe must be covered by a pchk.bounds on its result in the same
// block.
func (c *Checker) requireBoundsCheck(f *ir.Function, in *ir.Instr, boundsChecked map[ir.Value]bool) {
	if gepStaticallySafe(in) {
		return
	}
	d := c.descs[in.Pool]
	if d == nil {
		return
	}
	if boundsChecked[in] {
		return
	}
	// The inserted check operates on an i8* cast of the GEP; accept
	// coverage through a cast user.
	for v := range boundsChecked {
		if ci, ok := v.(*ir.Instr); ok && ci.Op == ir.OpBitcast && ci.Args[0] == ir.Value(in) {
			return
		}
	}
	c.fail(f, "coverage", "unproven indexing in pool %s without bounds check", in.Pool)
}

// gepStaticallySafe mirrors the compiler's elision rule (including the
// masked-index idioms of §7.1.3); the verifier re-derives it rather than
// trusting the compiler.
func gepStaticallySafe(in *ir.Instr) bool {
	cur := in.Args[0].Type().Elem()
	for k := 1; k < len(in.Args); k++ {
		idx := in.Args[k]
		if k == 1 {
			c, ok := idx.(*ir.ConstInt)
			if !ok || c.SignedValue() != 0 {
				return false
			}
			continue
		}
		switch cur.Kind() {
		case ir.ArrayKind:
			if !indexBounded(idx, int64(cur.Len())) {
				return false
			}
			cur = cur.Elem()
		case ir.StructKind:
			c, ok := idx.(*ir.ConstInt)
			if !ok {
				return false
			}
			fi := c.SignedValue()
			if fi < 0 || fi >= int64(cur.NumFields()) {
				// Malformed constant field index: not provable, and the
				// verifier must not panic on compiler-supplied IR.
				return false
			}
			cur = cur.Field(int(fi))
		default:
			return false
		}
	}
	return true
}

func indexBounded(idx ir.Value, n int64) bool {
	switch v := idx.(type) {
	case *ir.ConstInt:
		sv := v.SignedValue()
		return sv >= 0 && sv < n
	case *ir.Instr:
		switch v.Op {
		case ir.OpAnd:
			for _, a := range v.Args {
				if c, ok := a.(*ir.ConstInt); ok {
					if sv := c.SignedValue(); sv >= 0 && sv < n {
						return true
					}
				}
			}
		case ir.OpURem:
			if c, ok := v.Args[1].(*ir.ConstInt); ok {
				if sv := c.SignedValue(); sv > 0 && sv <= n {
					return true
				}
			}
		case ir.OpZExt:
			src := v.Args[0].Type()
			if src.IsInt() && src.Bits() < 63 && int64(1)<<uint(src.Bits()) <= n {
				return true
			}
			return indexBounded(v.Args[0], n)
		case ir.OpSExt:
			// The sub-rules only prove values in [0, n) with the top bit
			// clear, which sign extension preserves.
			return indexBounded(v.Args[0], n)
		}
	}
	return false
}
