package safety

import (
	"fmt"

	"sva/internal/ir"
	"sva/internal/pointer"
	"sva/internal/svaops"
)

// instrumenter rewrites analyzed functions: object registrations, stack
// promotion, and run-time check insertion (§4.3–§4.5).
type instrumenter struct {
	p        *Program
	cfg      Config
	callSets [][]string
	// devirtualized counts indirect calls converted to direct ones.
	devirtualized int
	// globals maps each global registered by registerGlobals to its pool
	// (the objects elision rule R5 may check without a lookup).
	globals map[*ir.Global]int

	m *ir.Module
	// out is the instruction list being rebuilt for the current block.
	out []*ir.Instr
	// replace maps promoted allocas to their heap pointers.
	replace map[ir.Value]ir.Value
	// frees lists promoted objects to release before each return.
	frees []promoted
}

type promoted struct {
	pool int
	ptr  ir.Value // i8* heap pointer
	typd ir.Value // typed pointer replacing the alloca
}

func (ins *instrumenter) module(m *ir.Module) error {
	ins.m = m
	for _, f := range m.Funcs {
		if !ins.p.Res.Analyzed(f) {
			continue
		}
		if err := ins.function(f); err != nil {
			return fmt.Errorf("safety: @%s: %w", f.Nm, err)
		}
	}
	if ins.cfg.EntryFunc != "" {
		if entry := m.Func(ins.cfg.EntryFunc); entry != nil && !entry.IsDecl() {
			ins.registerGlobals(m, entry)
		}
	}
	return nil
}

// emit appends an instruction to the rebuilt block, tagging its parent.
func (ins *instrumenter) emit(in *ir.Instr) *ir.Instr {
	ins.out = append(ins.out, in)
	return in
}

// call emits a call to a pchk/sva operation.
func (ins *instrumenter) call(name string, args ...ir.Value) *ir.Instr {
	f := svaops.Get(ins.m, name)
	return ins.emit(&ir.Instr{Op: ir.OpCall, Typ: f.Sig.Ret(), Callee: f, Args: args})
}

// asBytePtr yields an i8* view of v, emitting a bitcast if needed.
func (ins *instrumenter) asBytePtr(v ir.Value) ir.Value {
	if v.Type() == svaops.BytePtr {
		return v
	}
	return ins.emit(&ir.Instr{Op: ir.OpBitcast, Typ: svaops.BytePtr, Args: []ir.Value{v}})
}

// asI64 widens/narrows an integer value to i64.
func (ins *instrumenter) asI64(v ir.Value) ir.Value {
	t := v.Type()
	if t == ir.I64 {
		return v
	}
	return ins.emit(&ir.Instr{Op: ir.OpZExt, Typ: ir.I64, Args: []ir.Value{v}})
}

func mpConst(id int) *ir.ConstInt { return ir.NewInt(ir.I32, int64(id)) }

func (ins *instrumenter) function(f *ir.Function) error {
	ins.replace = map[ir.Value]ir.Value{}
	ins.frees = nil
	res := ins.p.Res
	var layout ir.Layout

	// Pre-compute which partitions appear as pointees (escape detection).
	pointeeOf := map[int]bool{}
	for _, n := range res.Nodes() {
		if pt := n.Pointee(); pt != nil {
			pointeeOf[pt.ID()] = true
		}
	}
	retNodes := map[int]bool{}
	for _, b := range f.Blocks {
		if t := b.Terminator(); t != nil && t.Op == ir.OpRet && len(t.Args) == 1 {
			if n := res.PointsTo(t.Args[0]); n != nil {
				retNodes[n.ID()] = true
			}
		}
	}

	for bi, b := range f.Blocks {
		ins.out = make([]*ir.Instr, 0, len(b.Instrs)+8)
		for _, in := range b.Instrs {
			ins.rewriteOperands(in)
			switch {
			case in.Op == ir.OpAlloca:
				ins.alloca(f, in, bi == 0, pointeeOf, retNodes, layout)

			case in.Op == ir.OpRet:
				ins.releasePromoted()
				ins.emit(in)

			case in.Op == ir.OpGEP:
				ins.emit(in)
				ins.gepCheck(in)

			case in.Op == ir.OpLoad:
				ins.lsCheck(in.Args[0])
				ins.emit(in)

			case in.Op == ir.OpStore:
				ins.lsCheck(in.Args[1])
				ins.emit(in)

			case in.Op == ir.OpCall:
				ins.callSite(in)

			default:
				ins.emit(in)
			}
		}
		for _, in := range ins.out {
			b.Append(in) // resets parent
		}
		b.Instrs = ins.out
	}
	f.SafetyCompiled = true
	f.Renumber()
	return nil
}

// rewriteOperands substitutes promoted alloca pointers.
func (ins *instrumenter) rewriteOperands(in *ir.Instr) {
	if len(ins.replace) == 0 {
		return
	}
	for i, a := range in.Args {
		if r, ok := ins.replace[a]; ok {
			in.Args[i] = r
		}
	}
	if in.Callee != nil {
		if r, ok := ins.replace[in.Callee]; ok {
			in.Callee = r
		}
	}
}

// alloca registers a stack object, promoting it to the heap if its address
// escapes the function (§4.3: "Stack-allocated objects that may have
// reachable pointers after the parent function returns ... are converted to
// be heap allocated").
func (ins *instrumenter) alloca(f *ir.Function, in *ir.Instr, entryBlock bool,
	pointeeOf, retNodes map[int]bool, layout ir.Layout) {

	node := ins.p.Res.PointsTo(in)
	mp := -1
	if node != nil {
		mp = ins.p.PoolOfNode(node)
	}

	// Size: element size times the (optional) count operand.
	elemSize := layout.Size(in.AllocTy)
	var size ir.Value = ir.I64c(elemSize)
	dynamic := len(in.Args) == 1
	escapes := node != nil && (pointeeOf[node.ID()] || retNodes[node.ID()] || node.Flags&pointer.Heap != 0)

	if escapes && entryBlock && !dynamic && ins.cfg.PromoteAlloc != "" && ins.m.Func(ins.cfg.PromoteAlloc) != nil {
		// Promote: heap-allocate through the kernel's always-available
		// ordinary interface and free on return.
		alloc := ins.m.Func(ins.cfg.PromoteAlloc)
		hp := ins.emit(&ir.Instr{Op: ir.OpCall, Typ: alloc.Sig.Ret(), Callee: alloc, Args: []ir.Value{size}})
		typed := ins.emit(&ir.Instr{Op: ir.OpBitcast, Typ: in.Typ, Args: []ir.Value{hp}})
		ins.replace[in] = typed
		if mp >= 0 {
			ins.call(svaops.ObjRegister, mpConst(mp), hp, size)
			ins.frees = append(ins.frees, promoted{pool: mp, ptr: hp, typd: typed})
		} else {
			ins.frees = append(ins.frees, promoted{pool: -1, ptr: hp, typd: typed})
		}
		return
	}

	ins.emit(in)
	if mp < 0 {
		return
	}
	if dynamic {
		n := ins.asI64(in.Args[0])
		size = ins.emit(&ir.Instr{Op: ir.OpMul, Typ: ir.I64, Args: []ir.Value{n, ir.I64c(elemSize)}})
	}
	p := ins.asBytePtr(in)
	ins.call(svaops.ObjRegisterStack, mpConst(mp), p, size)
}

// releasePromoted frees promoted stack objects before a return.
func (ins *instrumenter) releasePromoted() {
	for _, pr := range ins.frees {
		if pr.pool >= 0 {
			ins.call(svaops.ObjDrop, mpConst(pr.pool), pr.ptr)
		}
		if free := ins.m.Func(ins.cfg.PromoteFree); free != nil {
			ins.emit(&ir.Instr{Op: ir.OpCall, Typ: ir.Void, Callee: free, Args: []ir.Value{pr.ptr}})
		}
	}
}

// gepCheck inserts a bounds check after an indexing operation that cannot
// be proven safe at compile time.
func (ins *instrumenter) gepCheck(in *ir.Instr) {
	if gepProvablySafe(in) {
		return
	}
	base := in.Args[0]
	mp := ins.p.Pool(base)
	if mp < 0 {
		return
	}
	bp := ins.asBytePtr(base)
	dp := ins.asBytePtr(in)
	ins.call(svaops.BoundsCheck, mpConst(mp), bp, dp)
}

// gepProvablySafe reports whether every index provably stays within the
// static bounds of the pointee type.  Beyond constant in-bounds indices,
// it recognizes two masked-index idioms (the "static array bounds
// checking" the paper lists as a planned optimization, §7.1.3):
//
//	a[x & C]  with C+1 <= len(a)
//	a[x % C]  with C   <= len(a)  (unsigned remainder)
func gepProvablySafe(in *ir.Instr) bool {
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
			if !indexBoundedBy(idx, int64(cur.Len())) {
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
				// A negative or out-of-range constant field index is
				// malformed IR; it is certainly not provably safe, and
				// indexing the field list with it would panic.
				return false
			}
			cur = cur.Field(int(fi))
		default:
			return false
		}
	}
	return true
}

// indexBoundedBy reports whether idx is statically known to lie in
// [0, n).
func indexBoundedBy(idx ir.Value, n int64) bool {
	switch v := idx.(type) {
	case *ir.ConstInt:
		sv := v.SignedValue()
		return sv >= 0 && sv < n
	case *ir.Instr:
		switch v.Op {
		case ir.OpAnd:
			// x & C with C in [0, n): the result cannot exceed C.
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
			// A zero-extended narrow value is bounded by its source width.
			src := v.Args[0].Type()
			if src.IsInt() && src.Bits() < 63 && int64(1)<<uint(src.Bits()) <= n {
				return true
			}
			return indexBoundedBy(v.Args[0], n)
		case ir.OpSExt:
			// Every sub-rule above proves the narrow value lies in [0, n)
			// with its top bit clear, so sign extension preserves it and
			// the widened index is bounded whenever the source is.
			return indexBoundedBy(v.Args[0], n)
		}
	}
	return false
}

// lsCheck inserts a load-store check for accesses through pointers of
// non-type-homogeneous, complete partitions (§4.5).
func (ins *instrumenter) lsCheck(ptr ir.Value) {
	mp := ins.p.Pool(ptr)
	if mp < 0 {
		return
	}
	desc := ins.p.Descs[mp]
	if desc.TypeHomogeneous || !desc.Complete {
		// TH pools need no check; incomplete pools get reduced checks
		// (no lscheck), the sole source of false negatives.
		return
	}
	p := ins.asBytePtr(ptr)
	ins.call(svaops.LSCheck, mpConst(mp), p)
}

// callSite handles allocator registration, frees, pseudo-allocations,
// memory-primitive bounds checks and indirect-call checks.
func (ins *instrumenter) callSite(in *ir.Instr) {
	callee, direct := in.Callee.(*ir.Function)
	if !direct {
		// §4.8 devirtualization: a signature-asserted site whose callee
		// set collapsed to one function becomes a direct call (cheaper,
		// and it can later be inlined); no indirect-call check needed.
		if !ins.cfg.DisableDevirt {
			if f := ins.devirtTarget(in); f != nil {
				in.Callee = f
				ins.devirtualized++
				ins.emit(in)
				return
			}
		}
		ins.indirectCheck(in)
		ins.emit(in)
		return
	}
	if name, ok := in.IsIntrinsicCall(); ok {
		switch name {
		case svaops.Memcpy, svaops.Memmove:
			ins.spanCheck(in.Args[0], in.Args[2])
			ins.spanCheck(in.Args[1], in.Args[2])
			ins.emit(in)
		case svaops.Memset:
			ins.spanCheck(in.Args[0], in.Args[2])
			ins.emit(in)
		case svaops.PseudoAlloc:
			ins.pseudoAlloc(in)
		case svaops.PseudoAllocBatch:
			ins.pseudoAllocBatch(in)
		default:
			ins.emit(in)
		}
		return
	}
	for i := range ins.cfg.Pointer.Allocators {
		al := &ins.cfg.Pointer.Allocators[i]
		if al.Name == callee.Nm {
			ins.emit(in)
			ins.registerAllocation(in, al)
			return
		}
		if al.FreeName == callee.Nm {
			ins.dropAllocation(in, al)
			ins.emit(in)
			return
		}
	}
	ins.emit(in)
}

// registerAllocation inserts pchk.reg.obj after an allocator call.
func (ins *instrumenter) registerAllocation(in *ir.Instr, al *pointer.AllocatorInfo) {
	mp := ins.p.Pool(in)
	if mp < 0 {
		return
	}
	var size ir.Value
	if sf := ins.cfg.SizeFuncs[al.Name]; sf != "" {
		if fn := ins.m.Func(sf); fn != nil {
			size = ins.emit(&ir.Instr{Op: ir.OpCall, Typ: ir.I64, Callee: fn,
				Args: append([]ir.Value(nil), in.Args...)})
		}
	}
	if size == nil && al.SizeArg >= 0 && al.SizeArg < len(in.Args) {
		size = ins.asI64(in.Args[al.SizeArg])
	}
	if size == nil {
		return
	}
	p := ins.asBytePtr(in)
	ins.call(svaops.ObjRegister, mpConst(mp), p, size)
}

// dropAllocation inserts pchk.drop.obj before a deallocator call.
func (ins *instrumenter) dropAllocation(in *ir.Instr, al *pointer.AllocatorInfo) {
	ptrArg := al.FreePtrArg
	if ptrArg < 0 || ptrArg >= len(in.Args) {
		return
	}
	v := in.Args[ptrArg]
	mp := ins.p.Pool(v)
	if mp < 0 {
		return
	}
	p := ins.asBytePtr(v)
	ins.call(svaops.ObjDrop, mpConst(mp), p)
}

// pseudoAlloc rewrites sva.pseudo.alloc(start, end) into a registration of
// the manufactured-address object (§4.7).
func (ins *instrumenter) pseudoAlloc(in *ir.Instr) {
	start, ok1 := in.Args[0].(*ir.ConstInt)
	end, ok2 := in.Args[1].(*ir.ConstInt)
	if !ok1 || !ok2 {
		ins.emit(in)
		return
	}
	// Find the partition of the pointer manufactured from this address.
	mp := -1
	fn := parentFunc(in)
	if fn != nil {
		for _, b := range fn.Blocks {
			for _, other := range b.Instrs {
				if other.Op != ir.OpIntToPtr {
					continue
				}
				if c, ok := other.Args[0].(*ir.ConstInt); ok && c.V == start.V {
					if id := ins.p.Pool(other); id >= 0 {
						mp = id
					}
				}
			}
		}
	}
	if mp < 0 {
		ins.emit(in)
		return
	}
	p := ins.emit(&ir.Instr{Op: ir.OpIntToPtr, Typ: svaops.BytePtr, Args: []ir.Value{start},
		Pool: ins.p.Descs[mp].Name})
	size := ir.I64c(end.SignedValue() - start.SignedValue() + 1)
	ins.call(svaops.ObjRegister, mpConst(mp), p, size)
}

// pseudoAllocBatch rewrites sva.pseudo.alloc.batch(base, n, esize) into a
// single batched registration of n manufactured objects (§4.7 for the
// slab/table shape: per-CPU arrays, descriptor tables).  The partition is
// resolved like pseudoAlloc's, from the pointer manufactured at base.
func (ins *instrumenter) pseudoAllocBatch(in *ir.Instr) {
	base, ok1 := in.Args[0].(*ir.ConstInt)
	n, ok2 := in.Args[1].(*ir.ConstInt)
	esize, ok3 := in.Args[2].(*ir.ConstInt)
	if !ok1 || !ok2 || !ok3 {
		ins.emit(in)
		return
	}
	mp := -1
	fn := parentFunc(in)
	if fn != nil {
		for _, b := range fn.Blocks {
			for _, other := range b.Instrs {
				if other.Op != ir.OpIntToPtr {
					continue
				}
				if c, ok := other.Args[0].(*ir.ConstInt); ok && c.V == base.V {
					if id := ins.p.Pool(other); id >= 0 {
						mp = id
					}
				}
			}
		}
	}
	if mp < 0 {
		ins.emit(in)
		return
	}
	p := ins.emit(&ir.Instr{Op: ir.OpIntToPtr, Typ: svaops.BytePtr, Args: []ir.Value{base},
		Pool: ins.p.Descs[mp].Name})
	ins.call(svaops.ObjRegisterBatch, mpConst(mp), p, ir.I64c(n.SignedValue()), ir.I64c(esize.SignedValue()))
}

func parentFunc(in *ir.Instr) *ir.Function {
	if in.Parent() == nil {
		return nil
	}
	return in.Parent().Func
}

// spanCheck verifies [p, p+len) stays within p's object before a bulk
// memory operation (the Figure 2 line 19 pattern).
func (ins *instrumenter) spanCheck(ptr, length ir.Value) {
	mp := ins.p.Pool(ptr)
	if mp < 0 {
		return
	}
	p := ins.asBytePtr(ptr)
	end := ins.emit(&ir.Instr{Op: ir.OpGEP, Typ: svaops.BytePtr, Args: []ir.Value{p, ins.asI64(length)}})
	ins.call(svaops.BoundsCheck, mpConst(mp), p, end)
}

// devirtTarget returns the single resolved callee of a signature-asserted
// indirect call, or nil.
func (ins *instrumenter) devirtTarget(in *ir.Instr) *ir.Function {
	fn := parentFunc(in)
	if fn == nil || fn.SigAssert == nil || !fn.SigAssert[in.Num()] {
		return nil
	}
	callees := ins.p.Res.Callees(in)
	if len(callees) != 1 || callees[0].IsDecl() {
		return nil
	}
	return callees[0]
}

// indirectCheck inserts an indirect-call check against the callee set the
// analysis computed.
func (ins *instrumenter) indirectCheck(in *ir.Instr) {
	callees := ins.p.Res.Callees(in)
	if len(callees) == 0 {
		return // unknown target set: reduced checks
	}
	names := make([]string, len(callees))
	for i, f := range callees {
		names[i] = f.Nm
	}
	setID := len(ins.callSets)
	ins.callSets = append(ins.callSets, names)
	fp, okv := in.Callee.(ir.Value)
	if !okv {
		return
	}
	p := ins.asBytePtr(fp)
	ins.call(svaops.ICCheck, mpConst(setID), p)
}

// registerGlobals inserts registrations for every pooled global at the top
// of the kernel entry function (§4.3: "Global objects registrations are
// inserted in the kernel entry function").
func (ins *instrumenter) registerGlobals(m *ir.Module, entry *ir.Function) {
	var layout ir.Layout
	ins.out = nil
	for _, g := range m.Globals {
		mp := ins.p.Pool(g)
		if mp < 0 {
			continue
		}
		p := ins.asBytePtr(g)
		ins.call(svaops.ObjRegister, mpConst(mp), p, ir.I64c(layout.Size(g.ValueType)))
		if ins.globals == nil {
			ins.globals = map[*ir.Global]int{}
		}
		ins.globals[g] = mp
	}
	if len(ins.out) == 0 {
		return
	}
	eb := entry.Entry()
	orig := eb.Instrs
	eb.Instrs = nil
	for _, in := range ins.out {
		eb.Append(in)
	}
	eb.Instrs = append(eb.Instrs, orig...)
	entry.Renumber()
}
