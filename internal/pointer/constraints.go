package pointer

import (
	"sort"

	"sva/internal/ir"
	"sva/internal/svaops"
)

// constrainFunc generates unification constraints for one function body.
func (a *Analysis) constrainFunc(f *ir.Function) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			a.constrainInstr(f, in)
		}
	}
}

func (a *Analysis) constrainInstr(f *ir.Function, in *ir.Instr) {
	switch in.Op {
	case ir.OpAlloca:
		obj := a.newNode()
		obj.Flags |= Stack
		obj.AllocSites = append(obj.AllocSites, in)
		a.observeType(obj, in.AllocTy)
		a.union(a.cell(in), obj)

	case ir.OpLoad:
		p := a.cell(in.Args[0])
		if in.Typ.IsPointer() {
			a.union(a.cell(in), a.pointee(p))
			a.observeType(a.cell(in), in.Typ.Elem())
		}

	case ir.OpStore:
		p := a.cell(in.Args[1])
		if in.Args[0].Type().IsPointer() {
			if isNullish(in.Args[0]) {
				return
			}
			a.union(a.pointee(p), a.cell(in.Args[0]))
		}

	case ir.OpGEP:
		// Field-insensitive: indexing stays within the object partition.
		// Interior pointers carry field types, which are NOT evidence
		// about the object type, so no type observation here.
		a.union(a.cell(in), a.cell(in.Args[0]))

	case ir.OpBitcast:
		a.union(a.cell(in), a.cell(in.Args[0]))
		// A cast of an object-level pointer (allocation result, global,
		// parameter) to a typed pointer is a type observation; casts of
		// interior (GEP-derived) pointers are not.
		if !isInterior(in.Args[0]) {
			a.observeType(a.cell(in), in.Typ.Elem())
		}

	case ir.OpIntToPtr:
		src := stripIntCasts(in.Args[0])
		if a.cfg.TrackIntToPtrNull && isSmallIntConst(src) {
			// §4.8: small constants in pointer context (1, -1, error
			// codes) are treated as null rather than unknown addresses.
			return
		}
		if pi, ok := src.(*ir.Instr); ok && pi.Op == ir.OpPtrToInt {
			// Round-trip through an integer keeps the points-to identity
			// (necessary for C compilers, §4.7).
			a.union(a.cell(in), a.cell(pi.Args[0]))
			return
		}
		if p, ok := src.(*ir.Param); ok && a.userParams[p] {
			// A system-call argument materializing as a pointer: it
			// points into userspace, which registers as one valid object
			// with the partition (§4.6) — known, not unknown.
			a.cell(in).find().UserReachable = true
			if !in.Typ.Elem().IsVoid() {
				a.observeType(a.cell(in), in.Typ.Elem())
			}
			return
		}
		n := a.cell(in)
		n.find().Flags |= Unknown
		n.find().Incomplete = true

	case ir.OpPhi, ir.OpSelect:
		if !in.Typ.IsPointer() {
			return
		}
		for i, arg := range in.Args {
			if in.Op == ir.OpSelect && i == 0 {
				continue // condition
			}
			if !arg.Type().IsPointer() || isNullish(arg) {
				continue
			}
			a.union(a.cell(in), a.cell(arg))
		}

	case ir.OpCall:
		a.constrainCall(f, in)

	case ir.OpRet:
		if len(in.Args) == 1 && in.Args[0].Type().IsPointer() && !isNullish(in.Args[0]) {
			a.union(a.retCell(f), a.cell(in.Args[0]))
		}

	case ir.OpCmpXchg, ir.OpAtomicRMW:
		if in.Typ.IsPointer() {
			p := a.cell(in.Args[0])
			a.union(a.cell(in), a.pointee(p))
			for _, v := range in.Args[1:] {
				if v.Type().IsPointer() && !isNullish(v) {
					a.union(a.pointee(p), a.cell(v))
				}
			}
		}
	}
}

// isInterior reports whether a pointer value derives from field/element
// indexing (its static type describes a field, not the object).
func isInterior(v ir.Value) bool {
	for {
		in, ok := v.(*ir.Instr)
		if !ok {
			return false
		}
		switch in.Op {
		case ir.OpGEP:
			return true
		case ir.OpBitcast:
			v = in.Args[0]
		default:
			return false
		}
	}
}

// stripIntCasts looks through integer width changes to the source value.
func stripIntCasts(v ir.Value) ir.Value {
	for {
		in, ok := v.(*ir.Instr)
		if !ok {
			return v
		}
		switch in.Op {
		case ir.OpZExt, ir.OpSExt, ir.OpTrunc, ir.OpBitcast:
			v = in.Args[0]
		default:
			return v
		}
	}
}

func isNullish(v ir.Value) bool {
	switch v := v.(type) {
	case *ir.ConstNull, *ir.ConstUndef:
		return true
	case *ir.Instr:
		if v.Op == ir.OpIntToPtr {
			return isSmallIntConst(stripCasts(v.Args[0]))
		}
	}
	return false
}

// constrainCall handles direct calls, allocator calls, intrinsic calls,
// trap-based internal syscalls and indirect calls.
func (a *Analysis) constrainCall(f *ir.Function, in *ir.Instr) {
	if callee, ok := in.Callee.(*ir.Function); ok {
		if callee.Intrinsic {
			a.constrainIntrinsic(f, in, callee.Nm)
			return
		}
		if al := a.allocs[callee.Nm]; al != nil {
			a.constrainAlloc(in, al)
			return
		}
		if al := a.frees[callee.Nm]; al != nil {
			// Free: the freed pointer stays in its partition; nothing new.
			return
		}
		if a.isUserCopy(callee.Nm) {
			a.constrainUserCopy(in)
			return
		}
		if !a.analyzed(callee) {
			// External/unanalyzed code: everything reachable from the
			// arguments and the return value becomes incomplete.
			for _, arg := range in.Args {
				if arg.Type().IsPointer() && !isNullish(arg) {
					a.markIncomplete(a.cell(arg))
				}
			}
			if in.Typ.IsPointer() {
				n := a.cell(in)
				n.find().Incomplete = true
				a.union(n, a.retCell(callee))
			}
			return
		}
		a.bindCall(in, callee)
		a.Callsites[in] = []*ir.Function{callee}
		return
	}
	// Indirect call: resolved iteratively via the callee cell's func set.
	cs := &callsite{fn: f, in: in, done: map[*ir.Function]bool{}}
	a.indirect = append(a.indirect, cs)
}

// bindCall unifies arguments with parameters and results with returns.
func (a *Analysis) bindCall(in *ir.Instr, callee *ir.Function) {
	params := callee.Params
	for i := 0; i < len(in.Args) && i < len(params); i++ {
		if params[i].Typ.IsPointer() && in.Args[i].Type().IsPointer() && !isNullish(in.Args[i]) {
			a.union(a.cell(params[i]), a.cell(in.Args[i]))
		}
	}
	if in.Typ.IsPointer() {
		a.union(a.cell(in), a.retCell(callee))
	}
	if !a.analyzed(callee) {
		for _, p := range callee.Params {
			if p.Typ.IsPointer() {
				a.markIncomplete(a.cell(p))
			}
		}
	}
}

// constrainAlloc creates the heap object for an allocator call.
func (a *Analysis) constrainAlloc(in *ir.Instr, al *AllocatorInfo) {
	obj := a.newNode()
	obj.Flags |= Heap
	obj.AllocSites = append(obj.AllocSites, in)
	// Kernel pool identity for the §4.3 merge rules.
	switch al.Kind {
	case PoolAllocator:
		if al.PoolArg >= 0 && al.PoolArg < len(in.Args) {
			obj.KernelPools[poolIdentity(in.Args[al.PoolArg], al.Name)] = true
		}
	case OrdinaryAllocator:
		key := "ordinary:" + al.Name
		if al.SizeClasses && al.SizeArg >= 0 && al.SizeArg < len(in.Args) {
			// kmalloc-over-kmem_cache (§6.2): constant sizes map to size
			// classes; unknown sizes fall into one catch-all class.
			if c, ok := in.Args[al.SizeArg].(*ir.ConstInt); ok {
				key = poolSizeClassKey(al.Name, c.SignedValue())
			} else {
				key = al.Name + ":dynamic"
			}
		}
		obj.KernelPools[key] = true
	}
	a.union(a.cell(in), obj)
}

// poolIdentity names a kernel pool from the pool-handle argument: the
// cache global itself, or the global variable the handle was loaded from
// (the kmem_cache_t* pattern).  Unidentifiable handles share one
// conservative identity, merging their partitions (§4.3: a kernel pool
// spanning partitions forces a merge; over-merging is sound).
func poolIdentity(v ir.Value, alloc string) string {
	switch v := stripCasts(v).(type) {
	case *ir.Global:
		return "pool:@" + v.Nm
	case *ir.Instr:
		if v.Op == ir.OpLoad {
			if g, ok := stripCasts(v.Args[0]).(*ir.Global); ok {
				return "poolvar:@" + g.Nm
			}
		}
		return "pool:anon"
	default:
		_ = v
		return "pool:" + alloc
	}
}

// poolSizeClassKey buckets a constant kmalloc size into its cache.
func poolSizeClassKey(alloc string, size int64) string {
	cls := int64(32)
	for cls < size {
		cls <<= 1
	}
	return alloc + ":" + itoa(cls)
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [24]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// isUserCopy reports whether name is one of the registered user-copy
// routines.
func (a *Analysis) isUserCopy(name string) bool {
	for _, u := range a.cfg.UserCopyFuncs {
		if u == name {
			return true
		}
	}
	return false
}

// constrainUserCopy implements the §4.8 heuristic: for copies to or from
// userspace, merge only the *outgoing edges* of the source and target
// objects, not the objects themselves, to keep kernel and user partitions
// apart.  Falls back to safe collapse without precise type information.
func (a *Analysis) constrainUserCopy(in *ir.Instr) {
	if len(in.Args) < 2 {
		return
	}
	dst, src := in.Args[0], in.Args[1]
	if !dst.Type().IsPointer() || !src.Type().IsPointer() {
		return
	}
	dn, sn := a.cell(dst), a.cell(src)
	dr, sr := dn.find(), sn.find()
	if dr == sr {
		return
	}
	dTyped := dr.Ty != nil && !dr.Collapsed
	sTyped := sr.Ty != nil && !sr.Collapsed
	if dTyped || sTyped {
		// Merge only what the objects point to.
		a.union(a.pointee(dn), a.pointee(sn))
		return
	}
	// No type information: collapse each node individually but keep them
	// separate (the paper's fallback).
	dr.Collapsed = true
	sr.Collapsed = true
	a.union(a.pointee(dn), a.pointee(sn))
}

// constrainIntrinsic gives known SVA operations precise semantics.
func (a *Analysis) constrainIntrinsic(f *ir.Function, in *ir.Instr, name string) {
	switch name {
	case svaops.Memcpy, svaops.Memmove:
		// *dst = *src: merge pointees (copy semantics, not p = q).
		a.union(a.pointee(a.cell(in.Args[0])), a.pointee(a.cell(in.Args[1])))
		if in.Typ.IsPointer() {
			a.union(a.cell(in), a.cell(in.Args[0]))
		}
	case svaops.Memset:
		if in.Typ.IsPointer() {
			a.union(a.cell(in), a.cell(in.Args[0]))
		}
	case svaops.Trap:
		// Internal system call: analyze as a direct call to the registered
		// handler (§4.8).
		num, ok := in.Args[0].(*ir.ConstInt)
		if !ok {
			return
		}
		h := a.syscalls[num.SignedValue()]
		if h == nil {
			return
		}
		// Trap args a0..a5 bind to handler params 1..6 as integers; the
		// handler casts them back to pointers — the inttoptr round-trip
		// rule keeps identity when the guest uses ptrtoint first.
		for i := 1; i < len(in.Args) && i < len(h.Params); i++ {
			src := stripCasts(in.Args[i])
			if pi, okc := src.(*ir.Instr); okc && pi.Op == ir.OpPtrToInt {
				a.union(a.cell(h.Params[i]), a.cell(pi.Args[0]))
			}
		}
		a.Callsites[in] = append(a.Callsites[in], h)
	case svaops.RegisterSyscall, svaops.RegisterInterrupt:
		// Handler escapes into the SVM; it will be called with integer
		// arguments.  Mark its pointer params incomplete only if it takes
		// raw pointers (ours take integers, cast in the body).
		if hf, ok := stripCasts(in.Args[1]).(*ir.Function); ok {
			a.funcObject(hf)
		}
	case svaops.InitState, svaops.ExecState:
		// fn(arg) will run later with an integer argument.
		if hf, ok := stripCasts(in.Args[1]).(*ir.Function); ok {
			a.funcObject(hf)
		}
	case svaops.IPushFunction:
		if hf, ok := stripCasts(in.Args[1]).(*ir.Function); ok {
			a.funcObject(hf)
		}
	case svaops.ObjRegister, svaops.ObjRegisterStack, svaops.ObjDrop,
		svaops.BoundsCheck, svaops.LSCheck, svaops.ICCheck,
		svaops.GetBoundsLo, svaops.GetBoundsHi, svaops.BoundsTest, svaops.ExactCheck, svaops.PseudoAlloc,
		svaops.ElideBounds, svaops.ElideLS:
		// Check operations carry no points-to semantics.
	default:
		// Other SVA-OS operations take opaque buffers; the buffers' nodes
		// are SVM-internal and need no constraints.
	}
}

// markIncomplete marks a node and everything reachable from it incomplete.
func (a *Analysis) markIncomplete(n *Node) {
	seen := map[*Node]bool{}
	var rec func(n *Node)
	rec = func(n *Node) {
		n = n.find()
		if seen[n] {
			return
		}
		seen[n] = true
		n.Incomplete = true
		if n.pointee != nil {
			rec(n.pointee)
		}
	}
	rec(n)
}

// resolveIndirect binds an indirect call site against the functions in its
// callee node, returning true if new targets appeared.
func (a *Analysis) resolveIndirect(cs *callsite) bool {
	calleeNode := a.cell(cs.in.Callee.(ir.Value)).find()
	changed := false
	sigAssert := cs.fn.SigAssert != nil && cs.fn.SigAssert[cs.in.Num()]
	for tgt := range calleeNode.Funcs {
		if cs.done[tgt] {
			continue
		}
		if sigAssert && !signatureMatches(cs.in, tgt) {
			// §4.8 call-site signature assertion: the programmer asserts
			// only matching signatures are called here.
			continue
		}
		cs.done[tgt] = true
		changed = true
		a.bindCall(cs.in, tgt)
		a.Callsites[cs.in] = append(a.Callsites[cs.in], tgt)
	}
	// An indirect call through an unknown/incomplete node may reach code
	// the analysis cannot see.
	if calleeNode.Flags&Unknown != 0 {
		for _, arg := range cs.in.Args {
			if arg.Type().IsPointer() && !isNullish(arg) {
				a.markIncomplete(a.cell(arg))
			}
		}
	}
	return changed
}

func signatureMatches(in *ir.Instr, f *ir.Function) bool {
	if len(f.Params) != len(in.Args) {
		return false
	}
	for i, p := range f.Params {
		if p.Typ != in.Args[i].Type() {
			return false
		}
	}
	return f.Sig.Ret() == in.Typ
}

// propagateIncomplete pushes incompleteness through points-to edges: an
// object reachable from an incomplete object may be written by unanalyzed
// code.
func (a *Analysis) propagateIncomplete() {
	for changed := true; changed; {
		changed = false
		for _, n := range a.allReps() {
			if n.Incomplete && n.pointee != nil && !n.pointee.find().Incomplete {
				n.pointee.find().Incomplete = true
				changed = true
			}
		}
	}
}

func (a *Analysis) allReps() []*Node {
	seen := map[*Node]bool{}
	var out []*Node
	add := func(n *Node) {
		r := n.find()
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for _, n := range a.cells {
		add(n)
		if p := n.find().pointee; p != nil {
			add(p)
		}
	}
	for _, n := range a.objOf {
		add(n)
	}
	for _, n := range a.funcRet {
		add(n)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}
