// Package lint is the rule engine behind cmd/sva-lint: it runs the
// internal/analysis value-range framework over IR modules (compiled kernels
// or guest programs) and reports violations of SVA kernel-usage invariants
// that are provable statically — the compartmentalizing-compilation idea of
// proving properties about code before it ever runs inside the compartment.
//
// Rule catalog:
//
//	certain-trap       a pchk.bounds whose GEP index interval excludes every
//	                   in-bounds value: the check cannot succeed, so the
//	                   instruction is a statically-known run-time trap.
//	range-unreachable  a block the CFG reaches but sparse conditional range
//	                   propagation proves no execution reaches (a branch
//	                   condition with a decided interval): dead logic, or an
//	                   inverted guard.
//	icontext-pairing   an llva.icontext.save whose interrupt context is not
//	                   committed (llva.icontext.commit / .load on the same
//	                   handle) on every CFG path to function return.
//	mmu-order          an sva.mmu.protect / sva.mmu.unmap of a page address
//	                   with no dominating sva.mmu.map of the same address in
//	                   the function: attribute changes to an undeclared
//	                   mapping.
//	cpuid-mask         an array index derived from sva.cpu.id with no
//	                   interposed constant mask bounding it to the array
//	                   (the kernel's `and MaxCPUs-1` per-CPU idiom).
//	usercopy-reg       a user-copy call (__copy_from_user and friends)
//	                   writing into a stack object with no dominating
//	                   pchk.reg.* registration of that object — data enters
//	                   a pool the run-time has never been told about.
//
// Every rule errs toward silence: a finding is emitted only when the
// violation is proven, so a clean report on the shipped kernel stays
// meaningful.
package lint

import (
	"fmt"
	"sort"

	"sva/internal/analysis"
	"sva/internal/ir"
	"sva/internal/pointer"
	"sva/internal/svaops"
)

// Finding is one rule violation, stable across runs (findings are sorted).
type Finding struct {
	Rule   string `json:"rule"`
	Module string `json:"module"`
	Func   string `json:"func"`
	Block  string `json:"block"`
	Detail string `json:"detail"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s.%s [%s]: %s", f.Rule, f.Module, f.Func, f.Block, f.Detail)
}

// Run lints mods with an optional pointer-analysis result (interprocedural
// range summaries and indirect-call resolution when present).
func Run(pt *pointer.Result, mods ...*ir.Module) []Finding {
	mr := analysis.ForModule(pt, mods...)
	var out []Finding
	for _, m := range mods {
		for _, f := range m.Funcs {
			if f.IsDecl() {
				continue
			}
			fr := mr.Func[f]
			if fr == nil {
				continue
			}
			c := &checker{m: m, f: f, fr: fr}
			c.certainTrap()
			c.rangeUnreachable()
			c.icontextPairing()
			c.mmuOrder()
			c.cpuidMask()
			c.usercopyReg()
			out = append(out, c.findings...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Module != b.Module {
			return a.Module < b.Module
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Detail < b.Detail
	})
	return out
}

type checker struct {
	m        *ir.Module
	f        *ir.Function
	fr       *analysis.FuncRanges
	findings []Finding
}

func (c *checker) report(rule string, b *ir.BasicBlock, format string, args ...any) {
	blk := "?"
	if b != nil {
		blk = b.Nm
	}
	c.findings = append(c.findings, Finding{
		Rule:   rule,
		Module: c.m.Name,
		Func:   c.f.Nm,
		Block:  blk,
		Detail: fmt.Sprintf(format, args...),
	})
}

func stripCasts(v ir.Value) ir.Value {
	for {
		in, ok := v.(*ir.Instr)
		if !ok || in.Op != ir.OpBitcast {
			return v
		}
		v = in.Args[0]
	}
}

// certainTrap flags bounds checks whose typed GEP has an array index whose
// interval excludes every legal value: the run-time check always fails.
func (c *checker) certainTrap() {
	for _, b := range c.f.Blocks {
		for _, in := range b.Instrs {
			name, ok := in.IsIntrinsicCall()
			if !ok || (name != svaops.BoundsCheck && name != svaops.ExactCheck) || !c.fr.RangeReachable(b) {
				continue
			}
			g, okg := stripCasts(in.Args[2]).(*ir.Instr)
			if !okg || g.Op != ir.OpGEP {
				continue
			}
			cur := g.Args[0].Type().Elem()
			for k := 2; k < len(g.Args); k++ {
				if cur.Kind() == ir.StructKind {
					if ci, okc := g.Args[k].(*ir.ConstInt); okc {
						fi := ci.SignedValue()
						if fi >= 0 && fi < int64(cur.NumFields()) {
							cur = cur.Field(int(fi))
							continue
						}
					}
					break
				}
				if cur.Kind() != ir.ArrayKind {
					break
				}
				n := int64(cur.Len())
				iv := c.fr.At(g.Args[k], b)
				if !iv.IsEmpty() && analysis.Meet(iv, analysis.Range(0, n-1)).IsEmpty() {
					c.report("certain-trap", b,
						"bounds check always fails: index %s into [%d x ...]", iv, n)
					break
				}
				cur = cur.Elem()
			}
		}
	}
}

// rangeUnreachable flags blocks the CFG reaches but range propagation
// proves dead (a decided branch condition).
func (c *checker) rangeUnreachable() {
	for _, b := range c.f.CFG().RPO {
		if !c.fr.RangeReachable(b) {
			c.report("range-unreachable", b,
				"block is CFG-reachable but a decided branch condition proves it never executes")
		}
	}
}

// icontextPairing flags an icontext.save whose handle reaches a function
// return on some CFG path without an icontext.commit/.load on that handle.
func (c *checker) icontextPairing() {
	closes := func(in *ir.Instr, icp ir.Value) bool {
		name, ok := in.IsIntrinsicCall()
		if !ok || (name != svaops.IContextCommit && name != svaops.IContextLoad) {
			return false
		}
		return stripCasts(in.Args[0]) == icp
	}
	for _, b := range c.f.Blocks {
		for i, in := range b.Instrs {
			name, ok := in.IsIntrinsicCall()
			if !ok || name != svaops.IContextSave {
				continue
			}
			icp := stripCasts(in.Args[0])
			// Scan the rest of the save's block, then DFS successors.
			closed := false
			for _, x := range b.Instrs[i+1:] {
				if closes(x, icp) {
					closed = true
					break
				}
			}
			if closed {
				continue
			}
			cfg := c.f.CFG()
			seen := map[*ir.BasicBlock]bool{}
			var leak *ir.BasicBlock
			var walk func(x *ir.BasicBlock)
			walk = func(x *ir.BasicBlock) {
				if leak != nil || seen[x] {
					return
				}
				seen[x] = true
				for _, y := range x.Instrs {
					if closes(y, icp) {
						return
					}
				}
				t := x.Terminator()
				if t == nil || t.Op == ir.OpRet {
					leak = x
					return
				}
				for _, s := range cfg.Succs[x] {
					walk(s)
				}
			}
			t := b.Terminator()
			if t != nil && t.Op == ir.OpRet {
				leak = b
			}
			for _, s := range cfg.Succs[b] {
				walk(s)
			}
			if leak != nil {
				c.report("icontext-pairing", b,
					"icontext.save of %s reaches return in block %s without icontext.commit",
					in.Args[0].Ident(), leak.Nm)
			}
		}
	}
}

// mmuOrder flags protect/unmap of a constant page address with no
// dominating map of the same address: the mapping was never declared to
// the SVM before its attributes were changed.
func (c *checker) mmuOrder() {
	dom := c.f.DomTree()
	type site struct {
		b *ir.BasicBlock
		i int
	}
	maps := map[int64][]site{}
	for _, b := range c.f.Blocks {
		for i, in := range b.Instrs {
			if name, ok := in.IsIntrinsicCall(); ok && name == svaops.MMUMap {
				if ci, okc := in.Args[0].(*ir.ConstInt); okc {
					maps[ci.SignedValue()] = append(maps[ci.SignedValue()], site{b, i})
				}
			}
		}
	}
	for _, b := range c.f.Blocks {
		for i, in := range b.Instrs {
			name, ok := in.IsIntrinsicCall()
			if !ok || (name != svaops.MMUProtect && name != svaops.MMUUnmap) {
				continue
			}
			ci, okc := in.Args[0].(*ir.ConstInt)
			if !okc {
				continue
			}
			va := ci.SignedValue()
			declared := false
			for _, s := range maps[va] {
				if (s.b == b && s.i < i) || (s.b != b && dom.Dominates(s.b, b)) {
					declared = true
					break
				}
			}
			if !declared {
				c.report("mmu-order", b,
					"%s of 0x%x with no dominating sva.mmu.map of that page", name, va)
			}
		}
	}
}

// cpuidDerived walks v's defining chain looking for an sva.cpu.id call
// that is not bounded by an interposed constant mask <= limit.
func cpuidDerived(v ir.Value, limit int64, depth int) bool {
	if depth > 8 {
		return false
	}
	in, ok := v.(*ir.Instr)
	if !ok {
		return false
	}
	if name, okc := in.IsIntrinsicCall(); okc {
		return name == svaops.CPUID
	}
	switch in.Op {
	case ir.OpAnd:
		// A constant mask within the array bound closes the idiom.
		for _, a := range in.Args {
			if ci, okc := a.(*ir.ConstInt); okc && ci.SignedValue() >= 0 && ci.SignedValue() <= limit {
				return false
			}
		}
		return cpuidDerived(in.Args[0], limit, depth+1) || cpuidDerived(in.Args[1], limit, depth+1)
	case ir.OpZExt, ir.OpSExt, ir.OpTrunc:
		return cpuidDerived(in.Args[0], limit, depth+1)
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpOr, ir.OpXor, ir.OpShl:
		return cpuidDerived(in.Args[0], limit, depth+1) || cpuidDerived(in.Args[1], limit, depth+1)
	case ir.OpURem, ir.OpSRem, ir.OpUDiv, ir.OpSDiv, ir.OpLShr, ir.OpAShr:
		// Division-like ops bound the result themselves; trust the range
		// analysis to prove those separately.
		return false
	}
	return false
}

// cpuidMask flags array indexing by an unmasked sva.cpu.id derivation.
func (c *checker) cpuidMask() {
	checkGEP := func(b *ir.BasicBlock, in *ir.Instr) {
		cur := in.Args[0].Type().Elem()
		for k := 2; k < len(in.Args); k++ {
			switch cur.Kind() {
			case ir.ArrayKind:
				n := int64(cur.Len())
				if cpuidDerived(in.Args[k], n-1, 0) &&
					!c.fr.At(in.Args[k], b).Within(0, n-1) {
					c.report("cpuid-mask", b,
						"sva.cpu.id-derived index into [%d x ...] without a bounding mask", n)
				}
				cur = cur.Elem()
			case ir.StructKind:
				ci, okc := in.Args[k].(*ir.ConstInt)
				if !okc {
					return
				}
				fi := ci.SignedValue()
				if fi < 0 || fi >= int64(cur.NumFields()) {
					return
				}
				cur = cur.Field(int(fi))
			default:
				return
			}
		}
	}
	for _, b := range c.f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpGEP {
				checkGEP(b, in)
			}
		}
	}
}

// userCopyIn maps user-copy callees to the argument index of the kernel
// destination buffer they write into.
var userCopyIn = map[string]int{
	"__copy_from_user":  0,
	"strncpy_from_user": 0,
}

// usercopyReg flags user-copy calls writing into a stack object with no
// dominating registration of that object.  Only meaningful after safety
// compilation (registration calls exist only then).
func (c *checker) usercopyReg() {
	if !c.f.SafetyCompiled {
		return
	}
	dom := c.f.DomTree()
	type site struct {
		b *ir.BasicBlock
		i int
	}
	regs := map[ir.Value][]site{}
	for _, b := range c.f.Blocks {
		for i, in := range b.Instrs {
			if name, ok := in.IsIntrinsicCall(); ok &&
				(name == svaops.ObjRegister || name == svaops.ObjRegisterStack) {
				regs[stripCasts(in.Args[1])] = append(regs[stripCasts(in.Args[1])], site{b, i})
			}
		}
	}
	baseObject := func(v ir.Value) ir.Value {
		for {
			v = stripCasts(v)
			in, ok := v.(*ir.Instr)
			if !ok || in.Op != ir.OpGEP {
				return v
			}
			v = in.Args[0]
		}
	}
	for _, b := range c.f.Blocks {
		for i, in := range b.Instrs {
			if in.Op != ir.OpCall {
				continue
			}
			cf, okf := in.Callee.(*ir.Function)
			if !okf {
				continue
			}
			argi, okc := userCopyIn[cf.Nm]
			if !okc || argi >= len(in.Args) {
				continue
			}
			obj := baseObject(in.Args[argi])
			oi, oka := obj.(*ir.Instr)
			if !oka || oi.Op != ir.OpAlloca {
				continue
			}
			registered := false
			for _, s := range regs[obj] {
				if (s.b == b && s.i < i) || (s.b != b && dom.Dominates(s.b, b)) {
					registered = true
					break
				}
			}
			if !registered {
				c.report("usercopy-reg", b,
					"%s writes into unregistered stack object %s", cf.Nm, obj.Ident())
			}
		}
	}
}
