// Package safety implements SVA's safety-checking compiler (paper §4): it
// runs the pointer analysis, maps points-to partitions to metapools,
// registers every object (heap, stack, global, manufactured) with its
// metapool, promotes escaping stack objects to the heap, inserts the
// run-time checks (bounds, load-store, indirect-call), and annotates every
// pointer value with its metapool so the §5 type checker can re-verify the
// whole analysis without trusting this package.
package safety

import (
	"fmt"

	"sva/internal/ir"
	"sva/internal/pointer"
)

// Config controls a safety compilation.
type Config struct {
	// Pointer configures the underlying points-to analysis (allocators,
	// excluded subsystems, user-copy functions).
	Pointer pointer.Config
	// EntryFunc names the kernel entry function where global-object
	// registrations are inserted ("" disables global registration).
	EntryFunc string
	// SizeFuncs maps an allocator name to the guest function returning the
	// allocation size given the same arguments (§4.4: "Each allocator must
	// provide a function that returns the size of an allocation").  When
	// absent, the allocator's SizeArg argument is used directly.
	SizeFuncs map[string]string
	// PromoteAlloc/PromoteFree name the always-available ordinary
	// allocation interface used for stack-to-heap promotion (§4.4).
	PromoteAlloc string
	PromoteFree  string
	// DisableCloning turns off the §4.8 function-cloning heuristic
	// (ablation studies).
	DisableCloning bool
	// DisableDevirt turns off §4.8 devirtualization at signature-asserted
	// indirect call sites (ablation studies).
	DisableDevirt bool
	// DisableElide turns off redundant run-time check elimination
	// (§7.1.3; ablation studies and the elision equivalence tests).
	DisableElide bool
	// DisableRangeElide turns off only elision rule R3 (value-range proven
	// indices), keeping R1/R2: the R3 on/off trap-equivalence suite and
	// elision-delta measurements flip this.
	DisableRangeElide bool
	// DisableLoopVersioning turns off only elision rule R4 (loop-versioned
	// bounds checks): the R4 on/off equivalence suites flip this.
	DisableLoopVersioning bool
	// DisableExactChecks turns off only rule R5 (global-based bounds
	// checks become lookup-free pchk.exact checks): the R5 on/off
	// equivalence suites flip this.
	DisableExactChecks bool
}

// Program is the result of safety compilation over a set of modules.
type Program struct {
	Modules []*ir.Module
	Res     *pointer.Result
	// Descs are the metapool descriptors, in run-time registry order
	// (attached to Modules[0], which must be loaded first).
	Descs []*ir.MetapoolDesc
	// PoolOf maps a points-to node representative ID to its metapool index.
	poolOf map[int]int
	// Metrics are the static Table 9 measurements.
	Metrics Metrics

	cfg Config
}

// Compile runs the full safety-checking pipeline.
func Compile(cfg Config, mods ...*ir.Module) (*Program, error) {
	if len(mods) == 0 {
		return nil, fmt.Errorf("safety: no modules")
	}
	for _, m := range mods {
		if len(m.Metapools) > 0 {
			return nil, fmt.Errorf("safety: module %s is already safety-compiled", m.Name)
		}
		for _, f := range m.Funcs {
			if f.SafetyCompiled {
				return nil, fmt.Errorf("safety: module %s contains safety-compiled functions", m.Name)
			}
		}
	}
	clones := 0
	if !cfg.DisableCloning {
		clones = cloneForPrecision(cfg, mods)
	}

	res := pointer.New(cfg.Pointer, mods...).Run()
	res.MergePools()
	res.MarkUserReachable()

	p := &Program{Modules: mods, Res: res, poolOf: map[int]int{}, cfg: cfg}
	p.Metrics.ClonesCreated = clones
	p.assignMetapools()

	inst := &instrumenter{p: p, cfg: cfg}
	for _, m := range mods {
		if err := inst.module(m); err != nil {
			return nil, err
		}
	}
	var elided elideStats
	checked := map[*ir.Module][]*ir.Function{}
	if !cfg.DisableElide {
		for _, m := range mods {
			s := elideModule(m, !cfg.DisableRangeElide)
			elided.BoundsR1 += s.BoundsR1
			elided.BoundsR2 += s.BoundsR2
			elided.BoundsR3 += s.BoundsR3
			elided.LSR1 += s.LSR1
			checked[m] = s.checked
		}
	}
	p.annotate()
	// collectMetrics recounts from the instruction stream, which cannot
	// attribute an elision to its rule (or a clone to the heuristic):
	// preserve the pass-reported numbers across it.
	clones2, devirt := p.Metrics.ClonesCreated, inst.devirtualized
	p.collectMetrics()
	p.Metrics.ClonesCreated, p.Metrics.Devirtualized = clones2, devirt
	p.Metrics.BoundsElidedR1 = elided.BoundsR1
	p.Metrics.BoundsElidedR2 = elided.BoundsR2
	p.Metrics.BoundsElidedR3 = elided.BoundsR3
	// R4 runs last, on the annotated program: its loop copies inherit
	// their originals' pool annotations, and the Table 9 counts above
	// describe the instrumented program, in which every versioned check
	// is still an inserted (and, on the fallback path, executed) site.
	if !cfg.DisableLoopVersioning {
		for _, m := range mods {
			p.Metrics.BoundsElidedR4 += versionLoops(m, checked[m])
		}
	}
	// R5 runs after R1–R4, on every bounds check that still executes
	// (R4's fallback loops included).
	if !cfg.DisableElide && !cfg.DisableExactChecks {
		for _, m := range mods {
			p.Metrics.BoundsExactR5 += exactChecks(m, inst.globals)
		}
	}

	mods[0].Metapools = p.Descs
	mods[0].CallSets = inst.callSets
	return p, nil
}

// assignMetapools creates one metapool descriptor per points-to partition
// that can hold data objects.
func (p *Program) assignMetapools() {
	for _, n := range p.Res.Nodes() {
		if _, ok := p.poolOf[n.ID()]; ok {
			continue
		}
		// Function-only partitions hold no data objects.
		if n.Flags == pointer.Func {
			continue
		}
		id := len(p.Descs)
		p.poolOf[n.ID()] = id
		th := n.TypeHomogeneous() && !n.Incomplete
		desc := &ir.MetapoolDesc{
			Name:            fmt.Sprintf("MP%d", id),
			TypeHomogeneous: th,
			Complete:        !n.Incomplete,
			UserSpace:       n.UserReachable,
		}
		if th {
			desc.ElemType = n.Ty
		}
		p.Descs = append(p.Descs, desc)
	}
	// Second pass: record inter-pool edges for the type checker.
	for _, n := range p.Res.Nodes() {
		id, ok := p.poolOf[n.ID()]
		if !ok {
			continue
		}
		if pt := n.Pointee(); pt != nil {
			if pid, ok := p.poolOf[pt.ID()]; ok {
				p.Descs[id].Pointee = p.Descs[pid].Name
			}
		}
	}
}

// Pool returns the metapool index of a value's partition (-1 if none).
func (p *Program) Pool(v ir.Value) int {
	n := p.Res.PointsTo(v)
	if n == nil {
		return -1
	}
	id, ok := p.poolOf[n.ID()]
	if !ok {
		return -1
	}
	return id
}

// PoolOfNode returns the metapool index of a partition (-1 if none).
func (p *Program) PoolOfNode(n *pointer.Node) int {
	id, ok := p.poolOf[n.ID()]
	if !ok {
		return -1
	}
	return id
}

// Desc returns the descriptor for pool index id.
func (p *Program) Desc(id int) *ir.MetapoolDesc { return p.Descs[id] }

// annotatedPool reads the pool annotation already on a value.
func annotatedPool(v ir.Value) string {
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

// annotate writes metapool names onto every pointer-typed value of the
// analyzed functions (the §5 type encoding: int *M1 Q).
func (p *Program) annotate() {
	poolName := func(v ir.Value) string {
		id := p.Pool(v)
		if id < 0 {
			return ""
		}
		return p.Descs[id].Name
	}
	for _, m := range p.Modules {
		for _, g := range m.Globals {
			g.Pool = poolName(g)
		}
		for _, f := range m.Funcs {
			if !p.Res.Analyzed(f) {
				continue
			}
			for _, prm := range f.Params {
				if prm.Typ.IsPointer() {
					prm.Pool = poolName(prm)
				}
			}
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if !in.Typ.IsPointer() {
						continue
					}
					if p := poolName(in); p != "" {
						in.Pool = p
					}
					if in.Pool == "" {
						// Instrumentation-inserted casts/indexing were not
						// part of the analysis; they inherit the pool of
						// the value they derive from.
						switch in.Op {
						case ir.OpBitcast, ir.OpGEP, ir.OpIntToPtr:
							in.Pool = annotatedPool(in.Args[0])
						case ir.OpCall:
							// Promoted-alloca allocations: pool of the use.
						}
					}
				}
			}
			if f.Sig.Ret().IsPointer() {
				// The return partition is the ret cell; approximate via
				// any ret instruction's operand annotation during
				// typecheck.  Record from the first ret found.
				for _, b := range f.Blocks {
					t := b.Terminator()
					if t != nil && t.Op == ir.OpRet && len(t.Args) == 1 {
						f.RetPool = poolName(t.Args[0])
						break
					}
				}
			}
		}
	}
}
