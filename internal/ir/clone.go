package ir

import "fmt"

// CloneFunction deep-copies f into the module under newName: fresh blocks,
// instructions and parameters, with all intra-function references remapped.
// The safety compiler's §4.8 cloning heuristic uses this to give distinct
// call sites distinct copies, so unrelated objects passed through the same
// parameter stop merging in the points-to graph.
func CloneFunction(m *Module, f *Function, newName string) *Function {
	if f.IsDecl() {
		panic("ir: cannot clone body-less @" + f.Nm)
	}
	nf := m.NewFunc(newName, f.Sig)
	nf.Subsystem = f.Subsystem
	nf.Intrinsic = f.Intrinsic
	nf.External = f.External
	nf.NumClones = 0

	valueMap := map[Value]Value{}
	for i, p := range f.Params {
		nf.Params[i].Nm = p.Nm
		valueMap[p] = nf.Params[i]
	}
	blockMap := map[*BasicBlock]*BasicBlock{}
	for _, b := range f.Blocks {
		blockMap[b] = nf.NewBlock(b.Nm)
	}
	copyBlocks(f.Blocks, valueMap, blockMap, func(t *BasicBlock) *BasicBlock {
		panic(fmt.Sprintf("ir: clone of @%s references foreign block %s", f.Nm, t.Nm))
	})
	if f.SigAssert != nil {
		nf.SigAssert = map[int]bool{}
		for k, v := range f.SigAssert {
			nf.SigAssert[k] = v
		}
	}
	nf.Renumber()
	return nf
}

// CloneBlocks copies blocks (all of one function) into that same function,
// appending the copies after its existing blocks with suffix added to each
// label.  References between the copied blocks are remapped — an
// instruction of the set used inside the set, or a branch to a block of
// the set, names the copy — while values and blocks outside the set are
// shared with the originals.  Loop versioning (elision rule R4) uses this
// to give a loop a fast twin whose exit edges join the same successors.
// It returns the original-to-copy block map.
func CloneBlocks(blocks []*BasicBlock, suffix string) map[*BasicBlock]*BasicBlock {
	blockMap := map[*BasicBlock]*BasicBlock{}
	for _, b := range blocks {
		blockMap[b] = b.Func.NewBlock(b.Nm + suffix)
	}
	copyBlocks(blocks, map[Value]Value{}, blockMap, func(t *BasicBlock) *BasicBlock { return t })
	return blockMap
}

// copyBlocks fills each blockMap[b] with a copy of b's instructions.
// Operands are remapped through valueMap (which gains every copied
// instruction) and branch targets through blockMap; a target outside
// blockMap is resolved by foreign.
func copyBlocks(blocks []*BasicBlock, valueMap map[Value]Value, blockMap map[*BasicBlock]*BasicBlock, foreign func(*BasicBlock) *BasicBlock) {
	// First pass: create instruction shells so forward references (phis)
	// resolve.
	for _, b := range blocks {
		nb := blockMap[b]
		for _, in := range b.Instrs {
			ni := &Instr{
				Op: in.Op, Typ: in.Typ, Nm: in.Nm, Pred: in.Pred,
				RMW: in.RMW, AllocTy: in.AllocTy, Pool: in.Pool,
			}
			nb.Append(ni)
			valueMap[in] = ni
		}
	}
	remap := func(v Value) Value {
		if nv, ok := valueMap[v]; ok {
			return nv
		}
		return v // constants, globals, other functions, outside values
	}
	for _, b := range blocks {
		nb := blockMap[b]
		for i, in := range b.Instrs {
			ni := nb.Instrs[i]
			for _, a := range in.Args {
				ni.Args = append(ni.Args, remap(a))
			}
			if in.Callee != nil {
				ni.Callee = remap(in.Callee)
			}
			for _, t := range in.Blocks {
				nt, ok := blockMap[t]
				if !ok {
					nt = foreign(t)
				}
				ni.Blocks = append(ni.Blocks, nt)
			}
		}
	}
}
