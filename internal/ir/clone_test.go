package ir

import "testing"

// TestCloneBlocks copies a loop's blocks inside their own function: uses
// and branch targets within the copied set must name the copies, while
// values and blocks outside it (the loop bound, the exit) stay shared.
func TestCloneBlocks(t *testing.T) {
	m := NewModule("clone")
	b := NewBuilder(m)
	f := b.NewFunc("count", FuncOf(I64, []*Type{I64}, false), "n")
	i := b.Alloca(I64, "i")
	b.Store(I64c(0), i)
	var head, body, exit *BasicBlock
	b.While(func() Value {
		head = b.Cur
		return b.ICmp(PredULT, b.Load(i), b.Param(0))
	}, func() {
		body = b.Cur
		b.Store(b.Add(b.Load(i), I64c(1)), i)
	})
	exit = b.Cur
	b.Ret(b.Load(i))

	copies := CloneBlocks([]*BasicBlock{head, body}, ".v")
	f.Renumber()
	if errs := VerifyModule(m); len(errs) != 0 {
		t.Fatalf("module with cloned blocks does not verify: %v", errs[0])
	}
	h2, b2 := copies[head], copies[body]
	if h2.Nm != head.Nm+".v" || f.Blocks[len(f.Blocks)-1] != b2 {
		t.Fatalf("copies %s, %s not appended with the suffix", h2.Nm, b2.Nm)
	}
	br := h2.Terminator()
	if br.Blocks[0] != b2 || br.Blocks[1] != exit {
		t.Errorf("copied header branches to %s/%s, want %s/%s", br.Blocks[0].Nm, br.Blocks[1].Nm, b2.Nm, exit.Nm)
	}
	if b2.Terminator().Blocks[0] != h2 {
		t.Errorf("copied latch branches to %s, want the copied header", b2.Terminator().Blocks[0].Nm)
	}
	cmp := br.Args[0].(*Instr)
	if cmp.Parent() != h2 || cmp.Args[0].(*Instr).Parent() != h2 {
		t.Error("copied compare does not use the copied load")
	}
	if cmp.Args[1] != Value(f.Params[0]) || cmp.Args[0].(*Instr).Args[0] != Value(i) {
		t.Error("values defined outside the set are not shared")
	}
}
