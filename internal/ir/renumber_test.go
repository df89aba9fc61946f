package ir

import (
	"sync"
	"testing"
)

// countLoop builds count(n): a counted loop, several blocks long.
func countLoop() *Function {
	m := NewModule("renumber")
	b := NewBuilder(m)
	f := b.NewFunc("count", FuncOf(I64, []*Type{I64}, false), "n")
	i := b.Alloca(I64, "i")
	b.Store(I64c(0), i)
	b.While(func() Value {
		return b.ICmp(PredULT, b.Load(i), b.Param(0))
	}, func() {
		b.Store(b.Add(b.Load(i), I64c(1)), i)
	})
	b.Ret(b.Load(i))
	return f
}

// TestRenumberCurrentIsReadOnly renumbers an already-numbered function
// while other goroutines read every instruction's number, as a domain
// rebooting from a shared image does while its siblings execute that IR.
// Renumber must write nothing, so the race detector stays silent and the
// readers see the numbering they started with.
func TestRenumberCurrentIsReadOnly(t *testing.T) {
	f := countLoop()
	f.Renumber()
	var want []int
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			want = append(want, in.Num())
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				k := 0
				for _, b := range f.Blocks {
					for _, in := range b.Instrs {
						if in.Num() != want[k] {
							t.Errorf("instruction %d reads number %d", want[k], in.Num())
							return
						}
						k++
					}
				}
			}
		}()
	}
	for iter := 0; iter < 200; iter++ {
		f.Renumber()
	}
	wg.Wait()
	if f.NumInstrs() != len(want) {
		t.Errorf("NumInstrs = %d, want %d", f.NumInstrs(), len(want))
	}
}

// TestRenumberStale checks that Renumber still writes a stale numbering:
// an instruction inserted at the head of a numbered function shifts every
// number after it.
func TestRenumberStale(t *testing.T) {
	f := countLoop()
	f.Renumber()
	entry := f.Entry()
	extra := &Instr{Op: OpAdd, Typ: I64, Args: []Value{I64c(1), I64c(2)}, parent: entry}
	entry.Instrs = append([]*Instr{extra}, entry.Instrs...)
	f.Renumber()
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Num() != n {
				t.Fatalf("instruction at position %d numbered %d", n, in.Num())
			}
			n++
		}
	}
	if f.NumInstrs() != n {
		t.Errorf("NumInstrs = %d, want %d", f.NumInstrs(), n)
	}
}
