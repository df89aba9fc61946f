package typecheck

import (
	"fmt"
	"testing"

	"sva/internal/ir"
	"sva/internal/pointer"
	"sva/internal/safety"
	"sva/internal/svaops"
)

// richModule builds a kernel-flavoured module with enough variety for the
// bug-injection matrix: TH pools (typed allocations + a linked structure),
// a collapsed pool, cross-function calls, pointer loads/stores, stack
// objects, and variable indexing.
func richModule() *ir.Module {
	m := ir.NewModule("rich")
	bp := svaops.BytePtr

	// Guest allocator (excluded subsystem "mm").
	arena := m.NewGlobal("arena", ir.ArrayOf(1<<16, ir.I8), nil)
	arena.Subsystem = "mm"
	cursor := m.NewGlobal("cursor", ir.I64, ir.I64c(0))
	cursor.Subsystem = "mm"
	b := ir.NewBuilder(m)
	km := b.NewFunc("kmalloc", ir.FuncOf(bp, []*ir.Type{ir.I64}, false), "size")
	km.Subsystem = "mm"
	cur := b.Load(cursor)
	b.Store(b.Add(cur, b.And(b.Add(b.Param(0), ir.I64c(15)), ir.I64c(^int64(15)))), cursor)
	b.Ret(b.GEP(b.Bitcast(arena, bp), cur))
	kf := b.NewFunc("kfree", ir.FuncOf(ir.Void, []*ir.Type{bp}, false), "p")
	kf.Subsystem = "mm"
	b.Ret(nil)

	task := ir.NamedStruct("tc_task_t")
	task.SetBody(ir.I64, ir.PointerTo(task), ir.ArrayOf(8, ir.I8))
	inode := ir.NamedStruct("tc_inode_t")
	inode.SetBody(ir.I32, ir.I32, ir.I64)

	taskList := m.NewGlobal("task_list", ir.PointerTo(task), nil)
	inodeTab := m.NewGlobal("inode_tab", ir.ArrayOf(4, ir.PointerTo(inode)), nil)

	// new_task: allocate, link into the global list.
	b.NewFunc("new_task", ir.FuncOf(ir.PointerTo(task), []*ir.Type{ir.I64}, false), "pid")
	raw := b.Call(km, ir.I64c(32))
	tp := b.Bitcast(raw, ir.PointerTo(task))
	b.Store(b.Param(0), b.FieldAddr(tp, 0))
	head := b.Load(taskList)
	b.Store(head, b.FieldAddr(tp, 1))
	b.Store(tp, taskList)
	b.Ret(tp)

	// find_task: walk the list (pointer loads through the TH pool).
	b.NewFunc("find_task", ir.FuncOf(ir.PointerTo(task), []*ir.Type{ir.I64}, false), "pid")
	curT := b.Alloca(ir.PointerTo(task), "cur")
	b.Store(b.Load(taskList), curT)
	b.While(func() ir.Value {
		return b.ICmp(ir.PredNE, b.Load(curT), ir.Null(ir.PointerTo(task)))
	}, func() {
		t := b.Load(curT)
		pid := b.Load(b.FieldAddr(t, 0))
		hit := b.ICmp(ir.PredEQ, pid, b.Param(0))
		b.If(hit, func() { b.Ret(t) })
		b.Store(b.Load(b.FieldAddr(t, 1)), curT)
	})
	b.Ret(ir.Null(ir.PointerTo(task)))

	// new_inode: typed allocation into a table slot by index.
	b.NewFunc("new_inode", ir.FuncOf(ir.I64, []*ir.Type{ir.I64}, false), "slot")
	ri := b.Call(km, ir.I64c(16))
	ip := b.Bitcast(ri, ir.PointerTo(inode))
	b.Store(ir.I32c(1), b.FieldAddr(ip, 0))
	b.Store(ip, b.Index(inodeTab, b.Param(0)))
	b.Ret(ir.I64c(0))

	// mixed: a collapsed (non-TH) partition via conflicting casts.
	other := ir.NamedStruct("tc_other_t")
	other.SetBody(ir.I16, ir.I16, ir.I32)
	b.NewFunc("mixed", ir.FuncOf(ir.I64, nil, false))
	rm := b.Call(km, ir.I64c(8))
	v1 := b.Bitcast(rm, ir.PointerTo(inode))
	v2 := b.Bitcast(rm, ir.PointerTo(other))
	b.Store(ir.I32c(3), b.FieldAddr(v1, 0))
	b.Store(ir.I16c(4), b.FieldAddr(v2, 0))
	b.Ret(b.ZExt(b.Load(b.FieldAddr(v1, 0)), ir.I64))

	// caller crossing function boundaries with TH pointers.
	b.NewFunc("spawn_two", ir.FuncOf(ir.I64, nil, false))
	t1 := b.Call(m.Func("new_task"), ir.I64c(1))
	b.Call(m.Func("new_task"), ir.I64c(2))
	f1 := b.Call(m.Func("find_task"), ir.I64c(2))
	got := b.ICmp(ir.PredNE, f1, ir.Null(ir.PointerTo(task)))
	b.Ret(b.Add(b.ZExt(got, ir.I64), b.Load(b.FieldAddr(t1, 0))))

	// Five linked lists of distinct node types, each headed by a global:
	// pointer loads through ten pools (edge, split) and typed global
	// registrations in TH pools (th-claim).
	for k := 0; k < 5; k++ {
		node := ir.NamedStruct(fmt.Sprintf("tc_node%d_t", k))
		fields := []*ir.Type{ir.PointerTo(node)}
		for j := 0; j <= k; j++ {
			fields = append(fields, ir.I64)
		}
		node.SetBody(fields...)
		listHead := m.NewGlobal(fmt.Sprintf("list%d", k), ir.PointerTo(node), nil)
		b.NewFunc(fmt.Sprintf("push%d", k), ir.FuncOf(ir.I64, []*ir.Type{ir.I64}, false), "v")
		np := b.Bitcast(b.Call(km, ir.I64c(int64(8*(k+2)))), ir.PointerTo(node))
		b.Store(b.Param(0), b.FieldAddr(np, 1))
		b.Store(b.Load(listHead), b.FieldAddr(np, 0))
		b.Store(np, listHead)
		b.Ret(ir.I64c(0))
		b.NewFunc(fmt.Sprintf("second%d", k), ir.FuncOf(ir.I64, nil, false))
		first := b.Load(listHead)
		next := b.Load(b.FieldAddr(first, 0))
		b.Ret(b.Load(b.FieldAddr(next, 1)))
	}

	// Five range-guarded table reads (rule R3, each leaning on its own
	// guard constant) and five unguarded ones (rule R5 exact checks on
	// the registered tables).
	for k := 0; k < 5; k++ {
		tab := m.NewGlobal(fmt.Sprintf("tab%d", k), ir.ArrayOf(8+k, ir.I64), nil)
		b.NewFunc(fmt.Sprintf("tab_get%d", k), ir.FuncOf(ir.I64, []*ir.Type{ir.I64}, false), "i")
		in := b.ICmp(ir.PredULT, b.Param(0), ir.I64c(int64(4+k)))
		b.If(in, func() { b.Ret(b.Load(b.Index(tab, b.Param(0)))) })
		b.Ret(ir.I64c(0))
		b.NewFunc(fmt.Sprintf("tab_set%d", k), ir.FuncOf(ir.Void, []*ir.Type{ir.I64, ir.I64}, false), "i", "v")
		b.Store(b.Param(1), b.Index(tab, b.Param(0)))
		b.Ret(nil)
	}

	// csum: a byte loop whose bound is a parameter (rule R4).
	b.NewFunc("csum", ir.FuncOf(ir.I64, []*ir.Type{ir.I64}, false), "n")
	buf := b.Call(km, ir.I64c(256))
	sum := b.Alloca(ir.I64, "sum")
	b.Store(ir.I64c(0), sum)
	j := b.Alloca(ir.I64, "j")
	b.Store(ir.I64c(4), j)
	b.While(func() ir.Value {
		return b.ICmp(ir.PredULT, b.Load(j), b.Param(0))
	}, func() {
		b.Store(b.Add(b.Load(sum), b.ZExt(b.Load(b.GEP(buf, b.Load(j))), ir.I64)), sum)
		b.Store(b.Add(b.Load(j), ir.I64c(1)), j)
	})
	b.Ret(b.Load(sum))

	// The entry function receives the global registrations.
	b.NewFunc("rich_entry", ir.FuncOf(ir.Void, nil, false))
	b.Ret(nil)

	return m
}

func compile(t *testing.T) (*safety.Program, *ir.Module) {
	t.Helper()
	m := richModule()
	cfg := safety.Config{
		Pointer: pointer.Config{
			TrackIntToPtrNull: true,
			Allocators: []pointer.AllocatorInfo{
				{Name: "kmalloc", Kind: pointer.OrdinaryAllocator, SizeArg: 0,
					FreeName: "kfree", FreePtrArg: 0, SizeClasses: true},
			},
			ExcludeSubsystems: []string{"mm"},
		},
		EntryFunc:    "rich_entry",
		PromoteAlloc: "kmalloc",
		PromoteFree:  "kfree",
	}
	p, err := safety.Compile(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	if errs := ir.VerifyModule(m); len(errs) != 0 {
		t.Fatalf("module does not verify: %v", errs[0])
	}
	return p, m
}

func TestCleanProgramPasses(t *testing.T) {
	p, m := compile(t)
	c := New(p.Descs)
	if errs := c.Check(m); len(errs) != 0 {
		t.Fatalf("clean program rejected: %v", errs[0])
	}
}

// TestBugInjectionMatrix reproduces the §5 experiment on the unit
// fixture: for every bug kind (the paper's four plus this reproduction's
// elision kinds), seeds 0-4 must plant 5 distinct corruptions — InjectBug
// wraps seeds past the site count, so repeated descriptions would
// re-plant one bug — and the verifier must reject all 5.
func TestBugInjectionMatrix(t *testing.T) {
	const seeds = 5
	for _, kind := range BugKinds() {
		injected := map[string]bool{}
		detected := 0
		for seed := 0; seed < seeds; seed++ {
			p, m := compile(t)
			desc, ok := InjectBug(kind, seed, p.Descs, m)
			if !ok {
				t.Fatalf("no injection site for %v seed %d", kind, seed)
			}
			if injected[desc] {
				continue
			}
			injected[desc] = true
			errs := New(m.Metapools).Check(m)
			if len(errs) == 0 {
				t.Errorf("%v seed %d NOT detected (%s)", kind, seed, desc)
				continue
			}
			detected++
			t.Logf("%v seed %d: %s -> %v", kind, seed, desc, errs[0])
		}
		if len(injected) != seeds || detected != seeds {
			t.Errorf("%v: %d distinct corruptions injected, %d detected; want %d/%d",
				kind, len(injected), detected, seeds, seeds)
		}
	}
}

func TestCheckerFlagsMissingLSCheck(t *testing.T) {
	p, m := compile(t)
	// Strip every lscheck from the mixed() function: coverage must fail.
	f := m.Func("mixed")
	stripped := false
	for _, b := range f.Blocks {
		var out []*ir.Instr
		for _, in := range b.Instrs {
			if name, ok := in.IsIntrinsicCall(); ok && name == svaops.LSCheck {
				stripped = true
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	if !stripped {
		t.Skip("mixed() got no lschecks; nothing to strip")
	}
	c := New(p.Descs)
	errs := c.Check(m)
	found := false
	for _, e := range errs {
		if te, ok := e.(Error); ok && te.Rule == "coverage" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing lscheck not flagged: %v", errs)
	}
}

func TestCheckerFlagsMissingBoundsCheck(t *testing.T) {
	p, m := compile(t)
	// new_inode has a variable-index GEP into the table; its check is an
	// exact check (rule R5), which covers the GEP like pchk.bounds does.
	f := m.Func("new_inode")
	stripped := false
	for _, b := range f.Blocks {
		var out []*ir.Instr
		for _, in := range b.Instrs {
			if name, ok := in.IsIntrinsicCall(); ok && (name == svaops.BoundsCheck || name == svaops.ExactCheck) {
				stripped = true
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	if !stripped {
		t.Fatal("new_inode had no bounds checks to strip")
	}
	c := New(p.Descs)
	errs := c.Check(m)
	found := false
	for _, e := range errs {
		if te, ok := e.(Error); ok && te.Rule == "coverage" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing bounds check not flagged: %v", errs)
	}
}

func TestCheckerFlagsWrongPoolConstant(t *testing.T) {
	p, m := compile(t)
	// Rewrite one check call's pool-ID constant.
	tampered := false
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if name, ok := in.IsIntrinsicCall(); ok && name == svaops.BoundsCheck && !tampered {
					id := in.Args[0].(*ir.ConstInt).SignedValue()
					in.Args[0] = ir.NewInt(ir.I32, (id+1)%int64(len(p.Descs)))
					tampered = true
				}
			}
		}
	}
	if !tampered {
		t.Fatal("no bounds check found to tamper with")
	}
	c := New(p.Descs)
	if errs := c.Check(m); len(errs) == 0 {
		t.Error("tampered pool constant not detected")
	}
}
