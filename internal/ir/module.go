package ir

import (
	"fmt"
	"sort"
)

// Module is an SVA translation unit ("bytecode file"): a set of functions,
// global variables, and declarations, plus the metapool metadata attached by
// the safety-checking compiler.
type Module struct {
	Name    string
	Globals []*Global
	Funcs   []*Function

	// Metapools lists the metapool descriptors the safety-checking compiler
	// created for this module (empty before safety compilation).  The IDs
	// index the VM's run-time metapool table.
	Metapools []*MetapoolDesc

	// CallSets lists, per indirect-call-check set ID, the names of the
	// legal callee functions (control-flow integrity, §4.5).  The VM
	// resolves names to code addresses at load time.
	CallSets [][]string

	globalByName map[string]*Global
	funcByName   map[string]*Function
}

// MetapoolDesc is the static description of one metapool: a set of data
// objects mapping to the same points-to graph partition (paper §4.3).
type MetapoolDesc struct {
	Name string // "MP<n>"
	// TypeHomogeneous marks pools proven to hold a single type (or arrays
	// of it); loads/stores through them need no lscheck.
	TypeHomogeneous bool
	// Complete is false if the partition may contain objects allocated in
	// unanalyzed code ("Incomplete" nodes); such pools get reduced checks.
	Complete bool
	// ElemType is the homogeneous element type (nil if not TH).
	ElemType *Type
	// UserSpace marks pools reachable from system-call arguments: all of
	// userspace is registered with them as a single object (§4.6).
	UserSpace bool
	// Pointee names the metapool that pointers stored in this pool's
	// objects point to ("" if none): the inter-node edge of the points-to
	// graph, encoded for the §5 type checker.
	Pointee string
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{
		Name:         name,
		globalByName: map[string]*Global{},
		funcByName:   map[string]*Function{},
	}
}

// AddGlobal adds a global variable to the module.
func (m *Module) AddGlobal(g *Global) *Global {
	if _, dup := m.globalByName[g.Nm]; dup {
		panic("ir: duplicate global @" + g.Nm)
	}
	m.Globals = append(m.Globals, g)
	m.globalByName[g.Nm] = g
	return g
}

// NewGlobal creates and adds a global variable of the given value type.
func (m *Module) NewGlobal(name string, valueType *Type, init Constant) *Global {
	g := &Global{Nm: name, ValueType: valueType, Init: init}
	return m.AddGlobal(g)
}

// Global looks up a global by name (nil if absent).
func (m *Module) Global(name string) *Global { return m.globalByName[name] }

// AddFunc adds a function to the module.
func (m *Module) AddFunc(f *Function) *Function {
	if _, dup := m.funcByName[f.Nm]; dup {
		panic("ir: duplicate function @" + f.Nm)
	}
	f.Mod = m
	m.Funcs = append(m.Funcs, f)
	m.funcByName[f.Nm] = f
	return f
}

// NewFunc creates and adds a function with the given signature.  Parameter
// names default to p0, p1, ...
func (m *Module) NewFunc(name string, sig *Type) *Function {
	if !sig.IsFunc() {
		panic("ir: NewFunc requires a function type")
	}
	f := &Function{Nm: name, Sig: sig}
	for i, pt := range sig.Params() {
		f.Params = append(f.Params, &Param{Nm: fmt.Sprintf("p%d", i), Typ: pt, Idx: i})
	}
	return m.AddFunc(f)
}

// Func looks up a function by name (nil if absent).
func (m *Module) Func(name string) *Function { return m.funcByName[name] }

// RemoveFunc detaches a function (used by module unload tests).
func (m *Module) RemoveFunc(name string) bool {
	f := m.funcByName[name]
	if f == nil {
		return false
	}
	delete(m.funcByName, name)
	for i, g := range m.Funcs {
		if g == f {
			m.Funcs = append(m.Funcs[:i], m.Funcs[i+1:]...)
			break
		}
	}
	return true
}

// NamedTypes returns the named struct types referenced anywhere in the
// module, sorted by name (for printing and serialization).
func (m *Module) NamedTypes() []*Type {
	seen := map[*Type]bool{}
	var out []*Type
	var visit func(t *Type)
	visit = func(t *Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t.Kind() {
		case PointerKind, ArrayKind:
			visit(t.Elem())
		case StructKind:
			if t.StructName() != "" {
				out = append(out, t)
			}
			for _, f := range t.Fields() {
				visit(f)
			}
		case FuncKind:
			visit(t.Ret())
			for _, p := range t.Params() {
				visit(p)
			}
		}
	}
	for _, g := range m.Globals {
		visit(g.ValueType)
	}
	for _, f := range m.Funcs {
		visit(f.Sig)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				visit(in.Typ)
				if in.AllocTy != nil {
					visit(in.AllocTy)
				}
				for _, a := range in.Args {
					visit(a.Type())
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StructName() < out[j].StructName() })
	return out
}

// Function is an SVA function: an explicit control-flow graph of basic
// blocks over an infinite virtual register set in SSA form.
type Function struct {
	Nm     string
	Sig    *Type // function type
	Params []*Param
	Blocks []*BasicBlock
	Mod    *Module

	// Intrinsic marks body-less operations implemented by the SVM itself
	// (llva.*, sva.*, pchk.*).  External marks other body-less declarations
	// ("unknown" external code, which makes reachable partitions
	// incomplete).
	Intrinsic bool
	External  bool

	// Subsystem tags the kernel component ("core", "net/drivers", "mm",
	// "lib", "fs", ...) for the Table 4/9 accounting and for the §7.1
	// exclusion of mm/lib/char-drivers from safety compilation.
	Subsystem string

	// NumClones counts copies produced by the function-cloning heuristic.
	NumClones int

	// SafetyCompiled marks functions processed by the safety-checking
	// compiler; the bytecode verifier type-checks only these.
	SafetyCompiled bool

	// SigAssert marks call sites annotated with the §4.8 "callee signatures
	// match" assertion; filled by kernel porting code.  Keyed by instruction
	// number after Renumber.
	SigAssert map[int]bool

	// RetPool is the metapool annotation of a pointer return value.
	RetPool string

	nextNum int

	// cfg/dom cache the derived control-flow structures handed out by
	// CFG()/DomTree().  They are invalidated automatically when a block is
	// added or a terminator appended; passes that mutate control flow by
	// other means must call InvalidateCFG.
	cfg *CFG
	dom *DomTree
}

func (f *Function) Type() *Type   { return PointerTo(f.Sig) }
func (f *Function) Ident() string { return "@" + f.Nm }

// Name returns the function's symbol name.
func (f *Function) Name() string { return f.Nm }

// IsDecl reports whether the function has no body.
func (f *Function) IsDecl() bool { return len(f.Blocks) == 0 }

// Entry returns the entry basic block.
func (f *Function) Entry() *BasicBlock {
	if len(f.Blocks) == 0 {
		panic("ir: entry of body-less function @" + f.Nm)
	}
	return f.Blocks[0]
}

// NewBlock appends a new basic block with the given label.
func (f *Function) NewBlock(label string) *BasicBlock {
	b := &BasicBlock{Nm: label, Func: f}
	f.Blocks = append(f.Blocks, b)
	f.InvalidateCFG()
	return b
}

// Renumber assigns stable sequential numbers to all instructions; passes
// that index per-instruction side tables call this first.  When the
// numbering is already current it writes nothing, so renumbering a
// function that other goroutines are executing or reading (a domain
// rebooting from a shared image) is race-free.
func (f *Function) Renumber() {
	if f.numbered() {
		return
	}
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			in.num = n
			n++
		}
	}
	f.nextNum = n
}

// numbered reports whether every instruction already carries its
// position as its number.
func (f *Function) numbered() bool {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.num != n {
				return false
			}
			n++
		}
	}
	return f.nextNum == n
}

// NumInstrs returns the instruction count after the last Renumber.
func (f *Function) NumInstrs() int { return f.nextNum }

// BasicBlock is a straight-line instruction sequence ending in a terminator.
type BasicBlock struct {
	Nm     string
	Instrs []*Instr
	Func   *Function
}

func (b *BasicBlock) Ident() string { return "%" + b.Nm }

// Append adds an instruction to the block.
func (b *BasicBlock) Append(in *Instr) *Instr {
	in.parent = b
	b.Instrs = append(b.Instrs, in)
	if in.Op.IsTerminator() && b.Func != nil {
		b.Func.InvalidateCFG()
	}
	return in
}

// Terminator returns the block's final instruction if it is a terminator.
func (b *BasicBlock) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Terminated reports whether the block already ends in a terminator.
func (b *BasicBlock) Terminated() bool { return b.Terminator() != nil }
