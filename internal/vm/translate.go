package vm

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"sva/internal/ir"
)

// The translator converts bytecode functions into their executed form (the
// stand-in for the paper's bytecode→native translation, §3.4): per
// instruction, pre-resolved operands the pre-lowered interpreter consumes,
// plus a direct-threaded closure the translated engine dispatches (see
// engine.go).  Translation is lazy — each function translates once, on
// first call — and the compiled form is cached for the life of the
// *machine*: every VCPU of an SMP system shares one cache, so a function
// translates once no matter which CPU calls it first.  internal/bytecode
// adds the on-disk cache with cryptographic signing.
//
// Every config consults the cache; the translation cost appears once per
// function, exactly like a load-time translator with a warm cache
// afterwards.

// operandKind discriminates pre-resolved operands.
type operandKind uint8

const (
	opkConst operandKind = iota // immediate value
	opkReg                      // frame register slot
	opkParam                    // function parameter
)

type coperand struct {
	kind operandKind
	val  uint64 // immediate, slot index, or param index
}

// compiledFunc is the translated form of one function.
type compiledFunc struct {
	fn *ir.Function
	// ops[blockIdx][instrIdx] holds pre-resolved operands per instruction.
	ops [][][]coperand
	// thread[blockIdx][instrIdx] holds the direct-threaded closure per
	// instruction; a nil entry means the engine traps to the interpreter
	// for that instruction (rare ops keep the exec switch as their oracle).
	thread [][]threadedOp
	// leaf[blockIdx][instrIdx] marks closures that cannot alter the frame
	// stack, execution state, privilege, halt latch or interrupt contexts —
	// everything the engine's inner dispatch loop hoists out of the per-step
	// path.  Calls, returns and interpreter fallbacks are never leaves.
	leaf [][]bool
	// runs[blockIdx][instrIdx] is the length of the maximal straight-line
	// run starting there: consecutive leaf closures that also never touch
	// the program counter (no branches).  Within a run the engine retires
	// closures back to back with no per-step checks and flushes fr.idx
	// once at the end; 0 marks instructions that cannot head a run.
	runs [][]int32
}

// coverage reports how many instructions compiled to threaded closures.
func (cf *compiledFunc) coverage() (threaded, total int) {
	for _, blk := range cf.thread {
		for _, op := range blk {
			total++
			if op != nil {
				threaded++
			}
		}
	}
	return threaded, total
}

// engKey keys the compiled-function cache by (function, config): a
// machine holds one config, but a cache shared across domains (see
// SharedCache) may serve VMs running different configs, and the compiled
// closures burn config-dependent behavior in at translate time.
type engKey struct {
	f   *ir.Function
	cfg Config
}

// engineCache is the machine-wide translation state shared by every VCPU
// — and, through SharedCache, by every domain of a multi-domain host:
// compiled functions, GEP plans and the intrinsic-binding generation.
// Reads are lock-free (sync.Map); builds serialize on mu, a leaf lock in
// the documented order (shared.atomics → stateMu → device): compileFunc
// only evaluates constants and inspects IR, never taking another lock.
type engineCache struct {
	mu         sync.Mutex
	translated sync.Map // engKey → *compiledFunc
	gepPlans   sync.Map // *ir.Instr → *gepPlan
	// intrGen counts intrinsic-table mutations.  Compiled call closures
	// bind their handler at translate time and stamp the generation; a
	// mismatch at run time means the table changed underneath them, and
	// the closure re-resolves through the live table.
	intrGen atomic.Uint64
}

func newEngineCache() *engineCache { return &engineCache{} }

// invalidate flushes compiled functions after an intrinsic-table mutation:
// future translations rebind against the live table, and frames still
// holding old compiled forms detect the generation bump per call.
func (e *engineCache) invalidate() {
	e.intrGen.Add(1)
	e.translated.Range(func(k, _ any) bool {
		e.translated.Delete(k)
		return true
	})
}

// translate builds (or fetches) the compiled form of f.  Translation is
// all-or-nothing: a mid-function failure publishes nothing — no compiled
// function, no GEP plans, no Translations count — so a failed translate
// leaves the caches exactly as it found them.
func (vm *VM) translate(f *ir.Function) (*compiledFunc, error) {
	key := engKey{f: f, cfg: vm.Cfg}
	if cf, ok := vm.eng.translated.Load(key); ok {
		return cf.(*compiledFunc), nil
	}
	vm.eng.mu.Lock()
	defer vm.eng.mu.Unlock()
	if cf, ok := vm.eng.translated.Load(key); ok {
		return cf.(*compiledFunc), nil
	}
	cf, plans, err := vm.compileFunc(f)
	if err != nil {
		return nil, err
	}
	// Commit point: everything built, publish atomically enough that no
	// reader observes a partial translation.
	for in, p := range plans {
		vm.eng.gepPlans.Store(in, p)
	}
	vm.eng.translated.Store(key, cf)
	vm.Counters.Translations++
	return cf, nil
}

// SharedCache is a translation cache one host can share across several
// machines (domains).  Sharing is only sound when every sharer resolves
// the cached closures' burned-in constants identically: compiled
// operands embed global and function ADDRESSES, so all sharing VMs must
// load the same modules in the same order (kernel.BuildShared +
// NewSystemShared guarantee this and assert the layout fingerprint).
// Per-domain intrinsic tables are safe regardless — call closures stamp
// the cache's intrinsic generation and re-resolve through the
// dispatching VM's live table on mismatch.
type SharedCache struct {
	eng *engineCache
	// fingerprint pins the loaded-module address layout of the first
	// sharer; later sharers must match (0 = not yet adopted).
	mu          sync.Mutex
	fingerprint uint64
}

// NewSharedCache returns an empty cross-domain translation cache.
func NewSharedCache() *SharedCache { return &SharedCache{eng: newEngineCache()} }

// AdoptLayout records (first caller) or checks (later callers) a VM's
// address-layout fingerprint.  It returns an error when a sharer's
// layout diverges — sharing compiled closures between such VMs would
// resolve burned-in addresses to the wrong objects, so the caller must
// refuse to share rather than boot.
func (sc *SharedCache) AdoptLayout(fp uint64) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.fingerprint == 0 {
		sc.fingerprint = fp
		return nil
	}
	if sc.fingerprint != fp {
		return fmt.Errorf("vm: shared cache layout mismatch: %#x vs %#x", sc.fingerprint, fp)
	}
	return nil
}

// compileFunc builds the full compiled form of f into locals: pre-lowered
// operands, GEP plans (returned for the caller to publish) and the
// direct-threaded closure per instruction.
func (vm *VM) compileFunc(f *ir.Function) (*compiledFunc, map[*ir.Instr]*gepPlan, error) {
	cf := &compiledFunc{fn: f}
	cf.ops = make([][][]coperand, len(f.Blocks))
	plans := map[*ir.Instr]*gepPlan{}
	for bi, b := range f.Blocks {
		cf.ops[bi] = make([][]coperand, len(b.Instrs))
		for ii, in := range b.Instrs {
			ops := make([]coperand, len(in.Args))
			for ai, a := range in.Args {
				op, err := vm.lowerOperand(a)
				if err != nil {
					return nil, nil, err
				}
				ops[ai] = op
			}
			cf.ops[bi][ii] = ops
			// Pre-build the GEP plan during translation so the first
			// execution does not pay for it.
			if in.Op == ir.OpGEP {
				if _, ok := vm.eng.gepPlans.Load(in); !ok {
					if _, ok := plans[in]; !ok {
						plan, err := buildGEPPlan(in)
						if err != nil {
							return nil, nil, err
						}
						plans[in] = plan
					}
				}
			}
		}
	}
	// Second pass: closures.  Runs after all operands are lowered because
	// branch closures pull their targets' phi operands out of cf.ops.
	cf.thread = make([][]threadedOp, len(f.Blocks))
	cf.leaf = make([][]bool, len(f.Blocks))
	cf.runs = make([][]int32, len(f.Blocks))
	for bi, b := range f.Blocks {
		cf.thread[bi] = make([]threadedOp, len(b.Instrs))
		cf.leaf[bi] = make([]bool, len(b.Instrs))
		cf.runs[bi] = make([]int32, len(b.Instrs))
		for ii, in := range b.Instrs {
			top := vm.compileInstr(f, cf, bi, in, cf.ops[bi][ii], plans)
			cf.thread[bi][ii] = top
			// A leaf closure touches only registers, memory and the stack
			// pointer: it cannot push or pop frames, switch executions,
			// change privilege, halt the machine or enter a trap.
			cf.leaf[bi][ii] = top != nil && in.Op != ir.OpCall && in.Op != ir.OpRet
		}
		// Straight-line runs, computed back to front: a run member is a
		// leaf closure that leaves fr.block/fr.idx alone, so every block
		// terminator (branches included) ends the run before it.  Blocks
		// always end in a terminator, so a run never reaches the block's
		// last slot and fr.idx stays in bounds after a full run.
		for ii := len(b.Instrs) - 1; ii >= 0; ii-- {
			op := b.Instrs[ii].Op
			if cf.leaf[bi][ii] && op != ir.OpBr && op != ir.OpCondBr && op != ir.OpSwitch {
				r := int32(1)
				if ii+1 < len(b.Instrs) {
					r += cf.runs[bi][ii+1]
				}
				cf.runs[bi][ii] = r
			}
		}
	}
	return cf, plans, nil
}

func (vm *VM) lowerOperand(v ir.Value) (coperand, error) {
	switch v := v.(type) {
	case *ir.Instr:
		return coperand{kind: opkReg, val: uint64(v.Num())}, nil
	case *ir.Param:
		return coperand{kind: opkParam, val: uint64(v.Idx)}, nil
	default:
		c, err := vm.eval(nil, v) // constants don't touch the frame
		if err != nil {
			return coperand{}, err
		}
		return coperand{kind: opkConst, val: c}, nil
	}
}

// fastEval resolves a pre-lowered operand.
func (fr *Frame) fastEval(op coperand) uint64 {
	switch op.kind {
	case opkConst:
		return op.val
	case opkReg:
		return fr.regs[op.val]
	default:
		return fr.params[op.val]
	}
}

// TranslateModule eagerly translates every defined function of a loaded
// module and returns a deterministic summary of the compiled form — the
// blob internal/bytecode stores in the signed translation cache (§3.4:
// the "native code" the SVM caches on disk next to the bytecode).
func (vm *VM) TranslateModule(m *ir.Module) ([]byte, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "sva-translation config=%s\n", vm.Cfg)
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		cf, err := vm.translate(f)
		if err != nil {
			return nil, fmt.Errorf("vm: translating @%s: %w", f.Nm, err)
		}
		threaded, total := cf.coverage()
		fmt.Fprintf(&buf, "@%s blocks=%d instrs=%d threaded=%d\n",
			f.Nm, len(f.Blocks), total, threaded)
	}
	return buf.Bytes(), nil
}
