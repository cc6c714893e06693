package verify_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"dynautosar/internal/core"
	"dynautosar/internal/sim"
	"dynautosar/internal/verify"
	"dynautosar/internal/vm"
)

// --- random safe-program generator ---------------------------------------------

// progBuilder assembles structured random programs that are safe by
// construction (every fragment leaves the stack balanced, loops are
// counted), so the optimizer differential suite runs on a population
// the verifier accepts rather than mostly-rejected noise.
type progBuilder struct {
	rng  *rand.Rand
	code []vm.Instr
}

func (b *progBuilder) emit(op vm.Op, arg ...int32) int32 {
	ins := vm.Instr{Op: op}
	if len(arg) > 0 {
		ins.Arg = arg[0]
	}
	b.code = append(b.code, ins)
	return int32(len(b.code) - 1)
}

func (b *progBuilder) patch(at int32) { b.code[at].Arg = int32(len(b.code)) }

const genGlobals = 4

func (b *progBuilder) g() int32 { return int32(b.rng.Intn(genGlobals)) }

var genBinops = []vm.Op{
	vm.OpAdd, vm.OpSub, vm.OpMul, vm.OpDiv, vm.OpMod, vm.OpMin, vm.OpMax,
	vm.OpAnd, vm.OpOr, vm.OpXor, vm.OpShl, vm.OpShr,
	vm.OpEq, vm.OpNe, vm.OpLt, vm.OpLe, vm.OpGt, vm.OpGe,
}

// fragment emits one stack-balanced unit; depth limits loop/if nesting.
func (b *progBuilder) fragment(depth int) {
	switch k := b.rng.Intn(12); {
	case k == 0: // constant arithmetic into a global (folding fodder)
		b.emit(vm.OpPush, int32(b.rng.Intn(21)-10))
		b.emit(vm.OpPush, int32(b.rng.Intn(21)-10))
		b.emit(genBinops[b.rng.Intn(len(genBinops))])
		b.emit(vm.OpStg, b.g())
	case k == 1: // load-op-store
		b.emit(vm.OpLdg, b.g())
		b.emit(vm.OpLdg, b.g())
		b.emit(genBinops[b.rng.Intn(len(genBinops))])
		b.emit(vm.OpStg, b.g())
	case k == 2: // arg combine
		b.emit(vm.OpArg)
		b.emit(vm.OpPush, int32(b.rng.Intn(9)+1))
		b.emit(genBinops[b.rng.Intn(len(genBinops))])
		b.emit(vm.OpStg, b.g())
	case k == 3: // possibly-dead store pair
		g := b.g()
		b.emit(vm.OpPush, int32(b.rng.Intn(100)))
		b.emit(vm.OpStg, g)
		b.emit(vm.OpPush, int32(b.rng.Intn(100)))
		b.emit(vm.OpStg, g)
	case k == 4: // port write
		b.emit(vm.OpLdg, b.g())
		b.emit(vm.OpPwr, 1)
	case k == 5: // dead pure code
		b.emit(vm.OpLdg, b.g())
		b.emit(vm.OpPop)
		b.emit(vm.OpNop)
	case k == 6: // constant branch (simplification fodder)
		br := vm.OpJz
		if b.rng.Intn(2) == 0 {
			br = vm.OpJnz
		}
		b.emit(vm.OpPush, int32(b.rng.Intn(2)))
		j := b.emit(br, 0)
		b.fragment(0)
		b.patch(j)
	case k == 7 && depth < 2: // data-dependent if/else
		b.emit(vm.OpLdg, b.g())
		jz := b.emit(vm.OpJz, 0)
		b.fragment(depth + 1)
		jmp := b.emit(vm.OpJmp, 0)
		b.patch(jz)
		b.fragment(depth + 1)
		b.patch(jmp)
	case k == 8 && depth < 2: // counted while-loop (rotation fodder)
		c := b.g()
		b.emit(vm.OpPush, int32(b.rng.Intn(5)+1))
		b.emit(vm.OpStg, c)
		loop := b.emit(vm.OpLdg, c)
		jz := b.emit(vm.OpJz, 0)
		b.fragment(depth + 1)
		b.emit(vm.OpLdg, c)
		b.emit(vm.OpPush, 1)
		b.emit(vm.OpSub)
		b.emit(vm.OpStg, c)
		b.emit(vm.OpJmp, loop)
		b.patch(jz)
	case k == 9: // stack shuffle, balanced
		b.emit(vm.OpPush, int32(b.rng.Intn(50)))
		b.emit(vm.OpPush, int32(b.rng.Intn(50)))
		b.emit(vm.OpSwap)
		b.emit(vm.OpSub)
		b.emit(vm.OpStg, b.g())
	case k == 10: // log + timer churn
		b.emit(vm.OpPush, int32(b.rng.Intn(1000)))
		b.emit(vm.OpLog, 0)
		b.emit(vm.OpPop)
		if b.rng.Intn(2) == 0 {
			b.emit(vm.OpPush, int32(b.rng.Intn(500)+1))
			b.emit(vm.OpTset, int32(b.rng.Intn(vm.MaxTimers)))
		} else {
			b.emit(vm.OpTclr, int32(b.rng.Intn(vm.MaxTimers)))
		}
	default: // unary chain
		b.emit(vm.OpLdg, b.g())
		for i := b.rng.Intn(3); i >= 0; i-- {
			b.emit([]vm.Op{vm.OpNeg, vm.OpAbs, vm.OpNot}[b.rng.Intn(3)])
		}
		b.emit(vm.OpStg, b.g())
	}
}

func genSafeProgram(rng *rand.Rand) *vm.Program {
	b := &progBuilder{rng: rng}
	// Message handler body.
	msgEntry := int32(0)
	for i := rng.Intn(6) + 2; i > 0; i-- {
		b.fragment(0)
	}
	b.emit(vm.OpRet)
	// Timer handler body.
	timerEntry := int32(len(b.code))
	for i := rng.Intn(3) + 1; i > 0; i-- {
		b.fragment(0)
	}
	b.emit(vm.OpHalt)
	return &vm.Program{
		Name:    fmt.Sprintf("gen%d", rng.Intn(1<<30)),
		Version: "1.0",
		Ports: []vm.PortDecl{
			{Name: "in", Direction: core.Required},
			{Name: "out", Direction: core.Provided},
		},
		Globals: genGlobals,
		Consts:  []string{"t"},
		Handlers: []vm.Handler{
			{Kind: vm.HandlerMessage, Index: 0, Entry: msgEntry},
			{Kind: vm.HandlerTimer, Index: 0, Entry: timerEntry},
		},
		Code: b.code,
	}
}

// --- differential infrastructure -----------------------------------------------

type diffTraceHost struct{ events []string }

func (h *diffTraceHost) PortWrite(port int, v int64) error {
	h.events = append(h.events, fmt.Sprintf("pw %d %d", port, v))
	return nil
}
func (h *diffTraceHost) SetTimer(id int, d sim.Duration) {
	h.events = append(h.events, fmt.Sprintf("set %d %v", id, d))
}
func (h *diffTraceHost) ClearTimer(id int) { h.events = append(h.events, fmt.Sprintf("clr %d", id)) }
func (h *diffTraceHost) Now() sim.Time     { return 0 }
func (h *diffTraceHost) Log(m string, v int64) {
	h.events = append(h.events, fmt.Sprintf("log %q %d", m, v))
}

func trapClass(err error) error {
	for _, s := range []error{
		vm.ErrBudget, vm.ErrStackOverflow, vm.ErrStackUnderflow,
		vm.ErrDivByZero, vm.ErrCallDepth, vm.ErrStopped, vm.ErrNoHandler,
	} {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}

// diffRun drives both programs through an identical random activation
// sequence and returns a description of the first divergence under the
// optimizer contract (budget faults stop the comparison; the optimized
// side must never fault first or run more instructions).
func diffRun(orig, opt *vm.Program, rng *rand.Rand, budget int) string {
	ho, hp := &diffTraceHost{}, &diffTraceHost{}
	io, err := vm.NewInstance(orig, ho, budget)
	if err != nil {
		return fmt.Sprintf("original instance: %v", err)
	}
	ip, err := vm.NewInstance(opt, hp, budget)
	if err != nil {
		return fmt.Sprintf("optimized instance: %v", err)
	}
	for step := 0; step < 40; step++ {
		var eo, ep error
		var what string
		switch rng.Intn(3) {
		case 0, 1:
			v := int64(rng.Intn(2001) - 1000)
			what = fmt.Sprintf("step %d: deliver %d", step, v)
			eo, ep = io.Deliver(0, v), ip.Deliver(0, v)
		case 2:
			what = fmt.Sprintf("step %d: timer", step)
			eo, ep = io.Timer(0), ip.Timer(0)
		}
		bo, bp := errors.Is(eo, vm.ErrBudget), errors.Is(ep, vm.ErrBudget)
		if bp && !bo {
			return what + ": optimized program budget-faulted but original did not"
		}
		if bo || bp {
			return "" // states fork at a budget fault; contract holds up to here
		}
		if trapClass(eo) != trapClass(ep) {
			return fmt.Sprintf("%s: result diverged: %v vs %v", what, eo, ep)
		}
		if ip.Instructions > io.Instructions {
			return fmt.Sprintf("%s: optimized ran more instructions (%d > %d)", what, ip.Instructions, io.Instructions)
		}
		if fmt.Sprint(ho.events) != fmt.Sprint(hp.events) {
			return fmt.Sprintf("%s: traces diverged:\n  orig: %v\n  opt:  %v", what, ho.events, hp.events)
		}
		if fmt.Sprint(io.ExportGlobals()) != fmt.Sprint(ip.ExportGlobals()) {
			return fmt.Sprintf("%s: globals diverged: %v vs %v", what, io.ExportGlobals(), ip.ExportGlobals())
		}
	}
	return ""
}

// --- the suites ----------------------------------------------------------------

// TestDifferentialOptimizer is the optimizer's main soundness suite:
// 4000 random structured programs, each certified by OptimizeProgram
// (re-verification + battery) and then differentially executed against
// its original over a fresh random activation sequence at several
// budgets. The suite must be non-vacuous: a healthy majority of the
// population has to actually change under optimization.
func TestDifferentialOptimizer(t *testing.T) {
	rng := rand.New(rand.NewSource(testSeed(t, 20260808)))
	changed := 0
	for i := 0; i < 4000; i++ {
		prog := genSafeProgram(rng)
		if err := verify.VerifyProgram(prog); err != nil {
			t.Fatalf("generator produced an unverifiable program: %v\n%s", err, vm.Disassemble(prog))
		}
		opt, rep, err := verify.OptimizeProgram(prog)
		if err != nil {
			t.Fatalf("program %d failed the translation-validation gate: %v\n%s", i, err, vm.Disassemble(prog))
		}
		if !rep.Stats.Changed() {
			continue
		}
		changed++
		for _, budget := range []int{vm.DefaultBudget, 300, 45} {
			if d := diffRun(prog, opt, rng, budget); d != "" {
				t.Fatalf("program %d (budget %d): %s\noriginal:\n%s\noptimized:\n%s",
					i, budget, d, vm.Disassemble(prog), vm.Disassemble(opt))
			}
		}
	}
	if changed < 2000 {
		t.Fatalf("only %d/4000 programs changed under optimization; generator too tame", changed)
	}
	t.Logf("differential optimizer: %d/4000 programs optimized", changed)
}

// TestOptimizeProgramIdentity pins that an already-minimal program
// passes through untouched (same pointer, zero stats).
func TestOptimizeProgramIdentity(t *testing.T) {
	p := &vm.Program{
		Name:     "tiny",
		Ports:    []vm.PortDecl{{Name: "out", Direction: core.Provided}},
		Handlers: []vm.Handler{{Kind: vm.HandlerInit, Entry: 0}},
		Code: []vm.Instr{
			{Op: vm.OpPush, Arg: 7},
			{Op: vm.OpPwr, Arg: 0},
			{Op: vm.OpRet},
		},
	}
	opt, rep, err := verify.OptimizeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Changed() || opt != p {
		t.Fatalf("minimal program was rewritten: %+v", rep.Stats)
	}
}

// TestOptimizeSumLoopInstructions pins the optimizer's gain on the
// example summing loop (examples/asm/sumloop.asm, whose loop the
// benchmark's plugin_compute workload runs) at exact instruction counts per
// activation with N = 1000: the certified upload path must accept the
// rotated loop, because a program the gate rejects falls back to its
// raw form and silently costs the raw count.
func TestOptimizeSumLoopInstructions(t *testing.T) {
	src, err := os.ReadFile("../../examples/asm/sumloop.asm")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := vm.Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := verify.OptimizeProgram(raw)
	if err != nil {
		t.Fatalf("translation validation rejected the sum loop: %v", err)
	}
	for _, c := range []struct {
		name string
		prog *vm.Program
		want uint64
	}{{"optimized", opt, 10009}, {"raw", raw, 11009}} {
		h := &diffTraceHost{}
		in, err := vm.NewInstance(c.prog, h, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Deliver(0, 1000); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if in.Instructions != c.want {
			t.Errorf("%s sum loop: %d instructions for N=1000, want %d", c.name, in.Instructions, c.want)
		}
		if got := fmt.Sprint(h.events); got != "[pw 1 500500]" {
			t.Errorf("%s sum loop wrote %s, want [pw 1 500500]", c.name, got)
		}

		// Steady-state activations of either form must not allocate.
		quiet, err := vm.NewInstance(c.prog, diffHost{}, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		deliver := func() {
			if err := quiet.Deliver(0, 1000); err != nil {
				t.Fatal(err)
			}
		}
		deliver()
		if allocs := testing.AllocsPerRun(100, deliver); allocs != 0 {
			t.Errorf("%s sum loop: %v allocs per activation in steady state, want 0", c.name, allocs)
		}
	}
}

// TestOptimizeProgramRejectsUnverifiable pins the gate's first stage.
func TestOptimizeProgramRejectsUnverifiable(t *testing.T) {
	p := &vm.Program{
		Name:     "bad",
		Handlers: []vm.Handler{{Kind: vm.HandlerInit, Entry: 0}},
		Code:     []vm.Instr{{Op: vm.OpPop}, {Op: vm.OpHalt}},
	}
	if _, _, err := verify.OptimizeProgram(p); err == nil {
		t.Fatal("unverifiable program passed OptimizeProgram")
	}
}
