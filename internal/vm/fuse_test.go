package vm

import (
	"fmt"
	"math/rand"
	"testing"

	"dynautosar/internal/core"
	"dynautosar/internal/sim"
)

// Equivalence tests of the two compiled forms: the register form must be
// observationally identical to the exact form — host calls, globals,
// return values, trap identity and budget accounting, Instructions
// statistics included (a trap or a budget the register form cannot
// prove sufficient is handed to the exact form from the architectural
// state where the op starts, so it lands on exactly the instruction the
// per-instruction form reaches). Both arms run on this commit;
// golden_test.go holds them to the past.

// traceHost records every observable host interaction.
type traceHost struct {
	events []string
	// failPort, when >= 0, makes PortWrite to that port fail, to pin
	// the error-exit accounting of register-form port writes.
	failPort int
}

func newTraceHost() *traceHost { return &traceHost{failPort: -1} }

func (h *traceHost) PortWrite(p int, v int64) error {
	if p == h.failPort {
		return fmt.Errorf("synthetic failure on port %d", p)
	}
	h.events = append(h.events, fmt.Sprintf("pwr %d %d", p, v))
	return nil
}
func (h *traceHost) SetTimer(id int, d sim.Duration) {
	h.events = append(h.events, fmt.Sprintf("tset %d %d", id, d))
}
func (h *traceHost) ClearTimer(id int) {
	h.events = append(h.events, fmt.Sprintf("tclr %d", id))
}
func (h *traceHost) Now() sim.Time { return 42 }
func (h *traceHost) Log(msg string, v int64) {
	h.events = append(h.events, fmt.Sprintf("log %s %d", msg, v))
}

// runBoth executes the same delivery on an instance in the register form
// and one held to the exact form, and cross-checks every observable.
func runBoth(t *testing.T, prog *Program, budget int, port int, value int64, failPort int) {
	t.Helper()
	fusedHost, plainHost := newTraceHost(), newTraceHost()
	fusedHost.failPort, plainHost.failPort = failPort, failPort

	fused, err := NewInstance(prog, fusedHost, budget)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewInstance(prog, plainHost, budget)
	if err != nil {
		t.Fatal(err)
	}
	plain.comp = compileProgram(prog, false) // reference: exact form only

	ferr := fused.Deliver(port, value)
	perr := plain.Deliver(port, value)

	if (ferr == nil) != (perr == nil) {
		t.Fatalf("budget %d: register err %v, exact err %v", budget, ferr, perr)
	}
	if ferr != nil {
		fw, pw := rootSentinel(ferr), rootSentinel(perr)
		if fw != pw {
			t.Fatalf("budget %d: register trap %v, exact trap %v", budget, ferr, perr)
		}
	}
	if got, want := fmt.Sprint(fusedHost.events), fmt.Sprint(plainHost.events); got != want {
		t.Fatalf("budget %d: host traces diverge\nregister: %s\nexact:    %s", budget, got, want)
	}
	fg, pg := fused.ExportGlobals(), plain.ExportGlobals()
	if fmt.Sprint(fg) != fmt.Sprint(pg) {
		t.Fatalf("budget %d: globals diverge: register %v, exact %v", budget, fg, pg)
	}
	if fused.Instructions != plain.Instructions {
		t.Fatalf("budget %d: instruction counts diverge: register %d, exact %d (err %v)",
			budget, fused.Instructions, plain.Instructions, ferr)
	}
}

// rootSentinel maps a trap error to its package sentinel.
func rootSentinel(err error) error {
	for _, s := range []error{ErrBudget, ErrStackOverflow, ErrStackUnderflow,
		ErrCallDepth, ErrDivByZero, ErrCodeEnd, ErrNoHandler, ErrStopped} {
		if errorsIs(err, s) {
			return s
		}
	}
	return nil
}

func errorsIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// fusionSources exercises the register lowering's folds (operands, STG
// into the producer, ADD into the branch) and the block boundaries they
// must not cross (a jump target between a load and its consumer).
var fusionSources = map[string]string{
	"sum-loop": `
.plugin sum 1.0
.port n required
.port out provided
.globals 2
on_message n:
	ARG
	STG 0
	PUSH 0
	STG 1
loop:
	LDG 0
	JZ done
	LDG 1
	LDG 0
	ADD
	STG 1
	LDG 0
	PUSH 1
	SUB
	STG 0
	JMP loop
done:
	LDG 1
	PWR out
	RET
`,
	"echo": `
.plugin echo 1.0
.port in required
.port out provided
on_message in:
	ARG
	PWR out
	RET
`,
	"counter": `
.plugin counter 1.0
.port in required
.port out provided
.globals 1
on_message in:
	LDG 0
	PUSH 1
	ADD
	STG 0
	LDG 0
	PWR out
	RET
`,
	"cmp-branch": `
.plugin cmp 1.0
.port in required
.port out provided
.globals 1
on_message in:
	ARG
	PUSH 10
	LT
	JNZ small
	PUSH 1
	PWR out
	RET
small:
	PUSH 0
	PWR out
	RET
`,
	"target-into-pair": `
.plugin tp 1.0
.port in required
.port out provided
.globals 2
on_message in:
	ARG
	JZ second
	LDG 0
second:
	PUSH 7
	ADD
	STG 1
	LDG 1
	PWR out
	RET
`,
	"stg-ldg": `
.plugin sl 1.0
.port in required
.port out provided
.globals 3
on_message in:
	ARG
	STG 0
	LDG 0
	STG 1
	LDG 1
	PUSH 3
	MUL
	STG 2
	LDG 2
	PWR out
	RET
`,
	"call-ret": `
.plugin cr 1.0
.port in required
.port out provided
.globals 1
on_message in:
	ARG
	STG 0
	CALL bump
	CALL bump
	LDG 0
	PWR out
	RET
bump:
	LDG 0
	PUSH 2
	ADD
	STG 0
	RET
`,
	"div-trap": `
.plugin dt 1.0
.port in required
.port out provided
on_message in:
	PUSH 100
	ARG
	DIV
	PWR out
	RET
`,
	// The rotated form of sum-loop: the body lowers to ADD r1, r1, r0
	// and the decrement-test-branch backedge to one ADD.JNZ, the only
	// budget check of the iteration.
	"rotated-sum": `
.plugin rsum 1.0
.port n required
.port out provided
.globals 2
on_message n:
	ARG
	STG 0
	PUSH 0
	STG 1
	LDG 0
	JZ done
body:
	LDG 1
	LDG 0
	ADD
	STG 1
	LDG 0
	PUSH 1
	SUB
	STG 0
	LDG 0
	JNZ body
done:
	LDG 1
	PWR out
	RET
`,
	// ADD.JZ with a forward taken target: count down, exit on zero.
	"hex-jz-exit": `
.plugin hjz 1.0
.port in required
.port out provided
.globals 1
on_message in:
	ARG
	STG 0
loop:
	LDG 0
	PUSH 1
	SUB
	STG 0
	LDG 0
	JZ done
	JMP loop
done:
	PUSH 99
	PWR out
	RET
`,
	// ADD.JZ with a backward target: for value 0 the increment of 0
	// keeps the global at zero and the loop spins until the budget
	// trap, pinning exact accounting through the fused backedge.
	"hex-jz-spin": `
.plugin hspin 1.0
.port in required
.port out provided
.globals 1
on_message in:
	ARG
	STG 0
spin:
	LDG 0
	PUSH 0
	ADD
	STG 0
	LDG 0
	JZ spin
	LDG 0
	PWR out
	RET
`,
}

// loweringSources drive the register lowering's less common paths: an
// STG while an operand still names the stored global's old value, the
// stack shuffles on slots and on folded operands, DIV/MOD by a variable,
// by a constant and by a constant zero, host calls, and operands left on
// the stack at a branch or a HALT. Kept apart from fusionSources, whose
// programs TestGoldenTraces digests. TestRegisterLowering checks that
// each of them lowers.
var loweringSources = map[string]string{
	"stg-hazard": `
.plugin sh 1.0
.port in required
.port out provided
.globals 2
on_message in:
	LDG 0
	LDG 0
	ARG
	STG 0
	PUSH 2
	ADD
	STG 0
	LDG 0
	ADD
	PWR out
	RET
`,
	"shuffles": `
.plugin sw 1.0
.port in required
.port out provided
.globals 2
on_message in:
	ARG
	PUSH 3
	ADD
	LDG 1
	SWAP
	DUP
	OVER
	SUB
	ADD
	ARG
	PUSH 2
	MUL
	SWAP
	SUB
	LDG 0
	ARG
	SWAP
	OVER
	MUL
	ADD
	ADD
	MUL
	DUP
	STG 1
	PWR out
	RET
`,
	"div-mod": `
.plugin dm 1.0
.port in required
.port out provided
.globals 1
on_message in:
	PUSH 100
	ARG
	DIV
	PUSH 7
	MOD
	STG 0
	LDG 0
	ARG
	PUSH 0
	DIV
	PWR out
	RET
`,
	"host-calls": `
.plugin hc 1.0
.port in required
.port out provided
.globals 3
.const c0 "c"
on_message in:
	LOG c0
	CLOCK
	STG 2
	PRD in
	PORT
	ADD
	LOG c0
	ARG
	NEG
	TSET 1
	TCLR 2
	LDG 2
	PWR out
	RET
`,
	"leftovers": `
.plugin lo 1.0
.port in required
.port out provided
.globals 2
on_message in:
	LDG 0
	LDG 1
	ARG
	JZ skip
	PUSH 1
	ADD
skip:
	ADD
	ARG
	PUSH -3
	LT
	JNZ stop
	ABS
	NOT
	PUSH 3
	SHL
	PUSH 1
	SHR
	PWR out
	RET
stop:
	LDG 0
	ARG
	HALT
`,
}

func TestFusionEquivalence(t *testing.T) {
	for _, corpus := range []map[string]string{fusionSources, loweringSources} {
		for name, src := range corpus {
			t.Run(name, func(t *testing.T) {
				prog := mustAssemble(t, src)
				for _, value := range []int64{0, 1, 7, 1000, -3} {
					// Sweep budgets across the whole range so the trap lands
					// on every architectural instruction at least once,
					// including inside the span of a register op.
					for budget := 1; budget <= 64; budget++ {
						runBoth(t, prog, budget, 0, value, -1)
					}
					runBoth(t, prog, 0, 0, value, -1) // default budget, no trap
					runBoth(t, prog, 0, 0, value, 1)  // failing port write
				}
			})
		}
	}
}

// TestRegisterLowering pins what lowering produces for the canonical
// handlers — a silent regression would pass the equivalence tests while
// losing the performance: the rotated sum loop runs two register ops per
// iteration, the echo handler is PWR + RET, and a handler that is not
// lowerable starts in the exact form.
func TestRegisterLowering(t *testing.T) {
	ops := func(f *form, from, to int32) (got []rop) {
		for i, c := range f.code {
			if from <= f.start[i] && f.start[i] < to {
				got = append(got, c.op)
			}
		}
		return got
	}
	// The body of rotated-sum spans pcs 6..15 (LDG 1 … JNZ body).
	rotated := mustAssemble(t, fusionSources["rotated-sum"]).compiledForm()
	if got := fmt.Sprint(ops(rotated, 6, 16)); got != fmt.Sprint([]rop{rAdd, rAddJnz}) {
		t.Errorf("rotated sum loop body lowered to ops %v, want [ADD ADD.JNZ]", got)
	}
	echo := mustAssemble(t, fusionSources["echo"]).compiledForm()
	if got := fmt.Sprint(ops(echo, 0, 3)); got != fmt.Sprint([]rop{rPwr, rRet}) || echo.msg[0].op != 0 {
		t.Errorf("echo handler lowered to ops %v (entry op %d), want [PWR RET] from op 0", got, echo.msg[0].op)
	}

	for name, src := range loweringSources {
		if f := mustAssemble(t, src).compiledForm(); f.msg[0].op < 0 {
			t.Errorf("%s: handler not lowered", name)
		}
	}

	// CALL makes a handler not lowerable: it starts in the exact form.
	prog := mustAssemble(t, fusionSources["call-ret"])
	if f := prog.compiledForm(); f.msg[0].op >= 0 || len(f.code) != 0 {
		t.Fatalf("call-ret lowered to %d ops from op %d", len(f.code), f.msg[0].op)
	}
	host := newTraceHost()
	in, err := NewInstance(prog, host, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Deliver(0, 3); err != nil || prog.exact == nil || fmt.Sprint(host.events) != "[pwr 1 7]" {
		t.Errorf("call-ret: err %v, exact form built %t, events %v", err, prog.exact != nil, host.events)
	}
}

// TestHexFusionDeepStack drives the fused ADD.JNZ backedge under a deep
// operand stack: at 240 and 246 pushes the handler still fits the
// register file and runs lowered; at 254 its layout does not fit, and at
// 255 and 256 the loop's transient depth would overflow the stack, so
// the handler is not lowerable and the exact form must raise the
// overflow on exactly the instruction the per-instruction scheme reaches.
func TestHexFusionDeepStack(t *testing.T) {
	for _, pushes := range []int{240, 246, 254, 255, 256} {
		code := []Instr{{Op: OpArg}, {Op: OpStg, Arg: 0}}
		for i := 0; i < pushes; i++ {
			code = append(code, Instr{Op: OpPush, Arg: 7})
		}
		loop := int32(len(code))
		code = append(code,
			Instr{Op: OpLdg, Arg: 0},
			Instr{Op: OpPush, Arg: 1},
			Instr{Op: OpSub},
			Instr{Op: OpStg, Arg: 0},
			Instr{Op: OpLdg, Arg: 0},
			Instr{Op: OpJnz, Arg: loop},
			Instr{Op: OpRet},
		)
		prog := &Program{
			Name: "deep", Version: "1.0", Globals: 1,
			Ports: []PortDecl{
				{Name: "in", Direction: core.Required},
				{Name: "out", Direction: core.Provided},
			},
			Handlers: []Handler{{Kind: HandlerMessage, Index: 0, Entry: 0}},
			Code:     code,
		}
		if err := prog.Verify(); err != nil {
			t.Fatal(err)
		}
		f := prog.compiledForm()
		if lowered := f.msg[0].op >= 0; lowered != (pushes <= 246) {
			t.Fatalf("pushes=%d: lowered %t", pushes, lowered)
		}
		if pushes <= 246 && f.code[len(f.code)-2].op != rAddJnz {
			t.Fatalf("pushes=%d: backedge did not lower to ADD.JNZ", pushes)
		}
		for _, budget := range []int{0, 200, 260, 300, 1000} {
			runBoth(t, prog, budget, 0, 3, -1)
		}
	}
}

// TestHandlerTablesMatchLookup pins the compiled O(1) handler tables
// against Program.Handler for the corner cases the table build must
// reproduce: the LAST catch-all message handler wins, the init entry
// requires index 0, and exact port matches beat the catch-all.
func TestHandlerTablesMatchLookup(t *testing.T) {
	code := []Instr{
		{Op: OpRet}, {Op: OpRet}, {Op: OpRet}, {Op: OpRet}, {Op: OpRet},
	}
	prog := &Program{
		Name: "handlers", Version: "1.0",
		Ports: []PortDecl{
			{Name: "a", Direction: core.Required},
			{Name: "b", Direction: core.Required},
		},
		Handlers: []Handler{
			{Kind: HandlerMessage, Index: -1, Entry: 1},
			{Kind: HandlerMessage, Index: 0, Entry: 2},
			{Kind: HandlerMessage, Index: -1, Entry: 3}, // last catch-all wins
			{Kind: HandlerInit, Index: 5, Entry: 4},     // index != 0: dead for Init()
		},
		Code: code,
	}
	if err := prog.Verify(); err != nil {
		t.Fatal(err)
	}
	comp := prog.compiledForm()
	for port := int32(0); port < 2; port++ {
		want, wantOK := prog.Handler(HandlerMessage, port)
		got := comp.msg[port].pc
		if !wantOK {
			want = -1
		}
		if got != want {
			t.Errorf("port %d: compiled entry %d, Program.Handler %d", port, got, want)
		}
	}
	if want, ok := prog.Handler(HandlerInit, 0); ok || comp.init.pc != -1 {
		t.Errorf("init entry = %d, Program.Handler = %d,%v (index!=0 must stay dead)",
			comp.init.pc, want, ok)
	}
}

// programFromBytes decodes arbitrary bytes into a program that passes
// Program.Verify — the one generator behind TestFusionRandomPrograms,
// TestGoldenTraces and FuzzFusedVsExact. Byte 0 picks the handler entry,
// byte 1 the delivered value; every following pair is (opcode, operand),
// each reduced into its legal range (an opcode byte below opCount is that
// Op). Nothing is appended, so a decoded program may run past its last
// instruction. ok is false when the input holds no complete instruction.
func programFromBytes(data []byte) (prog *Program, value int64, ok bool) {
	n := (len(data) - 2) / 2
	if n < 1 {
		return nil, 0, false
	}
	code := make([]Instr, n)
	for i := range code {
		op, b := Op(data[2+2*i]%64), data[3+2*i]
		if op >= opCount {
			// The spare codes are extra value producers, so a random program
			// does not underflow within its first few instructions.
			op = [...]Op{OpPush, OpLdg, OpArg}[op%3]
		}
		ins := Instr{Op: op}
		switch op {
		case OpJmp, OpJz, OpJnz, OpCall:
			ins.Arg = int32(int(b) % n)
		case OpLdg, OpStg:
			ins.Arg = int32(b % 4)
		case OpPrd, OpPwr:
			ins.Arg = int32(b % 2)
		case OpTset, OpTclr:
			ins.Arg = int32(b % maxTimers)
		case OpPush:
			ins.Arg = int32(int8(b))
		}
		code[i] = ins
	}
	return &Program{
		Name:    "rand",
		Version: "1.0",
		Globals: 4,
		Consts:  []string{"c"},
		Ports: []PortDecl{
			{Name: "in", Direction: core.Required},
			{Name: "out", Direction: core.Provided},
		},
		Handlers: []Handler{{Kind: HandlerMessage, Index: 0, Entry: int32(int(data[0]) % n)}},
		Code:     code,
	}, int64(int8(data[1])), true
}

// bytesFromProgram is programFromBytes' inverse for programs inside its
// image (port 0's handler, small operands): it turns the hand-written
// corpus into fuzz seeds.
func bytesFromProgram(p *Program, value int8) []byte {
	entry, _ := p.Handler(HandlerMessage, 0)
	data := []byte{byte(entry), byte(value)}
	for _, ins := range p.Code {
		data = append(data, byte(ins.Op), byte(ins.Arg))
	}
	return data
}

// TestFusionRandomPrograms cross-checks the register form against the
// exact form over randomly generated (verified) programs with branches,
// calls and traps, across tight budgets.
func TestFusionRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(testSeed(t, 7)))
	for iter := 0; iter < 400; iter++ {
		data := make([]byte, 2+2*(8+r.Intn(40)))
		r.Read(data)
		prog, value, _ := programFromBytes(data)
		if err := prog.Verify(); err != nil {
			t.Fatalf("iter %d: generated invalid program: %v", iter, err)
		}
		for _, budget := range []int{1, 2, 3, 5, 9, 17, 60, 500} {
			runBoth(t, prog, budget, 0, value, -1)
		}
	}
}

// FuzzFusedVsExact is the coverage-guided form of the random test: any
// byte string that decodes to a verified program must behave identically
// in the register form (the fused form of the program) and the exact
// form at every budget of the sweep, with and without a failing port
// write. The hand-written corpus seeds it.
func FuzzFusedVsExact(f *testing.F) {
	for _, corpus := range []map[string]string{fusionSources, loweringSources} {
		for name, src := range corpus {
			prog, err := Assemble(src)
			if err != nil {
				f.Fatalf("%s: %v", name, err)
			}
			for _, value := range []int8{0, 7, -3} {
				seed := bytesFromProgram(prog, value)
				if back, _, _ := programFromBytes(seed); fmt.Sprint(back.Code) != fmt.Sprint(prog.Code) {
					f.Fatalf("%s: seed does not decode back to the corpus program", name)
				}
				f.Add(seed)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, value, ok := programFromBytes(data)
		if !ok || prog.Verify() != nil {
			t.Skip()
		}
		for budget := 1; budget <= 64; budget++ {
			runBoth(t, prog, budget, 0, value, -1)
		}
		// Room for the stack and call-depth traps, yet cheap enough to keep
		// the fuzzer's throughput when the program loops and logs.
		runBoth(t, prog, 512, 0, value, -1)
		runBoth(t, prog, 512, 0, value, 1)
	})
}
