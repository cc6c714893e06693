package vm

import (
	"fmt"
	"math/rand"
	"testing"

	"dynautosar/internal/core"
	"dynautosar/internal/sim"
)

// Equivalence tests of the two compiled forms: the fused form must be
// observationally identical to the exact (unfused) form — host calls,
// globals, return values, trap identity and budget accounting,
// Instructions statistics included (a trapping or budget-straddling
// fused op is replayed in the exact form, charging exactly the
// constituent the per-instruction form would have reached). Both arms
// run on this commit; golden_test.go holds them to the past.

// traceHost records every observable host interaction.
type traceHost struct {
	events []string
	// failPort, when >= 0, makes PortWrite to that port fail, to pin
	// the error-exit accounting of fused port writes.
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

// runBoth executes the same delivery on a fused and an unfused instance
// and cross-checks every observable.
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
	plain.comp = compileProgram(prog, false) // reference: no fusion

	ferr := fused.Deliver(port, value)
	perr := plain.Deliver(port, value)

	if (ferr == nil) != (perr == nil) {
		t.Fatalf("budget %d: fused err %v, unfused err %v", budget, ferr, perr)
	}
	if ferr != nil {
		fw, pw := rootSentinel(ferr), rootSentinel(perr)
		if fw != pw {
			t.Fatalf("budget %d: fused trap %v, unfused trap %v", budget, ferr, perr)
		}
	}
	if got, want := fmt.Sprint(fusedHost.events), fmt.Sprint(plainHost.events); got != want {
		t.Fatalf("budget %d: host traces diverge\nfused:   %s\nunfused: %s", budget, got, want)
	}
	fg, pg := fused.ExportGlobals(), plain.ExportGlobals()
	if fmt.Sprint(fg) != fmt.Sprint(pg) {
		t.Fatalf("budget %d: globals diverge: fused %v, unfused %v", budget, fg, pg)
	}
	if fused.Instructions != plain.Instructions {
		t.Fatalf("budget %d: instruction counts diverge: fused %d, unfused %d (err %v)",
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

// fusionSources exercises every peephole rule plus the patterns fusion
// must refuse (jump target in the second slot).
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
	// The rotated form of sum-loop: the decrement-test-branch backedge
	// fuses into cGIncJnz (impure constituents, legal since the exact
	// form replays traps exactly), and the loop body runs check-free.
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
	// cGIncJz with a forward taken target: count down, exit on zero.
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
	// cGIncJz with a backward target: for value 0 the increment of 0
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

func TestFusionEquivalence(t *testing.T) {
	for name, src := range fusionSources {
		t.Run(name, func(t *testing.T) {
			prog := mustAssemble(t, src)
			for _, value := range []int64{0, 1, 7, 1000, -3} {
				// Sweep budgets across the whole range so the trap lands on
				// every architectural instruction at least once, including
				// mid-pair and mid-quad positions.
				for budget := 1; budget <= 64; budget++ {
					runBoth(t, prog, budget, 0, value, -1)
				}
				runBoth(t, prog, 0, 0, value, -1) // default budget, no trap
				runBoth(t, prog, 0, 0, value, 1)  // failing port write
			}
		})
	}
}

// TestFusionFires pins that the pass actually produces superinstructions
// for the canonical hot loops — a silent fusion regression would pass
// the equivalence tests while losing the performance.
func TestFusionFires(t *testing.T) {
	prog := mustAssemble(t, fusionSources["sum-loop"])
	comp := prog.compiledForm()
	counts := map[cop]int{}
	for _, ins := range comp.code {
		counts[ins.op]++
	}
	// The loop-exit branch jumps forward, so hoisting strips its budget
	// check: cLdgJzN, not cLdgJz.
	for _, want := range []cop{cGAddG, cGIncI, cLdgJzN, cArgStg, cPushStg, cLdgPwr} {
		if counts[want] == 0 {
			t.Errorf("sum loop compiled without %v (got %v)", want, counts)
		}
	}

	echo := mustAssemble(t, fusionSources["echo"])
	found := false
	for _, ins := range echo.compiledForm().code {
		if ins.op == cArgPwr {
			found = true
		}
	}
	if !found {
		t.Error("echo handler compiled without ARG.PWR")
	}

	rotated := mustAssemble(t, fusionSources["rotated-sum"])
	found = false
	for _, ins := range rotated.compiledForm().code {
		if ins.op == cGIncJnz {
			found = true
		}
	}
	if !found {
		t.Error("rotated sum loop compiled without G.INC.JNZ")
	}
}

// TestHexFusionDeepStack drives the cGIncJnz backedge at stack depths
// where its transient +2 headroom overflows at the first or second
// architectural constituent, pinning the exact-form replay: the trap must
// land on exactly the constituent the per-instruction scheme reaches.
func TestHexFusionDeepStack(t *testing.T) {
	for _, pushes := range []int{254, 255, 256} {
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
		fusedHex := false
		for _, ins := range prog.compiledForm().code {
			if ins.op == cGIncJnz {
				fusedHex = true
			}
		}
		if !fusedHex {
			t.Fatalf("pushes=%d: backedge did not fuse into G.INC.JNZ", pushes)
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
		got := comp.msgEntry[port]
		if !wantOK {
			want = -1
		}
		if got != want {
			t.Errorf("port %d: compiled entry %d, Program.Handler %d", port, got, want)
		}
	}
	if want, ok := prog.Handler(HandlerInit, 0); ok || comp.initEntry != -1 {
		t.Errorf("init entry = %d, Program.Handler = %d,%v (index!=0 must stay dead)",
			comp.initEntry, want, ok)
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

// TestFusionRandomPrograms cross-checks fused against unfused execution
// over randomly generated (verified) programs with branches, calls and
// traps, across tight budgets.
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
// in the fused and the unfused form at every budget of the sweep, with
// and without a failing port write. The hand-written corpus seeds it.
func FuzzFusedVsExact(f *testing.F) {
	for name, src := range fusionSources {
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
