package vm

import (
	"errors"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"dynautosar/internal/core"
	"dynautosar/internal/sim"
)

// testHost records everything a plug-in does.
type testHost struct {
	writes map[int][]int64
	timers map[int]sim.Duration
	logs   []string
	now    sim.Time
	// failWrite makes PortWrite fail, to exercise fault paths.
	failWrite bool
}

func newTestHost() *testHost {
	return &testHost{writes: make(map[int][]int64), timers: make(map[int]sim.Duration)}
}

func (h *testHost) PortWrite(port int, v int64) error {
	if h.failWrite {
		return errors.New("write refused")
	}
	h.writes[port] = append(h.writes[port], v)
	return nil
}
func (h *testHost) SetTimer(id int, period sim.Duration) { h.timers[id] = period }
func (h *testHost) ClearTimer(id int)                    { delete(h.timers, id) }
func (h *testHost) Now() sim.Time                        { return h.now }
func (h *testHost) Log(msg string, v int64)              { h.logs = append(h.logs, msg) }

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

func mustInstance(t *testing.T, src string, budget int) (*Instance, *testHost) {
	t.Helper()
	h := newTestHost()
	in, err := NewInstance(mustAssemble(t, src), h, budget)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return in, h
}

const echoSrc = `
.plugin echo 1.0
.port in required
.port out provided

on_message in:
	ARG
	PWR out
	RET
`

func TestEchoPlugin(t *testing.T) {
	in, h := mustInstance(t, echoSrc, 0)
	if err := in.Init(); err != nil {
		t.Fatal(err) // no init handler: no-op
	}
	if err := in.Deliver(0, 42); err != nil {
		t.Fatal(err)
	}
	if got := h.writes[1]; len(got) != 1 || got[0] != 42 {
		t.Fatalf("writes = %v", h.writes)
	}
}

func TestArithmetic(t *testing.T) {
	src := `
.plugin calc 1.0
.port in required
.port out provided
on_message in:
	ARG      ; x
	PUSH 3
	MUL      ; 3x
	PUSH 7
	ADD      ; 3x+7
	PUSH 2
	DIV      ; (3x+7)/2
	PWR out
	RET
`
	in, h := mustInstance(t, src, 0)
	if err := in.Deliver(0, 11); err != nil {
		t.Fatal(err)
	}
	if got := h.writes[1][0]; got != 20 {
		t.Fatalf("(3*11+7)/2 = %d, want 20", got)
	}
}

func TestControlFlowLoop(t *testing.T) {
	// Sum 1..N via a loop.
	src := `
.plugin sum 1.0
.port n required
.port out provided
.globals 2
on_message n:
	ARG
	STG 0      ; g0 = n
	PUSH 0
	STG 1      ; g1 = acc
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
`
	in, h := mustInstance(t, src, 0)
	if err := in.Deliver(0, 10); err != nil {
		t.Fatal(err)
	}
	if got := h.writes[1][0]; got != 55 {
		t.Fatalf("sum(1..10) = %d", got)
	}
}

func TestCallRet(t *testing.T) {
	src := `
.plugin callret 1.0
.port in required
.port out provided
on_message in:
	ARG
	CALL double
	CALL double
	PWR out
	RET
double:
	PUSH 2
	MUL
	RET
`
	in, h := mustInstance(t, src, 0)
	_ = in.Deliver(0, 5)
	if got := h.writes[1][0]; got != 20 {
		t.Fatalf("double(double(5)) = %d", got)
	}
}

func TestInitHandlerAndGlobalsPersist(t *testing.T) {
	src := `
.plugin counter 1.0
.port tick required
.port out provided
.globals 1
on_init:
	PUSH 100
	STG 0
	RET
on_message tick:
	LDG 0
	PUSH 1
	ADD
	STG 0
	LDG 0
	PWR out
	RET
`
	in, h := mustInstance(t, src, 0)
	if err := in.Init(); err != nil {
		t.Fatal(err)
	}
	_ = in.Deliver(0, 0)
	_ = in.Deliver(0, 0)
	if got := h.writes[1]; got[0] != 101 || got[1] != 102 {
		t.Fatalf("writes = %v", got)
	}
}

func TestCatchAllMessageHandler(t *testing.T) {
	src := `
.plugin any 1.0
.port a required
.port b required
.port out provided
on_message *:
	PORT
	PWR out
	RET
`
	in, h := mustInstance(t, src, 0)
	_ = in.Deliver(0, 1)
	_ = in.Deliver(1, 1)
	if got := h.writes[2]; got[0] != 0 || got[1] != 1 {
		t.Fatalf("PORT values = %v", got)
	}
}

func TestTimers(t *testing.T) {
	src := `
.plugin timers 1.0
.port out provided
on_init:
	PUSH 5000
	TSET 0
	RET
on_timer 0:
	CLOCK
	PWR out
	TCLR 0
	RET
`
	in, h := mustInstance(t, src, 0)
	_ = in.Init()
	if h.timers[0] != 5000 {
		t.Fatalf("timer period = %v", h.timers[0])
	}
	h.now = 5000
	if err := in.Timer(0); err != nil {
		t.Fatal(err)
	}
	if got := h.writes[0][0]; got != 5000 {
		t.Fatalf("CLOCK = %d", got)
	}
	if _, armed := h.timers[0]; armed {
		t.Fatal("TCLR did not clear timer")
	}
}

func TestBudgetTrap(t *testing.T) {
	src := `
.plugin spin 1.0
.port in required
on_message in:
loop:
	JMP loop
`
	in, _ := mustInstance(t, src, 1000)
	err := in.Deliver(0, 0)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v", err)
	}
	if in.Faults != 1 {
		t.Fatalf("Faults = %d", in.Faults)
	}
}

// TestBudgetAboveInt32 pins the budget pre-check's arithmetic. A manifest
// carries its budget as a uint32, so an instance may be given up to
// 2^32-1; a pre-check that wraps at 2^31 takes every such activation off
// the fused form (and, with the budget tail, into a wrong fault).
func TestBudgetAboveInt32(t *testing.T) {
	prog := mustAssemble(t, fusionSources["sum-loop"])
	run := func(budget int) (uint64, int64, error) {
		host := &latchHost{}
		in, err := NewInstance(prog, host, budget)
		if err != nil {
			t.Fatal(err)
		}
		err = in.Deliver(0, 100)
		return in.Instructions, host.value, err
	}
	wantInstr, wantValue, err := run(1 << 30)
	if err != nil || wantValue != 5050 {
		t.Fatalf("budget 2^30: err %v, wrote %d", err, wantValue)
	}
	for _, budget := range []int{1 << 31, 1<<32 - 1} {
		if instr, value, err := run(budget); err != nil || instr != wantInstr || value != wantValue {
			t.Errorf("budget %d: err %v, %d instructions, wrote %d; budget 2^30: nil, %d, %d",
				budget, err, instr, value, wantInstr, wantValue)
		}
	}
	if prog.exact != nil {
		t.Error("an activation that fits its budget left the register form")
	}
}

// TestRunPastCodeEnd: control flow that leaves the code — falling through
// the last instruction, or returning from a CALL in the last slot — is
// legal for Program.Verify (dead tails may do it) and must end in a
// counted trap, in both compiled forms. Fetching the guard slot counts
// as an instruction, so a budget that ends exactly there faults first.
func TestRunPastCodeEnd(t *testing.T) {
	cases := []struct {
		name string
		code []Instr
		want uint64 // instructions charged, the guard included
	}{
		{"fall-through", []Instr{{Op: OpPush, Arg: 1}}, 2},
		{"fused-fall-through", []Instr{{Op: OpArg}, {Op: OpStg, Arg: 0}}, 3},
		{"last-slot-call", []Instr{{Op: OpJmp, Arg: 2}, {Op: OpRet}, {Op: OpCall, Arg: 1}}, 4},
	}
	for _, tc := range cases {
		prog := &Program{
			Name: "x", Globals: 1, Code: tc.code,
			Handlers: []Handler{{Kind: HandlerInit, Entry: 0}},
		}
		for _, exact := range []bool{false, true} {
			for _, budget := range []int{0, int(tc.want), int(tc.want) - 1} {
				in, err := NewInstance(prog, newTestHost(), budget)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if exact {
					in.comp = compileProgram(prog, false)
				}
				err = in.Init()
				want, wantInstr, wantAt := ErrCodeEnd, tc.want, "at pc "+strconv.Itoa(len(tc.code))+" (END)"
				if budget == int(tc.want)-1 {
					want, wantInstr, wantAt = ErrBudget, tc.want-1, ""
				}
				if !errors.Is(err, want) || !strings.Contains(err.Error(), wantAt) ||
					in.Instructions != wantInstr || in.Faults != 1 {
					t.Errorf("%s exact=%t budget=%d: err %v, %d instructions, %d faults; want %v %q, %d, 1",
						tc.name, exact, budget, err, in.Instructions, in.Faults, want, wantAt, wantInstr)
				}
				if err := in.Init(); !errors.Is(err, want) || in.Faults != 2 {
					t.Errorf("%s exact=%t budget=%d: second activation: err %v, %d faults",
						tc.name, exact, budget, err, in.Faults)
				}
			}
		}
	}
}

func TestDivByZeroTrap(t *testing.T) {
	src := `
.plugin div 1.0
.port in required
.port out provided
on_message in:
	PUSH 1
	ARG
	DIV
	PWR out
	RET
`
	in, h := mustInstance(t, src, 0)
	if err := in.Deliver(0, 0); !errors.Is(err, ErrDivByZero) {
		t.Fatalf("err = %v", err)
	}
	if err := in.Deliver(0, 2); err != nil {
		t.Fatal(err)
	}
	if h.writes[1][0] != 0 {
		t.Fatalf("1/2 = %d", h.writes[1][0])
	}
	// MOD traps too.
	src2 := strings.Replace(src, "DIV", "MOD", 1)
	in2, _ := mustInstance(t, src2, 0)
	if err := in2.Deliver(0, 0); !errors.Is(err, ErrDivByZero) {
		t.Fatalf("mod err = %v", err)
	}
}

func TestStackUnderflowTrap(t *testing.T) {
	src := `
.plugin under 1.0
.port in required
on_message in:
	POP
	POP
	RET
`
	in, _ := mustInstance(t, src, 0)
	if err := in.Deliver(0, 0); !errors.Is(err, ErrStackUnderflow) {
		t.Fatalf("err = %v", err)
	}
}

func TestStackOverflowTrap(t *testing.T) {
	src := `
.plugin over 1.0
.port in required
on_message in:
loop:
	PUSH 1
	JMP loop
`
	in, _ := mustInstance(t, src, 0)
	if err := in.Deliver(0, 0); !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("err = %v", err)
	}
}

func TestCallDepthTrap(t *testing.T) {
	src := `
.plugin deep 1.0
.port in required
on_message in:
rec:
	CALL rec
	RET
`
	in, _ := mustInstance(t, src, 0)
	if err := in.Deliver(0, 0); !errors.Is(err, ErrCallDepth) {
		t.Fatalf("err = %v", err)
	}
}

func TestStopSemantics(t *testing.T) {
	in, _ := mustInstance(t, echoSrc, 0)
	in.Stop()
	if err := in.Deliver(0, 1); !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v", err)
	}
	if err := in.Timer(0); !errors.Is(err, ErrStopped) {
		t.Fatalf("timer err = %v", err)
	}
	if !in.Stopped() {
		t.Fatal("Stopped() = false")
	}
}

func TestNoHandler(t *testing.T) {
	src := `
.plugin nohandler 1.0
.port in required
.port other required
on_message in:
	RET
`
	in, _ := mustInstance(t, src, 0)
	if err := in.Deliver(1, 0); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v", err)
	}
	if err := in.Timer(0); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("timer err = %v", err)
	}
	if err := in.Deliver(9, 0); err == nil {
		t.Fatal("undeclared port accepted")
	}
}

func TestPortWriteFailurePropagates(t *testing.T) {
	in, h := mustInstance(t, echoSrc, 0)
	h.failWrite = true
	if err := in.Deliver(0, 1); err == nil || !strings.Contains(err.Error(), "write refused") {
		t.Fatalf("err = %v", err)
	}
}

func TestLogAndStats(t *testing.T) {
	src := `
.plugin logger 1.0
.port in required
.const hello "hello world"
on_message in:
	ARG
	LOG hello
	POP
	RET
`
	in, h := mustInstance(t, src, 0)
	_ = in.Deliver(0, 7)
	if len(h.logs) != 1 || h.logs[0] != "hello world" {
		t.Fatalf("logs = %v", h.logs)
	}
	if in.Activations != 1 || in.Instructions == 0 {
		t.Fatalf("stats: %d activations, %d instructions", in.Activations, in.Instructions)
	}
}

func TestComparisonAndStackOps(t *testing.T) {
	src := `
.plugin cmp 1.0
.port in required
.port out provided
on_message in:
	ARG
	PUSH 10
	LT          ; arg < 10
	JZ big
	PUSH 1
	PWR out
	RET
big:
	PUSH 0
	PWR out
	RET
`
	in, h := mustInstance(t, src, 0)
	_ = in.Deliver(0, 5)
	_ = in.Deliver(0, 15)
	if got := h.writes[1]; got[0] != 1 || got[1] != 0 {
		t.Fatalf("cmp results = %v", got)
	}
}

func TestMinMaxAbsNeg(t *testing.T) {
	src := `
.plugin mm 1.0
.port in required
.port out provided
on_message in:
	ARG
	NEG
	ABS        ; |−arg|
	PUSH 100
	MIN        ; min(|arg|,100)
	PUSH 3
	MAX
	PWR out
	RET
`
	in, h := mustInstance(t, src, 0)
	_ = in.Deliver(0, -250)
	if got := h.writes[1][0]; got != 100 {
		t.Fatalf("clamp(-250) = %d", got)
	}
	_ = in.Deliver(0, 1)
	if got := h.writes[1][1]; got != 3 {
		t.Fatalf("clamp(1) = %d", got)
	}
}

func TestVerifyRejections(t *testing.T) {
	base := mustAssemble(t, echoSrc)
	cases := []func(p *Program){
		func(p *Program) { p.Name = "" },
		func(p *Program) { p.Code = nil },
		func(p *Program) { p.Globals = -1 },
		func(p *Program) { p.Globals = 99999 },
		func(p *Program) { p.Code = []Instr{{Op: OpJmp, Arg: 99}} },
		func(p *Program) { p.Code = []Instr{{Op: OpLdg, Arg: 0}} },
		func(p *Program) { p.Code = []Instr{{Op: OpPwr, Arg: 9}} },
		func(p *Program) { p.Code = []Instr{{Op: OpLog, Arg: 0}} },
		func(p *Program) { p.Code = []Instr{{Op: OpTset, Arg: 99}} },
		func(p *Program) { p.Code = []Instr{{Op: opCount}} },
		func(p *Program) { p.Handlers = []Handler{{Kind: HandlerInit, Entry: 99}} },
		func(p *Program) { p.Handlers = []Handler{{Kind: HandlerMessage, Index: 9}} },
		func(p *Program) { p.Handlers = []Handler{{Kind: HandlerTimer, Index: -1}} },
		func(p *Program) { p.Handlers = []Handler{{Kind: HandlerKind(9)}} },
		func(p *Program) { p.Ports = append(p.Ports, p.Ports[0]) },
		func(p *Program) { p.Ports = []PortDecl{{Name: ""}} },
	}
	for i, mutate := range cases {
		clone := Program{
			Name:     base.Name,
			Version:  base.Version,
			Globals:  base.Globals,
			Consts:   append([]string(nil), base.Consts...),
			Ports:    append([]PortDecl(nil), base.Ports...),
			Handlers: append([]Handler(nil), base.Handlers...),
			Code:     append([]Instr(nil), base.Code...),
		}
		mutate(&clone)
		if err := clone.Verify(); err == nil {
			t.Errorf("case %d: verifier accepted mutated program", i)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	for _, src := range []string{
		"BOGUS",
		".port x sideways",
		".globals many",
		"PUSH",
		"PUSH 1 2",
		"PWR nowhere\n.port in required",
		"on_message ghost:\n RET",
		"JMP missing\n",
		".plugin x\n.const c \"unterminated\nRET",
		".plugin x\nRET extra",
		".unknown 1",
		".plugin x\nl:\nl:\nRET",
	} {
		if _, err := Assemble(".plugin t 1.0\n.port in required\non_message in:\n" + src); err == nil {
			t.Errorf("Assemble accepted %q", src)
		}
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	srcs := []string{echoSrc, `
.plugin full 2.1
.port a required
.port b provided
.globals 3
.const c0 "text with \"quotes\""
on_init:
	PUSH 1000
	TSET 2
	RET
on_message a:
	ARG
	LOG c0
	CALL helper
	PWR b
	RET
on_message *:
	RET
on_timer 2:
	CLOCK
	PWR b
	RET
helper:
	PUSH 2
	MUL
	RET
`}
	for _, src := range srcs {
		p1 := mustAssemble(t, src)
		text := Disassemble(p1)
		p2, err := Assemble(text)
		if err != nil {
			t.Fatalf("reassemble failed: %v\n%s", err, text)
		}
		if len(p1.Code) != len(p2.Code) {
			t.Fatalf("code length changed: %d -> %d", len(p1.Code), len(p2.Code))
		}
		for i := range p1.Code {
			if p1.Code[i] != p2.Code[i] {
				t.Fatalf("instr %d changed: %v -> %v", i, p1.Code[i], p2.Code[i])
			}
		}
		if len(p1.Handlers) != len(p2.Handlers) {
			t.Fatalf("handlers changed")
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	p := mustAssemble(t, echoSrc)
	b, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeProgram(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != p.Name || len(back.Code) != len(p.Code) || len(back.Ports) != len(p.Ports) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	// Corruption is detected.
	b[len(b)-1] ^= 0xFF
	if _, err := DecodeProgram(b); err == nil {
		t.Fatal("corrupted program accepted")
	}
	if _, err := DecodeProgram([]byte{1, 2}); err == nil {
		t.Fatal("truncated program accepted")
	}
}

// TestDecodeProgramBoundsItsCounts: a checksum-valid 28-byte program
// that claims 1<<20 instructions is refused before anything is sized by
// the claim (the decoder used to allocate 8 MB for it and then loop a
// million times past its first error).
func TestDecodeProgramBoundsItsCounts(t *testing.T) {
	body := core.NewEnc(32)
	body.U32(magic)
	body.Str("x")
	body.Str("1")
	body.U16(0)       // ports
	body.U32(0)       // globals
	body.U16(0)       // consts
	body.U16(0)       // handlers
	body.U32(1 << 20) // instructions, none of them present
	enc := core.NewEnc(32)
	enc.U32(core.Checksum(body.Bytes()))
	b := append(enc.Bytes(), body.Bytes()...)
	if len(b) != 28 {
		t.Fatalf("input is %d bytes", len(b))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := DecodeProgram(b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("program with a missing code section accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("decoding 28 bytes allocated %d bytes (err %v)", n, err)
	}
}

func TestPortSpecs(t *testing.T) {
	p := mustAssemble(t, echoSrc)
	specs := p.PortSpecs()
	if len(specs) != 2 || specs[0].Name != "in" || specs[0].Direction != core.Required ||
		specs[1].Direction != core.Provided {
		t.Fatalf("specs = %+v", specs)
	}
}

func TestBudgetDefault(t *testing.T) {
	h := newTestHost()
	in, err := NewInstance(mustAssemble(t, echoSrc), h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in.budget != DefaultBudget {
		t.Fatalf("budget = %d", in.budget)
	}
}

func TestShiftAndBitwise(t *testing.T) {
	src := `
.plugin bits 1.0
.port in required
.port out provided
on_message in:
	ARG
	PUSH 4
	SHL
	PUSH 0xFF
	AND
	PUSH 2
	SHR
	PWR out
	RET
`
	in, h := mustInstance(t, src, 0)
	_ = in.Deliver(0, 7) // (7<<4)&0xFF = 0x70; >>2 = 0x1C = 28
	if got := h.writes[1][0]; got != 28 {
		t.Fatalf("bits = %d", got)
	}
}
