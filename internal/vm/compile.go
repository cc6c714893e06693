package vm

// This file holds the two internal forms the interpreter executes, both
// built once per Program (lazily, cached) and shared by its instances.
// The register form (lower.go) is what every activation of a lowerable
// handler starts in: three-address ops over one register file, run by
// runReg. The exact form is the architectural code itself closed by a
// guard slot, run by run: every instruction costs 1 and every branch is
// checked. It is the reference arm of the equivalence tests, the form a
// handler that is not lowerable runs in, and the form the register form
// hands over to on a trap or a budget it cannot prove sufficient.

// Sentinel opcodes of the exact form, never produced from an
// architectural instruction (Program.Verify rejects both).
const (
	// opEnd is the guard slot after the last instruction: falling
	// through the final instruction, or returning from a CALL in the
	// final slot, lands on it and traps with ErrCodeEnd. Dead tails that
	// would run off the end are legal, so Program.Verify cannot reject
	// this statically.
	opEnd = opCount + iota
	// opBudget closes the budget tail (see Instance.handoff): reaching
	// it means the activation used its whole budget. It costs nothing
	// itself.
	opBudget
)

// compiled is the exact form of a Program, or an instance's budget tail.
type compiled struct {
	// code is the architectural code plus the opEnd guard, so every pc a
	// verified program can reach is in range.
	code []Instr
	// blockCost[i] is the length of the straight-line run starting at i,
	// up to and including the next control transfer. The interpreter
	// checks the budget only at handler entry and at transfers, each time
	// pre-charging blockCost of the successor; when it does not fit, the
	// budget expires inside that run (see Instance.handoff).
	blockCost []int32
	// base is the architectural pc of code[0]: zero except in an
	// instance's budget tail.
	base int32
}

// exactForm returns the cached exact form, built on first use: a
// program whose handlers all lower and whose activations neither trap
// nor exhaust their budget never pays for it.
func (p *Program) exactForm() *compiled {
	p.exactOnce.Do(func() { p.exact = compileExact(p) })
	return p.exact
}

// compileExact builds the exact form of a verified program.
func compileExact(p *Program) *compiled {
	n := len(p.Code)
	c := &compiled{
		code:      append(p.Code[:n:n], Instr{Op: opEnd}),
		blockCost: make([]int32, n+1),
	}
	for i := n; i >= 0; i-- {
		c.blockCost[i] = 1
		if !endsBlock(c.code[i].Op) {
			c.blockCost[i] += c.blockCost[i+1]
		}
	}
	return c
}

// endsBlock reports whether the op is a control transfer (it performs
// the budget pre-check for its successor itself) or the guard, which
// nothing follows.
func endsBlock(op Op) bool {
	switch op {
	case OpJmp, OpJz, OpJnz, OpCall, OpRet, OpHalt, opEnd:
		return true
	}
	return false
}

// entry is a handler's start: pc is its architectural entry (-1: no
// handler), op its first register op (-1: the handler is not lowerable
// and runs in the exact form).
type entry struct{ pc, op int32 }

// form is what an Instance dispatches on: the handler tables, the
// register file layout and the register code.
type form struct {
	code []rinstr
	// blockCost[i] is the worst-case architectural instruction count of
	// any run starting at op i, up to and including the next checked
	// transfer (a backward branch taken, RET, the code-end exit).
	// Forward branches pre-charge nothing and a backward conditional
	// branch not taken continues the run, so at a loop header the value
	// covers the whole iteration and the loop's exit path.
	blockCost []int32
	// start[i] is the architectural pc op i starts at; at a branch
	// target, a trapping op and the code-end exit the architectural
	// state there is in the register file (see Instance.toExact).
	start []int32
	// depth is the operand depth at every pc register code reaches, -1
	// elsewhere (handlerDepths).
	depth []int32
	// Register file layout: globals at [0, G), the last value delivered
	// to each port at [G, G+P), the message value and the port at
	// stackBase-2 and stackBase-1, the operand stack slot at depth d at
	// stackBase+d, and consts (PUSH immediates, read-only) from
	// constBase.
	stackBase, constBase int
	consts               []int64
	// O(1) handler tables. msg has the catch-all fallback already
	// applied per port.
	init  entry
	msg   []entry
	timer [maxTimers]entry
}

// compiledForm returns the cached form, lowering on first use. Safe for
// concurrent instances sharing one Program.
func (p *Program) compiledForm() *form {
	p.compileOnce.Do(func() { p.comp = compileProgram(p, true) })
	return p.comp
}

// compileProgram builds the handler tables of a verified program and,
// when lower is set, its register form. lower=false yields a form in
// which every handler runs in the exact form: the equivalence tests'
// reference arm.
func compileProgram(p *Program, lower bool) *form {
	f := &form{init: entry{-1, -1}, msg: make([]entry, len(p.Ports))}
	for i := range f.msg {
		f.msg[i] = entry{-1, -1}
	}
	for i := range f.timer {
		f.timer[i] = entry{-1, -1}
	}
	// Preserve Program.Handler's first-match and catch-all semantics.
	msgAny := int32(-1)
	for _, h := range p.Handlers {
		switch h.Kind {
		case HandlerInit:
			// Init() looks up (HandlerInit, 0): first declaration with
			// index 0 wins, others are dead — exactly Program.Handler.
			if h.Index == 0 && f.init.pc < 0 {
				f.init.pc = h.Entry
			}
		case HandlerMessage:
			if h.Index == -1 {
				// The catch-all fallback is reassigned per declaration in
				// Program.Handler, so the LAST one wins.
				msgAny = h.Entry
			} else if f.msg[h.Index].pc < 0 {
				f.msg[h.Index].pc = h.Entry
			}
		case HandlerTimer:
			if f.timer[h.Index].pc < 0 {
				f.timer[h.Index].pc = h.Entry
			}
		}
	}
	for i := range f.msg {
		if f.msg[i].pc < 0 {
			f.msg[i].pc = msgAny
		}
	}
	if lower {
		lowerProgram(p, f)
	}
	return f
}
