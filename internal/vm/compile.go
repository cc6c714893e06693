package vm

import "fmt"

// This file translates verified programs into the two internal forms the
// interpreter executes, each a direct-threaded instruction stream with
// per-block budget costs and O(1) handler entry tables: the fused form
// (superinstructions, check-free forward branches) every activation
// starts in, and the exact form (one slot per architectural instruction,
// every branch checked) the interpreter re-enters when the fused form
// meets a trap or a budget it cannot prove sufficient. Both are built
// once per Program (lazily, cached) and never change observable
// semantics — fuse_test.go pins their equivalence, traps and budget
// accounting included.

// cop is a compiled opcode. The low range mirrors the architectural ops
// 1:1; the high range holds superinstructions produced by the peephole
// fusion pass.
type cop uint8

const (
	// 1:1 translations of the architectural ISA (same order as Op).
	cNop cop = iota
	cPush
	cPop
	cDup
	cSwap
	cOver
	cAdd
	cSub
	cMul
	cDiv
	cMod
	cNeg
	cAbs
	cMin
	cMax
	cAnd
	cOr
	cXor
	cNot
	cShl
	cShr
	cEq
	cNe
	cLt
	cLe
	cGt
	cGe
	cJmp
	cJz
	cJnz
	cCall
	cRet
	cHalt
	cLdg
	cStg
	cPrd
	cPwr
	cArg
	cPort
	cTset
	cTclr
	cClock
	cLog

	// Superinstructions: each stands for the two architectural
	// instructions named in its comment and costs 2 budget units.

	// cAddI/cSubI/cMulI: Push k; Add/Sub/Mul — arithmetic with an
	// immediate, no stack traffic.
	cAddI
	cSubI
	cMulI
	// cPushStg: Push k; Stg g — store an immediate to a global.
	cPushStg
	// cLdgLdg: Ldg a; Ldg b — push two globals.
	cLdgLdg
	// cLdgPush: Ldg g; Push k.
	cLdgPush
	// cLdgJz/cLdgJnz: Ldg g; Jz/Jnz t — branch on a global without
	// touching the stack.
	cLdgJz
	cLdgJnz
	// cLdgPwr: Ldg g; Pwr p — write a global straight to a port.
	cLdgPwr
	// cAddStg/cSubStg/cMulStg: Add/Sub/Mul; Stg g — binary op whose
	// result goes straight to a global.
	cAddStg
	cSubStg
	cMulStg
	// cArgStg: Arg; Stg g — store the message value to a global.
	cArgStg
	// cArgPwr: Arg; Pwr p — echo the message value to a port.
	cArgPwr
	// cCmpJz/cCmpJnz: <compare>; Jz/Jnz t — fused compare-and-branch;
	// arg is the target, arg2 the architectural comparison op.
	cCmpJz
	cCmpJnz

	// Quad superinstructions (cost 4): the two dominant accumulator
	// patterns, with no operand-stack traffic at all.

	// cGAddG: Ldg x; Ldg y; Add; Stg z — g[z] = g[x] + g[y].
	// x and y are packed into arg (12 bits each), z sits in b.
	cGAddG
	// cGIncI: Ldg x; Push k; Add|Sub; Stg x — g[x] += k (Sub stores -k).
	cGIncI

	// Hex superinstructions (cost 6): the fused loop backedge the
	// optimizer's rotation pass exposes. The fourth constituent (Stg) is
	// impure — legal because a budget expiry or trap inside any fused
	// instruction replays its constituents in the exact form instead of
	// being suppressed.

	// cGIncJz/cGIncJnz: Ldg x; Push k; Add|Sub; Stg x; Ldg x; Jz/Jnz t —
	// g[x] += k, then branch on the new value. The 12-bit signed k and
	// the 20-bit target share arg (k<<20 | t); x sits in b.
	cGIncJz
	cGIncJnz

	// Check-free branch variants produced by the budget-hoisting pass:
	// identical semantics minus the per-block budget comparison. Emitted
	// only for branches strictly inside a hoisted loop region, whose
	// whole-iteration cost the loop header's blockCost pre-charges.
	cJmpN
	cJzN
	cJnzN
	cLdgJzN
	cLdgJnzN
	cCmpJzN
	cCmpJnzN

	// cPad fills the tail slots of a fused group; it is never executed
	// (fusion is suppressed when any slot is a jump target).
	cPad

	// Sentinels, never produced from an architectural instruction.

	// cEnd is the guard slot after the last instruction of either form:
	// falling through the final instruction, or returning from a CALL in
	// the final slot, lands on it and traps with ErrCodeEnd. Dead tails
	// that would run off the end are legal, so Program.Verify cannot
	// reject this statically.
	cEnd
	// cBudget closes the budget tail (see Instance.handoff): reaching it
	// means the activation used its whole budget. It costs nothing itself.
	cBudget
)

var copNames = [...]string{
	cNop: "NOP", cPush: "PUSH", cPop: "POP", cDup: "DUP", cSwap: "SWAP",
	cOver: "OVER", cAdd: "ADD", cSub: "SUB", cMul: "MUL", cDiv: "DIV",
	cMod: "MOD", cNeg: "NEG", cAbs: "ABS", cMin: "MIN", cMax: "MAX",
	cAnd: "AND", cOr: "OR", cXor: "XOR", cNot: "NOT", cShl: "SHL",
	cShr: "SHR", cEq: "EQ", cNe: "NE", cLt: "LT", cLe: "LE", cGt: "GT",
	cGe: "GE", cJmp: "JMP", cJz: "JZ", cJnz: "JNZ", cCall: "CALL",
	cRet: "RET", cHalt: "HALT", cLdg: "LDG", cStg: "STG", cPrd: "PRD",
	cPwr: "PWR", cArg: "ARG", cPort: "PORT", cTset: "TSET", cTclr: "TCLR",
	cClock: "CLOCK", cLog: "LOG",
	cAddI: "ADD.I", cSubI: "SUB.I", cMulI: "MUL.I", cPushStg: "PUSH.STG",
	cLdgLdg: "LDG.LDG", cLdgPush: "LDG.PUSH", cLdgJz: "LDG.JZ",
	cLdgJnz: "LDG.JNZ", cLdgPwr: "LDG.PWR", cAddStg: "ADD.STG",
	cSubStg: "SUB.STG", cMulStg: "MUL.STG", cArgStg: "ARG.STG",
	cArgPwr: "ARG.PWR", cCmpJz: "CMP.JZ",
	cCmpJnz: "CMP.JNZ", cGAddG: "G.ADD.G", cGIncI: "G.INC.I",
	cGIncJz: "G.INC.JZ", cGIncJnz: "G.INC.JNZ",
	cJmpN: "JMP.N", cJzN: "JZ.N", cJnzN: "JNZ.N",
	cLdgJzN: "LDG.JZ.N", cLdgJnzN: "LDG.JNZ.N",
	cCmpJzN: "CMP.JZ.N", cCmpJnzN: "CMP.JNZ.N",
	cPad: "PAD", cEnd: "END", cBudget: "BUDGET",
}

// String implements fmt.Stringer.
func (c cop) String() string {
	if int(c) < len(copNames) && copNames[c] != "" {
		return copNames[c]
	}
	return fmt.Sprintf("cop(%d)", uint8(c))
}

// cinstr is one compiled instruction, packed to 8 bytes so each
// dispatch is a single load. Fused superinstructions keep the program
// counter numbering of the architectural code: the pair's first slot
// holds the superinstruction, the second a cPad the interpreter steps
// over, so jump targets stay valid without relocation. Superinstruction
// operands are laid out so the one value that may need 32 bits (an
// immediate or a jump target) lives in arg; the other operand — a
// global slot (<=4096), port, timer or comparison op — always fits b.
type cinstr struct {
	op   cop
	cost uint8  // architectural instructions represented (1, 2, 4 or 6; cBudget 0)
	b    uint16 // secondary operand of superinstructions
	arg  int32
}

// width is the number of code slots the instruction occupies; every
// fused constituent is one architectural instruction, so width == cost.
func (c cinstr) width() int32 { return int32(c.cost) }

// compiled is one executable form of a Program.
type compiled struct {
	// code holds one slot per architectural instruction plus the cEnd
	// guard, so every pc a verified program can reach is in range.
	code []cinstr
	// blockCost[i] is the worst-case architectural instruction count of
	// any run starting at i, up to and including the first *checked*
	// control transfer — check-free forward branches (budget hoisting)
	// extend the region, so at a loop header the value covers a whole
	// iteration. The interpreter checks the budget only at handler entry
	// and at checked transfers, each time pre-charging blockCost of the
	// successor; when a region no longer fits the remaining budget the
	// activation continues in the exact form, where the value is the
	// exact length of the straight-line run to the next transfer.
	blockCost []int32
	// exact marks the unfused form: a trap in it is final.
	exact bool
	// base is the architectural pc of code[0]: zero except in an
	// instance's budget tail (see Instance.handoff).
	base int32
	// O(1) handler entry tables (-1 = no handler). msgEntry has the
	// catch-all fallback already applied per port.
	initEntry  int32
	msgEntry   []int32
	timerEntry [maxTimers]int32
}

// compiledForm returns the cached fused form, translating on first use.
// Safe for concurrent instances sharing one Program.
func (p *Program) compiledForm() *compiled {
	p.compileOnce.Do(func() { p.comp = compileProgram(p, true) })
	return p.comp
}

// exactForm returns the cached exact form, built on the first hand-off:
// a program whose activations neither trap nor exhaust their budget
// never pays for it.
func (p *Program) exactForm() *compiled {
	p.exactOnce.Do(func() { p.exact = compileProgram(p, false) })
	return p.exact
}

// compileProgram translates a verified program. fuse=false skips the
// peephole and hoisting passes and yields the exact form (also the
// equivalence tests' reference).
func compileProgram(p *Program, fuse bool) *compiled {
	n := len(p.Code)
	c := &compiled{
		code:      make([]cinstr, n+1),
		blockCost: make([]int32, n+1),
		exact:     !fuse,
		initEntry: -1,
		msgEntry:  make([]int32, len(p.Ports)),
	}
	c.code[n] = cinstr{op: cEnd, cost: 1}

	// Jump targets (and call return sites) may not disappear into the
	// second slot of a fused pair.
	target := BlockLeaders(p)

	for i := 0; i < n; {
		if fuse && i+5 < n && !target[i+1] && !target[i+2] && !target[i+3] &&
			!target[i+4] && !target[i+5] {
			if sup, ok := fuseHex(p.Code[i], p.Code[i+1], p.Code[i+2],
				p.Code[i+3], p.Code[i+4], p.Code[i+5]); ok {
				c.code[i] = sup
				for j := 1; j < 6; j++ {
					c.code[i+j] = cinstr{op: cPad, cost: 1}
				}
				i += 6
				continue
			}
		}
		if fuse && i+3 < n && !target[i+1] && !target[i+2] && !target[i+3] {
			if sup, ok := fuseQuad(p.Code[i], p.Code[i+1], p.Code[i+2], p.Code[i+3]); ok {
				c.code[i] = sup
				for j := 1; j < 4; j++ {
					c.code[i+j] = cinstr{op: cPad, cost: 1}
				}
				i += 4
				continue
			}
		}
		if fuse && i+1 < n && !target[i+1] {
			if sup, ok := fusePair(p.Code[i], p.Code[i+1]); ok {
				c.code[i] = sup
				c.code[i+1] = cinstr{op: cPad, cost: 1}
				i += 2
				continue
			}
		}
		ins := p.Code[i]
		c.code[i] = cinstr{op: cop(ins.Op), cost: 1, arg: ins.Arg}
		i++
	}

	// Budget hoisting: strictly forward branches become check-free.
	if fuse {
		hoistChecks(c)
	}

	// Worst-case cost to the next checked transfer, walking backwards from
	// the guard. Check-free branches only ever point forward (hoistChecks),
	// so every value this scan needs is already final; a checked transfer
	// contributes only its own width — its check covers what follows.
	for i := n; i >= 0; i-- {
		ci := c.code[i]
		if ci.op == cPad {
			continue // unreachable slot; cost belongs to the group head
		}
		cost := int32(ci.cost)
		switch ci.op {
		case cJmpN:
			cost += c.blockCost[ci.arg]
		case cJzN, cJnzN, cLdgJzN, cLdgJnzN, cCmpJzN, cCmpJnzN:
			cost += max(c.blockCost[ci.arg], c.blockCost[int32(i)+ci.width()])
		default:
			if !endsBlock(ci.op) {
				cost += c.blockCost[int32(i)+ci.width()]
			}
		}
		c.blockCost[i] = cost
	}

	// Handler tables, preserving Program.Handler's first-match and
	// catch-all semantics.
	for i := range c.msgEntry {
		c.msgEntry[i] = -1
	}
	for i := range c.timerEntry {
		c.timerEntry[i] = -1
	}
	msgAny := int32(-1)
	for _, h := range p.Handlers {
		switch h.Kind {
		case HandlerInit:
			// Init() looks up (HandlerInit, 0): first declaration with
			// index 0 wins, others are dead — exactly Program.Handler.
			if h.Index == 0 && c.initEntry < 0 {
				c.initEntry = h.Entry
			}
		case HandlerMessage:
			if h.Index == -1 {
				// The catch-all fallback is reassigned per declaration in
				// Program.Handler, so the LAST one wins.
				msgAny = h.Entry
			} else if c.msgEntry[h.Index] < 0 {
				c.msgEntry[h.Index] = h.Entry
			}
		case HandlerTimer:
			if c.timerEntry[h.Index] < 0 {
				c.timerEntry[h.Index] = h.Entry
			}
		}
	}
	if msgAny >= 0 {
		for i, e := range c.msgEntry {
			if e < 0 {
				c.msgEntry[i] = msgAny
			}
		}
	}
	return c
}

// endsBlock reports whether the compiled op is a checked control
// transfer (it performs the budget pre-check for its successor itself)
// or the guard, which nothing follows: the worst-case-cost scan stops at
// it. The check-free variants are deliberately absent — control flows
// through them unchecked, and their cost-to-next-check is accumulated by
// dedicated cases in the scan.
func endsBlock(op cop) bool {
	switch op {
	case cJmp, cJz, cJnz, cCall, cRet, cHalt, cEnd,
		cLdgJz, cLdgJnz, cCmpJz, cCmpJnz, cGIncJz, cGIncJnz:
		return true
	}
	return false
}

// hoistChecks rewrites every branch whose taken target lies strictly
// forward into its check-free variant. Forward branches never close a
// cycle, so after this pass every CFG cycle still contains a checked
// transfer (its backedge) and the backward worst-case-cost scan in
// compileProgram stays a single pass. The effect is loop-level budget
// hoisting: a loop's interior control flow runs without budget
// comparisons, and the backedge's single check pre-charges the whole
// next iteration (blockCost of the header spans the iteration's worst
// path). Calls, returns and the fused backedges keep their checks.
func hoistChecks(c *compiled) {
	n := int32(len(c.code))
	for i := int32(0); i < n; {
		ci := c.code[i]
		if ci.arg > i {
			switch ci.op {
			case cJmp:
				c.code[i].op = cJmpN
			case cJz:
				c.code[i].op = cJzN
			case cJnz:
				c.code[i].op = cJnzN
			case cLdgJz:
				c.code[i].op = cLdgJzN
			case cLdgJnz:
				c.code[i].op = cLdgJnzN
			case cCmpJz:
				c.code[i].op = cCmpJzN
			case cCmpJnz:
				c.code[i].op = cCmpJnzN
			}
		}
		i += ci.width()
	}
}

// fuseHex matches the six-instruction counted-loop backedge the
// optimizer's loop-rotation pass canonicalizes:
//
//	Ldg x; Push k; Add|Sub; Stg x; Ldg x; Jz|Jnz t
//
// i.e. g[x] += k (Sub adds -k) followed by a branch on the new value.
// The immediate must fit 12 signed bits and the target 20 bits (every
// verified program has at most 1<<20 instructions) because they share
// the arg word.
func fuseHex(a, b, c, d, e, f Instr) (cinstr, bool) {
	if a.Op != OpLdg || b.Op != OpPush || (c.Op != OpAdd && c.Op != OpSub) ||
		d.Op != OpStg || e.Op != OpLdg {
		return cinstr{}, false
	}
	if a.Arg != d.Arg || a.Arg != e.Arg {
		return cinstr{}, false
	}
	if f.Op != OpJz && f.Op != OpJnz {
		return cinstr{}, false
	}
	k := b.Arg
	if c.Op == OpSub {
		if k == -k { // math.MinInt32 has no negation
			return cinstr{}, false
		}
		k = -k
	}
	if k < -(1<<11) || k >= 1<<11 || f.Arg >= 1<<20 {
		return cinstr{}, false
	}
	op := cGIncJz
	if f.Op == OpJnz {
		op = cGIncJnz
	}
	return cinstr{op: op, cost: 6, arg: k<<20 | f.Arg, b: uint16(a.Arg)}, true
}

// fuseQuad matches the two four-instruction accumulator rules.
func fuseQuad(a, b, c, d Instr) (cinstr, bool) {
	if a.Op != OpLdg || d.Op != OpStg {
		return cinstr{}, false
	}
	switch {
	case b.Op == OpLdg && c.Op == OpAdd:
		// g[d] = g[a] + g[b]; slot indices are verified < 4096.
		return cinstr{op: cGAddG, cost: 4, arg: a.Arg<<12 | b.Arg, b: uint16(d.Arg)}, true
	case b.Op == OpPush && (c.Op == OpAdd || c.Op == OpSub) && a.Arg == d.Arg:
		k := b.Arg
		if c.Op == OpSub {
			if k == -k { // math.MinInt32 has no negation
				return cinstr{}, false
			}
			k = -k
		}
		return cinstr{op: cGIncI, cost: 4, arg: k, b: uint16(a.Arg)}, true
	}
	return cinstr{}, false
}

// fusePair matches one peephole rule. Rules are free to span impure
// constituents: a budget expiry or trap inside a fused instruction is
// replayed in the exact form, so equivalence with the unfused execution
// never depends on which constituents were skipped.
func fusePair(a, b Instr) (cinstr, bool) {
	switch a.Op {
	case OpPush:
		switch b.Op {
		case OpAdd:
			return cinstr{op: cAddI, cost: 2, arg: a.Arg}, true
		case OpSub:
			return cinstr{op: cSubI, cost: 2, arg: a.Arg}, true
		case OpMul:
			return cinstr{op: cMulI, cost: 2, arg: a.Arg}, true
		case OpStg:
			return cinstr{op: cPushStg, cost: 2, arg: a.Arg, b: uint16(b.Arg)}, true
		}
	case OpLdg:
		switch b.Op {
		case OpLdg:
			return cinstr{op: cLdgLdg, cost: 2, arg: a.Arg, b: uint16(b.Arg)}, true
		case OpPush:
			// The 32-bit immediate goes in arg, the global slot in b.
			return cinstr{op: cLdgPush, cost: 2, arg: b.Arg, b: uint16(a.Arg)}, true
		case OpJz:
			// The jump target goes in arg, the global slot in b.
			return cinstr{op: cLdgJz, cost: 2, arg: b.Arg, b: uint16(a.Arg)}, true
		case OpJnz:
			return cinstr{op: cLdgJnz, cost: 2, arg: b.Arg, b: uint16(a.Arg)}, true
		case OpPwr:
			return cinstr{op: cLdgPwr, cost: 2, arg: a.Arg, b: uint16(b.Arg)}, true
		}
	case OpArg:
		switch b.Op {
		case OpStg:
			return cinstr{op: cArgStg, cost: 2, arg: b.Arg}, true
		case OpPwr:
			return cinstr{op: cArgPwr, cost: 2, arg: b.Arg}, true
		}
	case OpAdd:
		if b.Op == OpStg {
			return cinstr{op: cAddStg, cost: 2, arg: b.Arg}, true
		}
	case OpSub:
		if b.Op == OpStg {
			return cinstr{op: cSubStg, cost: 2, arg: b.Arg}, true
		}
	case OpMul:
		if b.Op == OpStg {
			return cinstr{op: cMulStg, cost: 2, arg: b.Arg}, true
		}
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		switch b.Op {
		case OpJz:
			return cinstr{op: cCmpJz, cost: 2, arg: b.Arg, b: uint16(a.Op)}, true
		case OpJnz:
			return cinstr{op: cCmpJnz, cost: 2, arg: b.Arg, b: uint16(a.Op)}, true
		}
	}
	return cinstr{}, false
}

// compare evaluates an architectural comparison op for the fused
// compare-and-branch forms.
func compare(op Op, a, b int64) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	}
	return a >= b // OpGe; fusePair admits no other op
}
