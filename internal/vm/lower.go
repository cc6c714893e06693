package vm

import "slices"

// Register lowering: every lowerable handler is translated once, when
// its program is first instantiated, into three-address ops over the
// instance's register file (layout in form). An operand is a register
// index — a global, a port's last value, the message value or port, an
// operand-stack slot or a read-only constant — so LDG, PUSH, ARG, PORT
// and PRD fold into the operands of the op that consumes their value,
// STG folds into the destination of the op that produces it, and no op
// needs an immediate variant: `LDG 1; LDG 0; ADD; STG 1` is one
// ADD r1, r1, r0, and the rotated loop backedge
// `LDG 0; PUSH 1; SUB; STG 0; LDG 0; JNZ L` is one ADD.JNZ.
//
// The pass works per basic block with a symbolic operand stack: each
// entry names the register holding its value, a non-stack register or
// its own stack slot, never another slot. Entries are written to their
// slots at every block end and before an op that may trap, so the
// architectural state at the pc where a block, a trapping op or the
// code-end exit starts is in the file: the points toExact hands over
// from. Each op's cost is the number of architectural instructions it
// stands for; the costs partition every path exactly as the exact
// form's unit costs do.

// rop is a register-form opcode.
type rop uint8

const (
	rNop  rop = iota // charges its cost, nothing else
	rMov             // d = a
	rSwap            // d, a = a, d
	// Binary ALU ops, d = a OP b.
	rAdd
	rSub
	rMul
	rDiv // hands over to the exact form when b is 0
	rMod
	rMin
	rMax
	rAnd
	rOr
	rXor
	rShl
	rShr
	rEq
	rNe
	rLt
	rLe
	rGt
	rGe
	// Unary ALU ops, d = OP a.
	rNeg
	rAbs
	rNot
	// Branches to op arg, on a or, for the ADD forms, on d = a + b after
	// computing it. Taken, they check that need, the target's blockCost
	// for a backward branch and 0 for a forward one, fits the budget.
	rJmp
	rJz
	rJnz
	rAddJz
	rAddJnz
	// Host calls: write a to port arg, arm timer arg with a, disarm
	// timer arg, d = clock, log constant arg with a.
	rPwr
	rTset
	rTclr
	rClock
	rLog
	// rRet ends the activation: RET or HALT (lowered code has no CALL).
	rRet
	// rExit hands the activation to the exact form where it starts, the
	// code-end guard.
	rExit
)

// numRegs is the size of the register file: one byte per operand. A
// program whose layout does not fit runs every handler in the exact
// form.
const numRegs = 256

// rinstr is one register op, 16 bytes so that fetching one is a shift.
// The opcode and its register operands sit in a nested struct so that
// the compiler keeps a fetched op in registers rather than copying it to
// the stack (a struct of more than four fields is never split into
// registers).
type rinstr struct {
	rops
	cost int32 // architectural instructions the op stands for
	arg  int32 // branch target (op index), port, timer or constant
	need int32 // backward branches: blockCost of the target
}

type rops struct {
	op      rop
	d, a, b uint8
}

// alu maps architectural ALU ops to their register ops.
var alu = [...]rop{
	OpAdd: rAdd, OpSub: rSub, OpMul: rMul, OpDiv: rDiv, OpMod: rMod,
	OpMin: rMin, OpMax: rMax, OpAnd: rAnd, OpOr: rOr, OpXor: rXor,
	OpShl: rShl, OpShr: rShr, OpEq: rEq, OpNe: rNe, OpLt: rLt, OpLe: rLe,
	OpGt: rGt, OpGe: rGe, OpNeg: rNeg, OpAbs: rAbs, OpNot: rNot,
}

// produces reports whether the op's only effect is writing d, so a
// following STG may retarget it.
func (o rop) produces() bool { return o == rMov || o >= rAdd && o <= rNot || o == rClock }

type lowering struct {
	p *Program
	f *form
	// sym names the register of each operand-stack entry, bottom first.
	// Entries below clean are in their own slots (sym is stale there), so
	// a block starts in O(1) and a flush walks only the entries pushed
	// since the last one: lowering stays linear in the code size.
	sym          [MaxStack + 1]int
	depth, clean int
	// uses counts the entries naming each non-slot register; all of them
	// sit at or above clean.
	uses    [numRegs]int32
	full    bool  // the constants overflowed the register file
	pending int32 // first pc not yet charged to an op
	block   int   // index of the current block's first op
	at      []int32
	consts  map[int64]int
}

// lowerProgram adds the register form to f: ops for every pc that
// handlerDepths gives a depth, in pc order, and the op index of every
// handler entry at depth 0.
func lowerProgram(p *Program, f *form) {
	depth := handlerDepths(p)
	n := int32(len(p.Code))
	f.stackBase = int(p.Globals) + len(p.Ports) + 2
	f.constBase = f.stackBase + int(max(0, slices.Max(depth)))
	if f.constBase > numRegs {
		f.stackBase, f.constBase = 0, 0
		return
	}
	l := &lowering{p: p, f: f, at: make([]int32, n+1), consts: map[int64]int{}}
	leader := BlockLeaders(p)
	open := false
	for pc := int32(0); pc <= n && !l.full; pc++ {
		if depth[pc] < 0 {
			continue
		}
		if open && leader[pc] {
			l.flush(pc)
			open = false
		}
		if !open {
			l.at[pc], l.block, l.pending = int32(len(f.code)), len(f.code), pc
			l.depth, l.clean = int(depth[pc]), int(depth[pc])
		}
		if pc == n {
			l.flush(n)
			l.emit(rExit, 0, 0, 0, 0, n)
			break
		}
		open = l.instr(pc, p.Code[pc])
	}
	if l.full {
		*f = form{init: f.init, msg: f.msg, timer: f.timer}
		return
	}

	code := f.code
	for i, c := range code {
		if c.op >= rJmp && c.op <= rAddJnz {
			code[i].arg = l.at[c.arg]
		}
	}
	// Worst-case cost to the next checked transfer, walking backwards:
	// the scan reads blockCost only past a forward branch, where it is
	// final.
	f.blockCost = make([]int32, len(code))
	for i := len(code) - 1; i >= 0; i-- {
		c := code[i]
		cost, forward := c.cost, c.arg > int32(i)
		switch {
		case c.op == rRet || c.op == rExit || c.op == rJmp && !forward:
		case c.op == rJmp:
			cost += f.blockCost[c.arg]
		case c.op >= rJz && c.op <= rAddJnz && forward:
			cost += max(f.blockCost[c.arg], f.blockCost[i+1])
		default:
			cost += f.blockCost[i+1]
		}
		f.blockCost[i] = cost
	}
	for i, c := range code {
		if c.op >= rJmp && c.op <= rAddJnz && c.arg <= int32(i) {
			code[i].need = f.blockCost[c.arg]
		}
	}
	f.depth = depth
	set := func(e *entry) {
		if e.pc >= 0 && depth[e.pc] == 0 {
			e.op = l.at[e.pc]
		}
	}
	set(&f.init)
	for i := range f.msg {
		set(&f.msg[i])
	}
	for i := range f.timer {
		set(&f.timer[i])
	}
}

// instr lowers the instruction at pc and reports whether its block
// continues after it.
func (l *lowering) instr(pc int32, ins Instr) bool {
	d, next := l.depth, pc+1
	switch op := ins.Op; op {
	case OpNop:
	case OpPush:
		l.push(l.konst(int64(ins.Arg)))
	case OpLdg:
		l.push(int(ins.Arg))
	case OpPrd:
		l.push(int(l.p.Globals) + int(ins.Arg))
	case OpArg:
		l.push(l.f.stackBase - 2)
	case OpPort:
		l.push(l.f.stackBase - 1)
	case OpPop:
		l.pop()
	case OpDup, OpOver:
		j := d - 1
		if op == OpOver {
			j = d - 2
		}
		r := l.entry(j)
		if r == l.slot(j) { // a slot is named by its own entry only
			l.emit(rMov, l.slot(d), r, 0, 0, l.pending)
			r = l.slot(d)
		}
		l.push(r)
	case OpSwap:
		if a, b := l.entry(d-2), l.entry(d-1); a != l.slot(d-2) && b != l.slot(d-1) {
			l.sym[d-2], l.sym[d-1] = b, a // both above clean
			break
		}
		l.materialize(d-2, l.pending)
		l.materialize(d-1, l.pending)
		l.emit(rSwap, l.slot(d-2), l.slot(d-1), 0, 0, l.pending)
	case OpNeg, OpAbs, OpNot:
		l.emit(alu[op], l.slot(d-1), l.pop(), 0, 0, next)
		l.push(l.slot(d - 1))
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpMin, OpMax, OpAnd, OpOr,
		OpXor, OpShl, OpShr, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		if k, ok := l.konstVal(l.entry(d - 1)); (op == OpDiv || op == OpMod) && (!ok || k == 0) {
			l.flush(pc) // may trap: the state at pc must be in the file
		}
		b, a := l.pop(), l.pop()
		if k, ok := l.konstVal(b); op == OpSub && ok {
			op, b = OpAdd, l.konst(-k)
		}
		l.emit(alu[op], l.slot(d-2), a, b, 0, next)
		l.push(l.slot(d - 2))
	case OpStg:
		l.store(int(ins.Arg), next)
	case OpJmp:
		l.flush(l.pending)
		l.emit(rJmp, 0, 0, 0, ins.Arg, next)
		return false
	case OpJz, OpJnz:
		plain, fused := rJz, rAddJz
		if op == OpJnz {
			plain, fused = rJnz, rAddJnz
		}
		c, n0 := l.pop(), len(l.f.code)
		l.flush(l.pending)
		// Branching on the sum the block's last op just computed: fuse.
		if n0 == len(l.f.code) && n0 > l.block {
			if last := &l.f.code[n0-1]; last.op == rAdd && int(last.d) == c {
				last.op, last.arg = fused, ins.Arg
				last.cost += next - l.pending
				l.pending = next
				return false
			}
		}
		l.emit(plain, 0, c, 0, ins.Arg, next)
		return false
	case OpRet, OpHalt:
		for l.depth > l.clean { // the next block starts with no uses
			l.pop()
		}
		l.emit(rRet, 0, 0, 0, 0, next)
		return false
	case OpPwr:
		l.emit(rPwr, 0, l.pop(), 0, ins.Arg, next)
	case OpTset:
		l.emit(rTset, 0, l.pop(), 0, ins.Arg, next)
	case OpTclr:
		l.emit(rTclr, 0, 0, 0, ins.Arg, next)
	case OpClock:
		l.emit(rClock, l.slot(d), 0, 0, 0, next)
		l.push(l.slot(d))
	case OpLog:
		v := l.konst(0) // OpLog logs 0 at depth 0
		if d > 0 {
			v = l.entry(d - 1)
		}
		l.emit(rLog, 0, v, 0, ins.Arg, next)
	}
	return true
}

// store lowers STG g: it retargets the op that produced the stored
// value when nothing else still needs g's old value, else it moves.
func (l *lowering) store(g int, upto int32) {
	v := l.pop()
	hazard := l.uses[g] > 0 // an entry still names the old value of g
	if hazard {
		l.flush(l.pending)
	}
	code := l.f.code
	if last := len(code) - 1; !hazard && last >= l.block && v == l.slot(l.depth) &&
		int(code[last].d) == v && code[last].op.produces() {
		code[last].d = uint8(g)
		code[last].cost += upto - l.pending
		l.pending = upto
		return
	}
	l.emit(rMov, g, v, 0, 0, upto)
}

// emit appends an op charged with the instructions from pending up to,
// not including, upto.
func (l *lowering) emit(op rop, d, a, b int, arg, upto int32) {
	l.f.code = append(l.f.code, rinstr{rops: rops{op, uint8(d), uint8(a), uint8(b)},
		cost: upto - l.pending, arg: arg})
	l.f.start = append(l.f.start, l.pending)
	l.pending = upto
}

// flush writes every entry to its slot and charges the instructions
// before pc to the first op it emits (an rNop when none is needed), so
// the architectural state at pc is in the file.
func (l *lowering) flush(pc int32) {
	for j := l.clean; j < l.depth; j++ {
		l.materialize(j, pc)
	}
	l.clean = l.depth
	if l.pending < pc {
		l.emit(rNop, 0, 0, 0, 0, pc)
	}
}

// materialize writes entry j to its slot, charging the instructions
// before upto to the move.
func (l *lowering) materialize(j int, upto int32) {
	if r := l.entry(j); r != l.slot(j) {
		l.emit(rMov, l.slot(j), r, 0, 0, upto)
		l.uses[r]--
		l.sym[j] = l.slot(j)
	}
}

func (l *lowering) slot(j int) int { return l.f.stackBase + j }

func (l *lowering) isSlot(r int) bool { return l.f.stackBase <= r && r < l.f.constBase }

func (l *lowering) entry(j int) int {
	if j < l.clean {
		return l.slot(j)
	}
	return l.sym[j]
}

func (l *lowering) push(r int) {
	if !l.isSlot(r) {
		l.uses[r]++
	}
	l.sym[l.depth] = r
	l.depth++
}

func (l *lowering) pop() int {
	l.depth--
	r := l.entry(l.depth)
	if l.depth < l.clean {
		l.clean = l.depth
	} else if !l.isSlot(r) {
		l.uses[r]--
	}
	return r
}

// konst returns the constant register holding k, allocating it.
func (l *lowering) konst(k int64) int {
	r, ok := l.consts[k]
	if !ok {
		r = l.f.constBase + len(l.f.consts)
		if r >= numRegs {
			l.full = true
			return 0
		}
		l.consts[k] = r
		l.f.consts = append(l.f.consts, k)
	}
	return r
}

// konstVal returns the value of r when it is a constant register.
func (l *lowering) konstVal(r int) (int64, bool) {
	if r < l.f.constBase {
		return 0, false
	}
	return l.f.consts[r-l.f.constBase], true
}
