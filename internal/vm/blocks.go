package vm

// Static structure of a program shared by the compiler (compile.go,
// lower.go) and the static verifier (internal/verify): basic-block
// leaders, the operand-stack discipline of every architectural opcode and
// the static operand depth the register form is built on. Keeping them
// next to the interpreter pins them to the semantics interp.go actually
// executes — fuse_test.go and the verifier's differential test check the
// agreement.

// Exported sandbox quotas, the bounds the static verifier proves programs
// stay within (the lowercase forms in interp.go are the interpreter's).
const (
	// MaxStack is the operand stack depth (ErrStackOverflow beyond it).
	MaxStack = maxStack
	// MaxFrames bounds the call depth (ErrCallDepth beyond it).
	MaxFrames = maxFrames
	// MaxTimers is the number of cyclic timers per plug-in.
	MaxTimers = maxTimers
)

// BlockLeaders returns a slice of length len(p.Code)+1 marking every
// instruction index that starts a basic block: branch and call targets,
// call return sites and handler entries. Index len(p.Code) may be marked
// by a call in the final slot. Out-of-range targets are ignored — run
// Program.Verify first to reject them. Register lowering flushes its
// symbolic stack at leaders; the verifier joins its dataflow facts on
// them.
func BlockLeaders(p *Program) []bool {
	n := len(p.Code)
	leaders := make([]bool, n+1)
	for i, ins := range p.Code {
		switch ins.Op {
		case OpJmp, OpJz, OpJnz:
			if a := int(ins.Arg); 0 <= a && a < n {
				leaders[a] = true
			}
		case OpCall:
			if a := int(ins.Arg); 0 <= a && a < n {
				leaders[a] = true
			}
			leaders[i+1] = true // return site
		}
	}
	for _, h := range p.Handlers {
		if e := int(h.Entry); 0 <= e && e < n {
			leaders[e] = true
		}
	}
	return leaders
}

// StackEffect describes the operand-stack discipline of an architectural
// opcode exactly as the interpreter enforces it: need is the minimum
// depth required on entry (ErrStackUnderflow below it), delta the net
// depth change, and push reports whether the op stores a word above the
// current top (ErrStackOverflow at depth MaxStack). OpLog peeks without
// requiring a value and never traps; OpCall and OpRet move frames, not
// operands. Dynamic traps (division by zero, budget, call depth) are not
// stack effects.
func (o Op) StackEffect() (need, delta int, push bool) {
	switch o {
	case OpPush, OpLdg, OpPrd, OpArg, OpPort, OpClock:
		return 0, 1, true
	case OpPop:
		return 1, -1, false
	case OpDup:
		return 1, 1, true
	case OpSwap:
		return 2, 0, false
	case OpOver:
		return 2, 1, true
	case OpNeg, OpAbs, OpNot:
		return 1, 0, false
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpMin, OpMax,
		OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return 2, -1, false
	case OpJz, OpJnz, OpStg, OpPwr, OpTset:
		return 1, -1, false
	}
	// OpNop, OpJmp, OpCall, OpRet, OpHalt, OpTclr, OpLog.
	return 0, 0, false
}

// handlerDepths is the static-depth pass behind the register form: a
// forward walk from each handler entry that gives every pc it reaches
// (len(p.Code), the guard, included) exactly one operand depth. A
// handler is lowerable when every pc it reaches has one depth, every
// instruction's need and push fit in [0, MaxStack] — so no stack trap
// can occur — and it reaches no CALL. The pcs of a handler that is not
// lowerable stay at -1, and a later handler reaching one of them is not
// lowerable either, so every pc is walked at most once. Handlers whose
// entry ends at depth 0 are lowerable.
func handlerDepths(p *Program) []int32 {
	const unknown, failed = -1, -2
	n := int32(len(p.Code))
	depth := make([]int32, n+1)
	for i := range depth {
		depth[i] = unknown
	}
	var work, seen []int32
	for _, h := range p.Handlers {
		if depth[h.Entry] != unknown {
			continue
		}
		depth[h.Entry] = 0
		work, seen = append(work[:0], h.Entry), append(seen[:0], h.Entry)
		ok := true
		for ok && len(work) > 0 {
			pc := work[len(work)-1]
			work = work[:len(work)-1]
			if pc == n {
				continue
			}
			ins, d := p.Code[pc], depth[pc]
			need, delta, push := ins.Op.StackEffect()
			if int(d) < need || push && d >= MaxStack || ins.Op == OpCall {
				ok = false
				break
			}
			succ := [2]int32{pc + 1, -1}
			switch ins.Op {
			case OpJmp:
				succ[0] = ins.Arg
			case OpJz, OpJnz:
				succ[1] = ins.Arg
			case OpRet, OpHalt:
				succ[0] = -1
			}
			for _, s := range succ {
				switch {
				case s < 0 || depth[s] == d+int32(delta):
				case depth[s] == unknown:
					depth[s] = d + int32(delta)
					seen = append(seen, s)
					work = append(work, s)
				default:
					ok = false
				}
			}
		}
		if !ok {
			for _, pc := range seen {
				depth[pc] = failed
			}
		}
	}
	for i, d := range depth {
		if d == failed {
			depth[i] = unknown
		}
	}
	return depth
}
