package dataflow

import "dynautosar/internal/vm"

// This file is the bytecode optimizer: architectural-to-architectural
// rewrites justified by the analyses in this package, run before the vm
// compiler's register lowering ever sees the code.
//
// Contract (the translation-validation gate in internal/verify holds
// the optimizer to it): for every activation that completes without
// exhausting its budget, the optimized program produces the identical
// result, host-event trace and global state as the original; and on
// every path the optimized program executes at most as many
// architectural instructions as the original, so an optimized program
// never budget-faults where the original would not. The state at a
// budget fault itself is the one surface allowed to differ (see
// live.go on why the alternative forbids all dead-store elimination).
//
// Soundness precondition: the passes assume stack traps are
// unreachable (deleting a PUSH;POP pair also deletes the overflow trap
// the PUSH could have raised). Optimize therefore first proves the
// program stack-safe with the interval client and returns the input
// untouched when it cannot; the verifier independently re-proves the
// output.
//
// Pass order per round: loop rotation (exposes the backedge form the
// vm compiler lowers into one add-and-branch register op), jump
// threading, constant folding + branch simplification + dead pure code
// (one peephole scan over non-leader windows), dead-store elimination
// (global liveness), unreachable-code elimination. Rounds repeat until
// a fixpoint or a small cap.

// Stats counts what Optimize did.
type Stats struct {
	// Rounds is the number of pass rounds that ran (including the final
	// no-change round).
	Rounds int
	// Rotated counts loop rotations; Threaded, retargeted jumps; Folded,
	// peephole folds/simplifications; DeadStores, stores turned into
	// pops; Deleted, instructions removed.
	Rotated    int
	Threaded   int
	Folded     int
	DeadStores int
	Deleted    int
}

// Changed reports whether any rewrite fired.
func (s Stats) Changed() bool {
	return s.Rotated+s.Threaded+s.Folded+s.DeadStores+s.Deleted > 0
}

// Optimize rewrites p under the contract above and returns the
// optimized program with pass statistics. When the program cannot be
// proven stack-safe, or no rewrite applies, the input pointer itself is
// returned. Callers that must trust the output run it through the
// translation-validation gate (internal/verify.OptimizeProgram) rather
// than calling this directly.
func Optimize(p *vm.Program) (*vm.Program, Stats) {
	var st Stats
	if !stackSafe(p) {
		return p, st
	}
	cur := cloneProgram(p, p.Code)
	for st.Rounds < 16 {
		st.Rounds++
		changed := rotateLoops(&cur, &st)
		changed = threadJumps(cur, &st) || changed
		changed = peephole(&cur, &st) || changed
		changed = deadStores(cur, &st) || changed
		changed = dropUnreachable(&cur, &st) || changed
		if !changed {
			break
		}
	}
	if !st.Changed() {
		return p, st
	}
	return cur, st
}

// stackSafe proves no handler can reach a stack trap — the precondition
// for every pass.
func stackSafe(p *vm.Program) bool {
	g, err := New(p)
	if err != nil {
		return false
	}
	sa := NewStackAnalysis(g)
	for _, e := range g.SubOrder {
		if _, cerr := sa.Context(e); cerr != nil {
			return false
		}
	}
	for _, h := range p.Handlers {
		sum, cerr := sa.Context(h.Entry)
		if cerr != nil {
			return false
		}
		if sum.WorstNeed > 0 || (sum.HasHigh && sum.WorstHigh > vm.MaxStack) {
			return false
		}
	}
	return true
}

// cloneProgram copies p with the given code (Program carries a
// sync.Once compile cache, so it is rebuilt field by field).
func cloneProgram(p *vm.Program, code []vm.Instr) *vm.Program {
	return &vm.Program{
		Name:     p.Name,
		Version:  p.Version,
		Ports:    append([]vm.PortDecl(nil), p.Ports...),
		Globals:  p.Globals,
		Consts:   append([]string(nil), p.Consts...),
		Handlers: append([]vm.Handler(nil), p.Handlers...),
		Code:     append([]vm.Instr(nil), code...),
	}
}

// compact rebuilds p with the kept slots of code, remapping branch and
// call targets and handler entries to the next surviving instruction.
// Deleted slots must be semantic no-op groups whose first slot alone
// may be a jump target (the callers' window rules guarantee it), so
// landing on the next survivor is equivalent. Returns nil if a target
// would map past the end — impossible on verified input; callers treat
// it as "pass did not apply".
func compact(p *vm.Program, code []vm.Instr, keep []bool) *vm.Program {
	n := len(code)
	newCode := make([]vm.Instr, 0, n)
	pos := make([]int32, n+1)
	for i := 0; i < n; i++ {
		pos[i] = int32(len(newCode))
		if keep[i] {
			newCode = append(newCode, code[i])
		}
	}
	newN := int32(len(newCode))
	pos[n] = newN
	remap := func(t int32) (int32, bool) {
		if t < 0 || t >= int32(n) || pos[t] >= newN {
			return 0, false
		}
		return pos[t], true
	}
	for i := range newCode {
		switch newCode[i].Op {
		case vm.OpJmp, vm.OpJz, vm.OpJnz, vm.OpCall:
			nt, ok := remap(newCode[i].Arg)
			if !ok {
				return nil
			}
			newCode[i].Arg = nt
		}
	}
	q := cloneProgram(p, newCode)
	for i := range q.Handlers {
		nt, ok := remap(q.Handlers[i].Entry)
		if !ok {
			return nil
		}
		q.Handlers[i].Entry = nt
	}
	return q
}

// pureProducer reports ops that push exactly one value with no other
// effect — no trap (given stack safety), no host interaction, no state
// change. OpClock is excluded: it performs a host Now() call.
func pureProducer(op vm.Op) bool {
	switch op {
	case vm.OpPush, vm.OpLdg, vm.OpPrd, vm.OpArg, vm.OpPort:
		return true
	}
	return false
}

// deletableBeforePop additionally admits stack shuffles whose pairing
// with POP is a net no-op.
func deletableBeforePop(op vm.Op) bool {
	return pureProducer(op) || op == vm.OpDup || op == vm.OpOver
}

func isBinop(op vm.Op) bool {
	switch op {
	case vm.OpAdd, vm.OpSub, vm.OpMul, vm.OpDiv, vm.OpMod, vm.OpMin, vm.OpMax,
		vm.OpAnd, vm.OpOr, vm.OpXor, vm.OpShl, vm.OpShr,
		vm.OpEq, vm.OpNe, vm.OpLt, vm.OpLe, vm.OpGt, vm.OpGe:
		return true
	}
	return false
}

func fitsImm(k int64) bool { return k >= -1<<31 && k < 1<<31 }

// rotateLoops rewrites while-loops into do-while form: a backward
//
//	j:   JMP L          ; L: P (pure single push); L+1: JZ j+1
//
// becomes
//
//	j:   P
//	j+1: JNZ L+2
//
// (and symmetrically for JNZ exits). The loop's first iteration still
// enters at L; later iterations re-test at the backedge without the
// detour, saving one instruction per iteration and exposing the
// producer+branch backedge the vm compiler lowers into one register op
// (ADD.JNZ). Targets at or below j are unshifted; the rest
// move up by one.
func rotateLoops(cur **vm.Program, st *Stats) bool {
	changed := false
	for {
		p := *cur
		j := int32(-1)
		var rot vm.Instr
		for i, ins := range p.Code {
			if ins.Op != vm.OpJmp || ins.Arg >= int32(i) {
				continue
			}
			l := ins.Arg
			if !pureProducer(p.Code[l].Op) {
				continue
			}
			br := p.Code[l+1]
			if br.Arg != int32(i)+1 {
				continue
			}
			switch br.Op {
			case vm.OpJz:
				rot = vm.Instr{Op: vm.OpJnz, Arg: l + 2}
			case vm.OpJnz:
				rot = vm.Instr{Op: vm.OpJz, Arg: l + 2}
			default:
				continue
			}
			j = int32(i)
			break
		}
		if j < 0 {
			return changed
		}
		p = applyRotation(p, j, rot)
		*cur = p
		st.Rotated++
		changed = true
	}
}

func applyRotation(p *vm.Program, j int32, rot vm.Instr) *vm.Program {
	shift := func(t int32) int32 {
		if t > j {
			return t + 1
		}
		return t
	}
	l := p.Code[j].Arg
	newCode := make([]vm.Instr, 0, len(p.Code)+1)
	for i, ins := range p.Code {
		if int32(i) == j {
			newCode = append(newCode, p.Code[l], rot) // rot.Arg = l+2 <= j: unshifted
			continue
		}
		switch ins.Op {
		case vm.OpJmp, vm.OpJz, vm.OpJnz, vm.OpCall:
			ins.Arg = shift(ins.Arg)
		}
		newCode = append(newCode, ins)
	}
	q := cloneProgram(p, newCode)
	for i := range q.Handlers {
		q.Handlers[i].Entry = shift(q.Handlers[i].Entry)
	}
	return q
}

// threadJumps retargets branches that land on a JMP to its final
// destination, skipping the intermediate dispatch.
func threadJumps(p *vm.Program, st *Stats) bool {
	changed := false
	resolve := func(t int32) int32 {
		seen := make(map[int32]bool)
		for p.Code[t].Op == vm.OpJmp && !seen[t] {
			seen[t] = true
			t = p.Code[t].Arg
		}
		return t
	}
	for i := range p.Code {
		ins := &p.Code[i]
		switch ins.Op {
		case vm.OpJmp, vm.OpJz, vm.OpJnz:
			if nt := resolve(ins.Arg); nt != ins.Arg {
				ins.Arg = nt
				st.Threaded++
				changed = true
			}
		}
	}
	return changed
}

// peephole runs one scan of the window rules: constant folding of
// unary/binary operators, branch simplification over known conditions,
// dead pure producers before POP, NOPs and jumps-to-next. Windows never
// cross a block leader, so no surviving instruction can jump into the
// middle of a deleted group.
func peephole(cur **vm.Program, st *Stats) bool {
	p := *cur
	n := len(p.Code)
	leaders := vm.BlockLeaders(p)
	code := append([]vm.Instr(nil), p.Code...)
	keep := make([]bool, n)
	for i := range keep {
		keep[i] = true
	}
	changed := false
	drop := func(idx ...int) {
		for _, k := range idx {
			keep[k] = false
			st.Deleted++
		}
		changed = true
	}
	i := 0
	for i < n {
		ins := code[i]
		if ins.Op == vm.OpNop {
			drop(i)
			i++
			continue
		}
		if ins.Op == vm.OpJmp && ins.Arg == int32(i)+1 {
			drop(i)
			i++
			continue
		}
		if i+1 < n && !leaders[i+1] {
			b := code[i+1]
			if ins.Op == vm.OpPush && (b.Op == vm.OpJz || b.Op == vm.OpJnz) {
				if taken := (b.Op == vm.OpJz) == (ins.Arg == 0); taken {
					code[i] = vm.Instr{Op: vm.OpJmp, Arg: b.Arg}
					drop(i + 1)
				} else {
					drop(i, i+1)
				}
				st.Folded++
				i += 2
				continue
			}
			if ins.Op == vm.OpPush && (b.Op == vm.OpNeg || b.Op == vm.OpAbs || b.Op == vm.OpNot) {
				if v, ok := foldUnop(b.Op, StackValue{Known: true, K: int64(ins.Arg)}); ok && fitsImm(v.K) {
					code[i] = vm.Instr{Op: vm.OpPush, Arg: int32(v.K)}
					drop(i + 1)
					st.Folded++
					i += 2
					continue
				}
			}
			if deletableBeforePop(ins.Op) && b.Op == vm.OpPop {
				drop(i, i+1)
				i += 2
				continue
			}
			if ins.Op == vm.OpPush && b.Op == vm.OpPush && i+2 < n && !leaders[i+2] && isBinop(code[i+2].Op) {
				a := StackValue{Known: true, K: int64(ins.Arg)}
				bb := StackValue{Known: true, K: int64(b.Arg)}
				if v, ok := foldBinop(code[i+2].Op, a, bb); ok && fitsImm(v.K) {
					code[i+2] = vm.Instr{Op: vm.OpPush, Arg: int32(v.K)}
					drop(i, i+1)
					st.Folded++
					i += 3
					continue
				}
			}
		}
		i++
	}
	if !changed {
		return false
	}
	np := compact(p, code, keep)
	if np == nil {
		return false
	}
	*cur = np
	return true
}

// deadStores turns stores to globals that are dead at the store (never
// read again before being overwritten, on any path, under the barrier
// model of LiveGlobals) into POPs; the next peephole round then deletes
// producer+POP pairs.
func deadStores(p *vm.Program, st *Stats) bool {
	g, err := New(p)
	if err != nil {
		return false
	}
	live := LiveGlobals(g)
	changed := false
	for i := range p.Code {
		ins := &p.Code[i]
		if ins.Op == vm.OpStg && !live[i].Has(ins.Arg) {
			*ins = vm.Instr{Op: vm.OpPop}
			st.DeadStores++
			changed = true
		}
	}
	return changed
}

// dropUnreachable deletes instructions no handler can reach.
func dropUnreachable(cur **vm.Program, st *Stats) bool {
	p := *cur
	g, err := New(p)
	if err != nil {
		return false
	}
	reach := make([]bool, g.N)
	mark := func(entry int32) {
		pcs, _ := g.Body(entry)
		for _, pc := range pcs {
			reach[pc] = true
		}
	}
	for _, h := range p.Handlers {
		mark(h.Entry)
	}
	for _, e := range g.SubOrder {
		mark(e)
	}
	dropped := 0
	for _, r := range reach {
		if !r {
			dropped++
		}
	}
	if dropped == 0 {
		return false
	}
	np := compact(p, p.Code, reach)
	if np == nil {
		return false
	}
	st.Deleted += dropped
	*cur = np
	return true
}
