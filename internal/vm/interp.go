package vm

import (
	"errors"
	"fmt"

	"dynautosar/internal/sim"
)

// Resource quotas of the sandbox. The plug-in SW-C assigns its VM "its own
// memory, as well as computational and communication resources" (paper
// section 3.1.1); these constants bound them.
const (
	// maxStack is the operand stack depth.
	maxStack = 256
	// maxFrames bounds the call depth.
	maxFrames = 64
	// maxTimers is the number of cyclic timers per plug-in.
	maxTimers = 8
	// DefaultBudget is the default instruction budget per activation.
	DefaultBudget = 100_000
)

// Trap reasons. A trapped plug-in is considered faulty; the PIRTE reacts
// according to its fault policy (stop, or stop and restart fresh).
var (
	ErrBudget         = errors.New("vm: instruction budget exhausted")
	ErrStackOverflow  = errors.New("vm: operand stack overflow")
	ErrStackUnderflow = errors.New("vm: operand stack underflow")
	ErrCallDepth      = errors.New("vm: call depth exceeded")
	ErrDivByZero      = errors.New("vm: division by zero")
	ErrCodeEnd        = errors.New("vm: execution ran past the end of the code")
	ErrNoHandler      = errors.New("vm: no handler for event")
	ErrStopped        = errors.New("vm: plug-in is stopped")
)

// Host is the PIRTE-facing interface of a running plug-in: everything a
// plug-in can observe or affect goes through its ports, timers and log —
// "the runnable of the component only accesses its ports" (paper section
// 2), extended to the dynamic world.
type Host interface {
	// PortWrite delivers a value written to the plug-in port with the
	// given declared index.
	PortWrite(port int, value int64) error
	// SetTimer arms cyclic timer id with the period.
	SetTimer(id int, period sim.Duration)
	// ClearTimer disarms timer id.
	ClearTimer(id int)
	// Now returns the current simulated time.
	Now() sim.Time
	// Log receives diagnostic output (OpLog).
	Log(msg string, value int64)
}

// Instance is one installed plug-in: a verified program plus its runtime
// state. Create it with NewInstance, drive it with Init, Deliver and
// Timer.
type Instance struct {
	prog *Program
	comp *compiled
	host Host
	// budget is the instruction budget per activation.
	budget int

	globals []int64
	// lastIn holds the last value delivered to each port, readable with
	// OpPrd.
	lastIn []int64
	// stack is the operand stack; slot 0 is a guard the cached
	// top-of-stack value spills into when the stack is logically empty,
	// so pushes and pops run branch-free (see run).
	stack  [maxStack + 1]int64
	frames [maxFrames]int32
	// tail is the budget tail: the straight-line instructions an activation
	// may still run when its budget expires before the next transfer (see
	// handoff). It is kept for the storage of its code.
	tail    compiled
	stopped bool

	// Activations and Instructions accumulate execution statistics.
	Activations  uint64
	Instructions uint64
	// Faults counts trapped activations.
	Faults uint64
}

// NewInstance verifies the program and creates a fresh instance with the
// given budget (0 selects DefaultBudget).
func NewInstance(prog *Program, host Host, budget int) (*Instance, error) {
	if err := prog.Verify(); err != nil {
		return nil, err
	}
	if budget <= 0 {
		budget = DefaultBudget
	}
	return &Instance{
		prog:    prog,
		comp:    prog.compiledForm(),
		host:    host,
		budget:  budget,
		globals: make([]int64, prog.Globals),
		lastIn:  make([]int64, len(prog.Ports)),
	}, nil
}

// Program returns the underlying program.
func (in *Instance) Program() *Program { return in.prog }

// ExportGlobals snapshots the instance's global words — the whole
// observable state a plug-in accumulates between activations. The hot
// path of live upgrades: the PIRTE exports the old version's globals
// and restores them into the new one.
func (in *Instance) ExportGlobals() []int64 {
	return append([]int64(nil), in.globals...)
}

// RestoreGlobals loads exported state into this instance, copying the
// common prefix: a newer program with more globals keeps its extra
// slots zeroed (fresh fields), a program with fewer drops the tail.
// Returns how many words were transferred.
func (in *Instance) RestoreGlobals(words []int64) int {
	n := copy(in.globals, words)
	return n
}

// Stopped reports whether the instance has been stopped.
func (in *Instance) Stopped() bool { return in.stopped }

// Stop halts the plug-in: subsequent events return ErrStopped. The paper
// mandates stop-before-update semantics (section 5); restarting fresh
// means building a new Instance.
func (in *Instance) Stop() { in.stopped = true }

// Init runs the init handler, if declared.
func (in *Instance) Init() error {
	entry := in.comp.initEntry
	if entry < 0 {
		return nil
	}
	return in.start(entry, 0, -1)
}

// Deliver runs the message handler for the declared port index with the
// value, recording it for OpPrd. Returns ErrNoHandler when the program
// declares no handler for the port.
func (in *Instance) Deliver(port int, value int64) error {
	if port < 0 || port >= len(in.lastIn) {
		return fmt.Errorf("vm: delivery to undeclared port %d", port)
	}
	if in.stopped {
		return ErrStopped
	}
	in.lastIn[port] = value
	entry := in.comp.msgEntry[port]
	if entry < 0 {
		return fmt.Errorf("%w: message on port %d", ErrNoHandler, port)
	}
	return in.start(entry, value, port)
}

// Timer runs the handler of the expired timer.
func (in *Instance) Timer(id int) error {
	if in.stopped {
		return ErrStopped
	}
	if id < 0 || id >= maxTimers || in.comp.timerEntry[id] < 0 {
		return fmt.Errorf("%w: timer %d", ErrNoHandler, id)
	}
	return in.start(in.comp.timerEntry[id], 0, -1)
}

// start runs a fresh activation of the handler at entry, in the fused
// form.
func (in *Instance) start(entry int32, arg int64, port int) error {
	if in.stopped {
		return ErrStopped
	}
	in.Activations++
	return in.run(in.comp, entry, 0, 0, 0, 0, arg, port)
}

// run interprets comp from the machine state (pc, sp, tos, fp, steps)
// until a halt, a top-level return, or a trap. It is the only function
// that executes instructions: its switch is the definition of the ISA.
//
// The loop is the data plane's innermost ring and is built to dispatch,
// not to bookkeep: the program counter, stack pointer and the cached
// top-of-stack value live in locals; common instruction sequences were
// fused into superinstructions at compile time (one dispatch, no
// intermediate stack traffic); a trap leaves the loop instead of being
// tested for after every instruction; and the instruction-budget
// comparison runs only on entry and at checked control transfers — each
// one pre-checks that the worst-case cost to the *next* check (blockCost,
// which spans whole loop iterations across check-free forward branches)
// fits the remaining budget.
//
// When a pre-check fails, or a fused instruction detects a trap (its
// checks precede all its mutations, so the state is still the one before
// the instruction), handoff re-enters this loop at the same pc over the
// program's exact form — unfused, every instruction cost 1, every branch
// checked; fused groups keep the architectural pc numbering, so the
// state carries over unchanged. There a trap is final and names the
// architectural pc, and blockCost is no over-approximation any more: a
// failed pre-check means the budget expires inside the straight-line run
// ahead, which handoff turns into the budget tail, run through this loop
// as well. Traps and budget accounting therefore land at exactly the
// instruction a per-instruction scheme would have chosen (fuse_test.go
// pins the two forms against each other, golden_test.go against the
// past), and fusion rules are free to include impure constituents such
// as global stores: a trapping or budget-straddling fused instruction is
// replayed architecturally, never reconstructed.
func (in *Instance) run(comp *compiled, pc int32, sp int, tos int64, fp, steps int, arg int64, port int) error {
	code := comp.code
	blockCost := comp.blockCost
	globals := in.globals
	stack := &in.stack
	budget := in.budget

	if int(blockCost[pc]) > budget-steps {
		return in.handoff(comp, pc, sp, tos, fp, steps, arg, port)
	}

	var trap error
	for {
		ins := code[pc]
		steps += int(ins.cost)
		next := pc + 1
		switch ins.op {
		case cNop:
		case cPush:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			stack[sp] = tos
			tos = int64(ins.arg)
			sp++
		case cPop:
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos = stack[sp]
		case cDup:
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			stack[sp] = tos
			sp++
		case cSwap:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			stack[sp-1], tos = tos, stack[sp-1]
		case cOver:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			v := stack[sp-1]
			stack[sp] = tos
			tos = v
			sp++
		case cAdd:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos += stack[sp]
		case cSub:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos = stack[sp] - tos
		case cMul:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos *= stack[sp]
		case cDiv:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			if tos == 0 {
				trap = ErrDivByZero
				goto fault
			}
			sp--
			tos = stack[sp] / tos
		case cMod:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			if tos == 0 {
				trap = ErrDivByZero
				goto fault
			}
			sp--
			tos = stack[sp] % tos
		case cNeg:
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			tos = -tos
		case cAbs:
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			if tos < 0 {
				tos = -tos
			}
		case cMin:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			if a := stack[sp]; a < tos {
				tos = a
			}
		case cMax:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			if a := stack[sp]; a > tos {
				tos = a
			}
		case cAnd:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos &= stack[sp]
		case cOr:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos |= stack[sp]
		case cXor:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos ^= stack[sp]
		case cNot:
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			tos = ^tos
		case cShl:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos = stack[sp] << uint64(tos&63)
		case cShr:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos = stack[sp] >> uint64(tos&63)
		case cEq:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos = boolWord(stack[sp] == tos)
		case cNe:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos = boolWord(stack[sp] != tos)
		case cLt:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos = boolWord(stack[sp] < tos)
		case cLe:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos = boolWord(stack[sp] <= tos)
		case cGt:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos = boolWord(stack[sp] > tos)
		case cGe:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos = boolWord(stack[sp] >= tos)
		case cJmp:
			next = ins.arg
			if int(blockCost[next]) > budget-steps {
				return in.handoff(comp, next, sp, tos, fp, steps, arg, port)
			}
		case cJz:
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			v := tos
			sp--
			tos = stack[sp]
			if v == 0 {
				next = ins.arg
			}
			if int(blockCost[next]) > budget-steps {
				return in.handoff(comp, next, sp, tos, fp, steps, arg, port)
			}
		case cJnz:
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			v := tos
			sp--
			tos = stack[sp]
			if v != 0 {
				next = ins.arg
			}
			if int(blockCost[next]) > budget-steps {
				return in.handoff(comp, next, sp, tos, fp, steps, arg, port)
			}
		case cCall:
			if fp >= maxFrames {
				trap = ErrCallDepth
				goto fault
			}
			in.frames[fp] = next
			fp++
			next = ins.arg
			if int(blockCost[next]) > budget-steps {
				return in.handoff(comp, next, sp, tos, fp, steps, arg, port)
			}
		case cRet:
			if fp == 0 {
				in.Instructions += uint64(steps)
				return nil // top-level return ends the handler
			}
			fp--
			next = in.frames[fp]
			if int(blockCost[next]) > budget-steps {
				return in.handoff(comp, next, sp, tos, fp, steps, arg, port)
			}
		case cHalt:
			in.Instructions += uint64(steps)
			return nil
		case cLdg:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			stack[sp] = tos
			tos = globals[ins.arg]
			sp++
		case cStg:
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			globals[ins.arg] = tos
			sp--
			tos = stack[sp]
		case cPrd:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			stack[sp] = tos
			tos = in.lastIn[ins.arg]
			sp++
		case cPwr:
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			v := tos
			sp--
			tos = stack[sp]
			if err := in.host.PortWrite(int(ins.arg), v); err != nil {
				return in.writeFailed(err, steps)
			}
		case cArg:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			stack[sp] = tos
			tos = arg
			sp++
		case cPort:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			stack[sp] = tos
			tos = int64(port)
			sp++
		case cTset:
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			v := tos
			sp--
			tos = stack[sp]
			if v < 0 {
				v = 0
			}
			in.host.SetTimer(int(ins.arg), sim.Duration(v))
		case cTclr:
			in.host.ClearTimer(int(ins.arg))
		case cClock:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			stack[sp] = tos
			tos = int64(in.host.Now())
			sp++
		case cLog:
			var v int64
			if sp > 0 {
				v = tos
			}
			in.host.Log(in.prog.Consts[ins.arg], v)

		// --- superinstructions -------------------------------------------

		case cAddI:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			tos += int64(ins.arg)
			next = pc + 2
		case cSubI:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			tos -= int64(ins.arg)
			next = pc + 2
		case cMulI:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			tos *= int64(ins.arg)
			next = pc + 2
		case cPushStg:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			globals[ins.b] = int64(ins.arg)
			next = pc + 2
		case cLdgLdg:
			if sp+2 > maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			stack[sp] = tos
			stack[sp+1] = globals[ins.arg]
			tos = globals[ins.b]
			sp += 2
			next = pc + 2
		case cLdgPush:
			if sp+2 > maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			stack[sp] = tos
			stack[sp+1] = globals[ins.b]
			tos = int64(ins.arg)
			sp += 2
			next = pc + 2
		case cLdgJz:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			if globals[ins.b] == 0 {
				next = ins.arg
			} else {
				next = pc + 2
			}
			if int(blockCost[next]) > budget-steps {
				return in.handoff(comp, next, sp, tos, fp, steps, arg, port)
			}
		case cLdgJnz:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			if globals[ins.b] != 0 {
				next = ins.arg
			} else {
				next = pc + 2
			}
			if int(blockCost[next]) > budget-steps {
				return in.handoff(comp, next, sp, tos, fp, steps, arg, port)
			}
		case cLdgPwr:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			if err := in.host.PortWrite(int(ins.b), globals[ins.arg]); err != nil {
				return in.writeFailed(err, steps)
			}
			next = pc + 2
		case cAddStg:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			globals[ins.arg] = stack[sp] + tos
			sp--
			tos = stack[sp]
			next = pc + 2
		case cSubStg:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			globals[ins.arg] = stack[sp] - tos
			sp--
			tos = stack[sp]
			next = pc + 2
		case cMulStg:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			globals[ins.arg] = stack[sp] * tos
			sp--
			tos = stack[sp]
			next = pc + 2
		case cArgStg:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			globals[ins.arg] = arg
			next = pc + 2
		case cArgPwr:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			if err := in.host.PortWrite(int(ins.arg), arg); err != nil {
				return in.writeFailed(err, steps)
			}
			next = pc + 2
		case cCmpJz:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			b := tos
			sp -= 2
			a := stack[sp+1]
			tos = stack[sp]
			if !compare(Op(ins.b), a, b) {
				next = ins.arg
			} else {
				next = pc + 2
			}
			if int(blockCost[next]) > budget-steps {
				return in.handoff(comp, next, sp, tos, fp, steps, arg, port)
			}
		case cCmpJnz:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			b := tos
			sp -= 2
			a := stack[sp+1]
			tos = stack[sp]
			if compare(Op(ins.b), a, b) {
				next = ins.arg
			} else {
				next = pc + 2
			}
			if int(blockCost[next]) > budget-steps {
				return in.handoff(comp, next, sp, tos, fp, steps, arg, port)
			}
		case cGAddG:
			// Transiently pushes two words architecturally; trap parity
			// requires the same headroom.
			if sp+2 > maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			globals[ins.b] = globals[ins.arg>>12] + globals[ins.arg&0xfff]
			next = pc + 4
		case cGIncI:
			if sp+2 > maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			globals[ins.b] += int64(ins.arg)
			next = pc + 4
		case cGIncJz:
			// Ldg x; Push k; Add/Sub; Stg x; Ldg x; Jz t — the transient
			// depth reaches sp+2, like the quads.
			if sp+2 > maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			v := globals[ins.b] + int64(ins.arg>>20)
			globals[ins.b] = v
			if v == 0 {
				next = ins.arg & 0xfffff
			} else {
				next = pc + 6
			}
			if int(blockCost[next]) > budget-steps {
				return in.handoff(comp, next, sp, tos, fp, steps, arg, port)
			}
		case cGIncJnz:
			if sp+2 > maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			v := globals[ins.b] + int64(ins.arg>>20)
			globals[ins.b] = v
			if v != 0 {
				next = ins.arg & 0xfffff
			} else {
				next = pc + 6
			}
			if int(blockCost[next]) > budget-steps {
				return in.handoff(comp, next, sp, tos, fp, steps, arg, port)
			}

		// --- check-free branches (budget hoisting) -----------------------
		//
		// Forward branches never close a cycle, so the budget check that
		// admitted this block already pre-charged the worst-case path
		// through them to the next checked transfer (see blockCost).

		case cJmpN:
			next = ins.arg
		case cJzN:
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			v := tos
			sp--
			tos = stack[sp]
			if v == 0 {
				next = ins.arg
			}
		case cJnzN:
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			v := tos
			sp--
			tos = stack[sp]
			if v != 0 {
				next = ins.arg
			}
		case cLdgJzN:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			if globals[ins.b] == 0 {
				next = ins.arg
			} else {
				next = pc + 2
			}
		case cLdgJnzN:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			if globals[ins.b] != 0 {
				next = ins.arg
			} else {
				next = pc + 2
			}
		case cCmpJzN:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			b := tos
			sp -= 2
			a := stack[sp+1]
			tos = stack[sp]
			if !compare(Op(ins.b), a, b) {
				next = ins.arg
			} else {
				next = pc + 2
			}
		case cCmpJnzN:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			b := tos
			sp -= 2
			a := stack[sp+1]
			tos = stack[sp]
			if compare(Op(ins.b), a, b) {
				next = ins.arg
			} else {
				next = pc + 2
			}

		// --- sentinels ---------------------------------------------------

		case cEnd:
			trap = ErrCodeEnd
			goto fault
		case cBudget:
			trap = ErrBudget
			goto fault
		default: // cPad — unreachable in compiled code; step over
		}
		pc = next
	}

fault:
	if comp.exact {
		return in.trapped(trap, comp, pc, steps)
	}
	// Every trap check precedes its case's mutations, so the state is
	// exactly what it was before the instruction started: replay it in the
	// exact form, which raises the trap at the precise constituent (and
	// with the precise instruction charge) the per-instruction scheme
	// would have.
	return in.handoff(comp, pc, sp, tos, fp, steps-int(code[pc].cost), arg, port)
}

// handoff continues an activation from the state before the instruction
// at pc, which the form comp may not run: the fused form hands over to
// the exact form. The exact form only hands over on a failed pre-check,
// and there blockCost is exact, so the budget expires inside the
// straight-line run ahead: precisely budget-steps instructions, none of
// them a transfer, remain. They become the budget tail — a copy closed by
// the cBudget sentinel — so that the fault needs no per-instruction
// comparison either.
func (in *Instance) handoff(comp *compiled, pc int32, sp int, tos int64, fp, steps int, arg int64, port int) error {
	if !comp.exact {
		return in.run(in.prog.exactForm(), pc, sp, tos, fp, steps, arg, port)
	}
	rest := comp.code[pc : int(pc)+in.budget-steps]
	in.tail = compiled{
		code:      append(append(in.tail.code[:0], rest...), cinstr{op: cBudget}),
		blockCost: tailCost,
		exact:     true,
		base:      pc,
	}
	return in.run(&in.tail, 0, sp, tos, fp, steps, arg, port)
}

// tailCost is the budget tail's blockCost: entry at its slot 0 passes the
// pre-check at any remaining budget, and it holds no transfer that would
// consult another slot.
var tailCost = []int32{0}

// trapped ends an activation that raised trap at pc of an exact form,
// with steps instructions charged.
func (in *Instance) trapped(trap error, comp *compiled, pc int32, steps int) error {
	in.Instructions += uint64(steps)
	in.Faults++
	if trap == ErrBudget { // no instruction's doing: the message names none
		return fmt.Errorf("%w (after %d instructions)", trap, steps)
	}
	return fmt.Errorf("%w at pc %d (%v)", trap, comp.base+pc, comp.code[pc].op)
}

// writeFailed ends an activation whose port write the host refused, with
// steps instructions charged.
func (in *Instance) writeFailed(err error, steps int) error {
	in.Instructions += uint64(steps)
	in.Faults++
	return fmt.Errorf("vm: port write failed: %w", err)
}

func boolWord(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
