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
	comp *form
	host Host
	// budget is the instruction budget per activation.
	budget int

	// regs is the register file of the register form (layout in form).
	// globals and lastIn are its prefix, so both forms and the upgrade
	// hook see one state; a program whose globals and ports do not fit
	// keeps them on the heap and runs only in the exact form.
	regs    [numRegs]int64
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
	f := prog.compiledForm()
	in := &Instance{prog: prog, comp: f, host: host, budget: budget}
	g, ports := int(prog.Globals), len(prog.Ports)
	file := in.regs[:]
	if g+ports > numRegs {
		file = make([]int64, g+ports)
	}
	in.globals, in.lastIn = file[:g:g], file[g:g+ports:g+ports]
	copy(in.regs[f.constBase:], f.consts)
	return in, nil
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
	if in.comp.init.pc < 0 {
		return nil
	}
	return in.start(in.comp.init, 0, -1)
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
	e := in.comp.msg[port]
	if e.pc < 0 {
		return fmt.Errorf("%w: message on port %d", ErrNoHandler, port)
	}
	return in.start(e, value, port)
}

// Timer runs the handler of the expired timer.
func (in *Instance) Timer(id int) error {
	if in.stopped {
		return ErrStopped
	}
	if id < 0 || id >= maxTimers || in.comp.timer[id].pc < 0 {
		return fmt.Errorf("%w: timer %d", ErrNoHandler, id)
	}
	return in.start(in.comp.timer[id], 0, -1)
}

// start runs a fresh activation of the handler e: in the register form
// when it is lowerable, else in the exact form.
func (in *Instance) start(e entry, arg int64, port int) error {
	if in.stopped {
		return ErrStopped
	}
	in.Activations++
	if e.op < 0 {
		return in.run(in.prog.exactForm(), e.pc, 0, 0, 0, 0, arg, port)
	}
	b := in.comp.stackBase
	in.regs[b-2], in.regs[b-1] = arg, int64(port)
	return in.runReg(e.op)
}

// runReg runs the register form from op ri until a RET or HALT, a host
// refusing a port write, or a hand-over to the exact form. Its live state
// is the code, the register file, ri, steps, the budget and the
// instance; every cold exit returns into a function of its own so none
// of them costs the loop a register.
//
// The budget is compared at entry and when a branch is taken. A
// backward branch pre-charges the worst-case cost up to the next such
// check (blockCost of its target, which spans a loop's whole iteration
// and its exit path, carried in the op as need); a forward branch has
// need 0, as the check that admitted it already covers both of its
// successors. When a pre-check fails, or a DIV/MOD meets a zero divisor,
// toExact continues the activation in the exact form from the
// architectural state where the op starts, which lowering keeps in the
// file: there the budget expires, or the trap is raised, on exactly the
// instruction the per-instruction scheme would choose.
func (in *Instance) runReg(ri int32) error {
	f := in.comp
	code := f.code
	r := &in.regs
	budget := in.budget
	steps := 0
	if int(f.blockCost[ri]) > budget {
		return in.toExact(ri, 0)
	}
	for {
		ins := code[ri]
		steps += int(ins.cost)
		switch ins.op {
		case rNop:
		case rMov:
			r[ins.d] = r[ins.a]
		case rSwap:
			r[ins.d], r[ins.a] = r[ins.a], r[ins.d]
		case rAdd:
			r[ins.d] = r[ins.a] + r[ins.b]
		case rSub:
			r[ins.d] = r[ins.a] - r[ins.b]
		case rMul:
			r[ins.d] = r[ins.a] * r[ins.b]
		case rDiv:
			if r[ins.b] == 0 {
				return in.toExact(ri, steps-int(ins.cost))
			}
			r[ins.d] = r[ins.a] / r[ins.b]
		case rMod:
			if r[ins.b] == 0 {
				return in.toExact(ri, steps-int(ins.cost))
			}
			r[ins.d] = r[ins.a] % r[ins.b]
		case rMin:
			r[ins.d] = min(r[ins.a], r[ins.b])
		case rMax:
			r[ins.d] = max(r[ins.a], r[ins.b])
		case rAnd:
			r[ins.d] = r[ins.a] & r[ins.b]
		case rOr:
			r[ins.d] = r[ins.a] | r[ins.b]
		case rXor:
			r[ins.d] = r[ins.a] ^ r[ins.b]
		case rShl:
			r[ins.d] = r[ins.a] << uint64(r[ins.b]&63)
		case rShr:
			r[ins.d] = r[ins.a] >> uint64(r[ins.b]&63)
		case rEq:
			r[ins.d] = boolWord(r[ins.a] == r[ins.b])
		case rNe:
			r[ins.d] = boolWord(r[ins.a] != r[ins.b])
		case rLt:
			r[ins.d] = boolWord(r[ins.a] < r[ins.b])
		case rLe:
			r[ins.d] = boolWord(r[ins.a] <= r[ins.b])
		case rGt:
			r[ins.d] = boolWord(r[ins.a] > r[ins.b])
		case rGe:
			r[ins.d] = boolWord(r[ins.a] >= r[ins.b])
		case rNeg:
			r[ins.d] = -r[ins.a]
		case rAbs:
			v := r[ins.a]
			if v < 0 {
				v = -v
			}
			r[ins.d] = v
		case rNot:
			r[ins.d] = ^r[ins.a]
		case rJmp:
			ri = ins.arg
			if int(ins.need) > budget-steps {
				return in.toExact(ri, steps)
			}
			continue
		case rJz:
			if r[ins.a] == 0 {
				ri = ins.arg
				if int(ins.need) > budget-steps {
					return in.toExact(ri, steps)
				}
				continue
			}
		case rJnz:
			if r[ins.a] != 0 {
				ri = ins.arg
				if int(ins.need) > budget-steps {
					return in.toExact(ri, steps)
				}
				continue
			}
		case rAddJz:
			v := r[ins.a] + r[ins.b]
			r[ins.d] = v
			if v == 0 {
				ri = ins.arg
				if int(ins.need) > budget-steps {
					return in.toExact(ri, steps)
				}
				continue
			}
		case rAddJnz:
			v := r[ins.a] + r[ins.b]
			r[ins.d] = v
			if v != 0 {
				ri = ins.arg
				if int(ins.need) > budget-steps {
					return in.toExact(ri, steps)
				}
				continue
			}
		case rPwr:
			if err := in.host.PortWrite(int(ins.arg), r[ins.a]); err != nil {
				return in.writeFailed(err, steps)
			}
		case rTset:
			in.host.SetTimer(int(ins.arg), sim.Duration(max(r[ins.a], 0)))
		case rTclr:
			in.host.ClearTimer(int(ins.arg))
		case rClock:
			r[ins.d] = int64(in.host.Now())
		case rLog:
			in.host.Log(in.prog.Consts[ins.arg], r[ins.a])
		case rRet:
			in.Instructions += uint64(steps)
			return nil
		case rExit:
			return in.toExact(ri, steps)
		}
		ri++
	}
}

// toExact continues an activation of the register form in the exact
// form at the architectural pc where op ri starts, with steps
// instructions charged: the operand stack moves from its registers into
// in.stack and the cached top of stack.
func (in *Instance) toExact(ri int32, steps int) error {
	f := in.comp
	pc := f.start[ri]
	d := int(f.depth[pc])
	var tos int64
	if d > 0 {
		s := in.regs[f.stackBase : f.stackBase+d]
		copy(in.stack[1:d], s)
		tos = s[d-1]
	}
	arg, port := in.regs[f.stackBase-2], int(in.regs[f.stackBase-1])
	return in.run(in.prog.exactForm(), pc, d, tos, 0, steps, arg, port)
}

// run interprets the exact form comp from the machine state (pc, sp,
// tos, fp, steps) until a halt, a top-level return, or a trap: its
// switch is the definition of the ISA. The program counter, stack
// pointer and the cached top-of-stack value live in locals; a trap
// leaves the loop instead of being tested for after every instruction;
// and the budget comparison runs only on entry and at control transfers,
// each pre-checking that the straight-line run to the next transfer
// (blockCost) fits the remaining budget. When it does not, handoff turns
// the rest of the budget into the budget tail, run through this loop as
// well, so traps and budget faults land at exactly the instruction a
// per-instruction scheme would choose (fuse_test.go pins the register
// form against this one, golden_test.go both against the past).
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
		steps++
		next := pc + 1
		switch ins.Op {
		case OpNop:
		case OpPush:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			stack[sp] = tos
			tos = int64(ins.Arg)
			sp++
		case OpPop:
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos = stack[sp]
		case OpDup:
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
		case OpSwap:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			stack[sp-1], tos = tos, stack[sp-1]
		case OpOver:
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
		case OpAdd:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos += stack[sp]
		case OpSub:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos = stack[sp] - tos
		case OpMul:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos *= stack[sp]
		case OpDiv:
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
		case OpMod:
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
		case OpNeg:
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			tos = -tos
		case OpAbs:
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			if tos < 0 {
				tos = -tos
			}
		case OpMin:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			if a := stack[sp]; a < tos {
				tos = a
			}
		case OpMax:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			if a := stack[sp]; a > tos {
				tos = a
			}
		case OpAnd:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos &= stack[sp]
		case OpOr:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos |= stack[sp]
		case OpXor:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos ^= stack[sp]
		case OpNot:
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			tos = ^tos
		case OpShl:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos = stack[sp] << uint64(tos&63)
		case OpShr:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos = stack[sp] >> uint64(tos&63)
		case OpEq:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos = boolWord(stack[sp] == tos)
		case OpNe:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos = boolWord(stack[sp] != tos)
		case OpLt:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos = boolWord(stack[sp] < tos)
		case OpLe:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos = boolWord(stack[sp] <= tos)
		case OpGt:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos = boolWord(stack[sp] > tos)
		case OpGe:
			if sp < 2 {
				trap = ErrStackUnderflow
				goto fault
			}
			sp--
			tos = boolWord(stack[sp] >= tos)
		case OpJmp:
			next = ins.Arg
			if int(blockCost[next]) > budget-steps {
				return in.handoff(comp, next, sp, tos, fp, steps, arg, port)
			}
		case OpJz:
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			v := tos
			sp--
			tos = stack[sp]
			if v == 0 {
				next = ins.Arg
			}
			if int(blockCost[next]) > budget-steps {
				return in.handoff(comp, next, sp, tos, fp, steps, arg, port)
			}
		case OpJnz:
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			v := tos
			sp--
			tos = stack[sp]
			if v != 0 {
				next = ins.Arg
			}
			if int(blockCost[next]) > budget-steps {
				return in.handoff(comp, next, sp, tos, fp, steps, arg, port)
			}
		case OpCall:
			if fp >= maxFrames {
				trap = ErrCallDepth
				goto fault
			}
			in.frames[fp] = next
			fp++
			next = ins.Arg
			if int(blockCost[next]) > budget-steps {
				return in.handoff(comp, next, sp, tos, fp, steps, arg, port)
			}
		case OpRet:
			if fp == 0 {
				in.Instructions += uint64(steps)
				return nil // top-level return ends the handler
			}
			fp--
			next = in.frames[fp]
			if int(blockCost[next]) > budget-steps {
				return in.handoff(comp, next, sp, tos, fp, steps, arg, port)
			}
		case OpHalt:
			in.Instructions += uint64(steps)
			return nil
		case OpLdg:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			stack[sp] = tos
			tos = globals[ins.Arg]
			sp++
		case OpStg:
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			globals[ins.Arg] = tos
			sp--
			tos = stack[sp]
		case OpPrd:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			stack[sp] = tos
			tos = in.lastIn[ins.Arg]
			sp++
		case OpPwr:
			if sp < 1 {
				trap = ErrStackUnderflow
				goto fault
			}
			v := tos
			sp--
			tos = stack[sp]
			if err := in.host.PortWrite(int(ins.Arg), v); err != nil {
				return in.writeFailed(err, steps)
			}
		case OpArg:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			stack[sp] = tos
			tos = arg
			sp++
		case OpPort:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			stack[sp] = tos
			tos = int64(port)
			sp++
		case OpTset:
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
			in.host.SetTimer(int(ins.Arg), sim.Duration(v))
		case OpTclr:
			in.host.ClearTimer(int(ins.Arg))
		case OpClock:
			if sp >= maxStack {
				trap = ErrStackOverflow
				goto fault
			}
			stack[sp] = tos
			tos = int64(in.host.Now())
			sp++
		case OpLog:
			var v int64
			if sp > 0 {
				v = tos
			}
			in.host.Log(in.prog.Consts[ins.Arg], v)

		// --- sentinels ---------------------------------------------------

		case opEnd:
			trap = ErrCodeEnd
			goto fault
		case opBudget: // costs nothing itself
			steps--
			trap = ErrBudget
			goto fault
		}
		pc = next
	}

fault:
	return in.trapped(trap, comp, pc, steps)
}

// handoff continues an activation whose pre-check at pc failed. blockCost
// is exact, so the budget expires inside the straight-line run ahead:
// precisely budget-steps instructions, none of them a transfer, remain.
// They become the budget tail — a copy closed by the opBudget sentinel —
// so that the fault needs no per-instruction comparison either.
func (in *Instance) handoff(comp *compiled, pc int32, sp int, tos int64, fp, steps int, arg int64, port int) error {
	rest := comp.code[pc : int(pc)+in.budget-steps]
	in.tail = compiled{
		code:      append(append(in.tail.code[:0], rest...), Instr{Op: opBudget}),
		blockCost: tailCost,
		base:      pc,
	}
	return in.run(&in.tail, 0, sp, tos, fp, steps, arg, port)
}

// tailCost is the budget tail's blockCost: entry at its slot 0 passes the
// pre-check at any remaining budget, and it holds no transfer that would
// consult another slot.
var tailCost = []int32{0}

// trapped ends an activation that raised trap at pc of the exact form,
// with steps instructions charged.
func (in *Instance) trapped(trap error, comp *compiled, pc int32, steps int) error {
	in.Instructions += uint64(steps)
	in.Faults++
	if trap == ErrBudget { // no instruction's doing: the message names none
		return fmt.Errorf("%w (after %d instructions)", trap, steps)
	}
	op := comp.code[pc].Op.String()
	if comp.code[pc].Op == opEnd {
		op = "END"
	}
	return fmt.Errorf("%w at pc %d (%s)", trap, comp.base+pc, op)
}

// writeFailed ends an activation whose port write the host refused, with
// steps instructions charged. It is a cold exit of both loops: kept out
// of line so its error formatting costs them no registers.
//
//go:noinline
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
