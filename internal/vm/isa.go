// Package vm implements the plug-in virtual machine embedded in every
// plug-in SW-C (paper section 3.1.1). The paper runs plug-ins as Java
// bytecode inside a JVM with its own memory and computational resources;
// Go cannot load or unload native code at runtime, so this package
// provides the equivalent mechanism: a small, verified, stack-based
// bytecode VM whose programs are shipped as the plug-in binaries of the
// installation packages, executed under a best-effort scheme with a
// per-activation instruction budget and a bounded operand stack.
//
// Plug-in programs are event driven, matching how the PIRTE drives
// plug-ins: an optional init handler, per-port message handlers, and timer
// handlers. Port values are 64-bit signed words; the PIRTE's virtual
// ports translate between words and the SW-C port formats (paper section
// 3.1.3).
package vm

import (
	"fmt"
	"sync"

	"dynautosar/internal/core"
)

// Op is a bytecode operation.
type Op uint8

// The instruction set. Every instruction carries one 32-bit immediate
// argument, unused by most operations.
const (
	OpNop Op = iota
	// OpPush pushes the sign-extended immediate.
	OpPush
	// OpPop discards the top of stack.
	OpPop
	// OpDup duplicates the top of stack.
	OpDup
	// OpSwap exchanges the two top elements.
	OpSwap
	// OpOver pushes a copy of the second element.
	OpOver

	// Arithmetic (pop b, pop a, push a OP b).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	// OpNeg negates the top of stack.
	OpNeg
	// OpAbs replaces the top with its absolute value.
	OpAbs
	OpMin
	OpMax

	// Bitwise.
	OpAnd
	OpOr
	OpXor
	OpNot
	OpShl
	OpShr

	// Comparisons push 1 or 0.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// Control flow; the immediate is an instruction index.
	OpJmp
	// OpJz jumps when the popped value is zero.
	OpJz
	// OpJnz jumps when the popped value is non-zero.
	OpJnz
	OpCall
	OpRet
	// OpHalt ends the handler successfully.
	OpHalt

	// OpLdg/OpStg load/store global slot <imm>.
	OpLdg
	OpStg

	// OpPrd pushes the value last written to plug-in port <imm>, or 0.
	OpPrd
	// OpPwr pops a value and writes it to plug-in port <imm>.
	OpPwr
	// OpArg pushes the message value inside a message handler (0
	// elsewhere).
	OpArg
	// OpPort pushes the id of the port that triggered the current message
	// handler (-1 elsewhere).
	OpPort

	// OpTset pops a period in microseconds and arms cyclic timer <imm>.
	OpTset
	// OpTclr disarms timer <imm>.
	OpTclr
	// OpClock pushes the current time in microseconds.
	OpClock
	// OpLog emits string constant <imm> together with the (peeked) top of
	// stack through the host's log.
	OpLog

	opCount // sentinel
)

var opNames = [...]string{
	OpNop: "NOP", OpPush: "PUSH", OpPop: "POP", OpDup: "DUP", OpSwap: "SWAP",
	OpOver: "OVER", OpAdd: "ADD", OpSub: "SUB", OpMul: "MUL", OpDiv: "DIV",
	OpMod: "MOD", OpNeg: "NEG", OpAbs: "ABS", OpMin: "MIN", OpMax: "MAX",
	OpAnd: "AND", OpOr: "OR", OpXor: "XOR", OpNot: "NOT", OpShl: "SHL",
	OpShr: "SHR", OpEq: "EQ", OpNe: "NE", OpLt: "LT", OpLe: "LE", OpGt: "GT",
	OpGe: "GE", OpJmp: "JMP", OpJz: "JZ", OpJnz: "JNZ", OpCall: "CALL",
	OpRet: "RET", OpHalt: "HALT", OpLdg: "LDG", OpStg: "STG", OpPrd: "PRD",
	OpPwr: "PWR", OpArg: "ARG", OpPort: "PORT", OpTset: "TSET", OpTclr: "TCLR",
	OpClock: "CLOCK", OpLog: "LOG",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// hasArg reports whether the textual form of the op takes an argument.
func (o Op) hasArg() bool {
	switch o {
	case OpPush, OpJmp, OpJz, OpJnz, OpCall, OpLdg, OpStg, OpPrd, OpPwr,
		OpTset, OpTclr, OpLog:
		return true
	}
	return false
}

// Instr is one fixed-size instruction.
type Instr struct {
	Op  Op
	Arg int32
}

// HandlerKind classifies program entry points.
type HandlerKind uint8

const (
	// HandlerInit runs once after installation (and after each restart).
	HandlerInit HandlerKind = iota
	// HandlerMessage runs when data arrives on a plug-in port; Index is
	// the declared port index, or -1 for the catch-all handler.
	HandlerMessage
	// HandlerTimer runs when the timer with id Index expires.
	HandlerTimer
)

// String implements fmt.Stringer.
func (k HandlerKind) String() string {
	switch k {
	case HandlerInit:
		return "init"
	case HandlerMessage:
		return "message"
	case HandlerTimer:
		return "timer"
	}
	return fmt.Sprintf("HandlerKind(%d)", uint8(k))
}

// Handler binds an entry point to a code offset.
type Handler struct {
	Kind HandlerKind
	// Index is the port index for message handlers (-1 = any port) or the
	// timer id for timer handlers; unused for init.
	Index int32
	// Entry is the instruction index where execution starts.
	Entry int32
}

// PortDecl declares one plug-in port of the program. The declaration
// order defines the port indices used by OpPrd/OpPwr; the trusted server
// maps these names to SW-C-scope unique ids in the PIC.
type PortDecl struct {
	Name      string
	Direction core.Direction
}

// Program is a complete plug-in binary.
type Program struct {
	Name    string
	Version string
	Ports   []PortDecl
	// Globals is the number of global slots (the plug-in's RAM quota in
	// words).
	Globals int32
	// Consts is the string constant pool referenced by OpLog.
	Consts   []string
	Handlers []Handler
	Code     []Instr

	// comp and exact cache the two compiled forms shared by all instances
	// of this program; see compile.go.
	compileOnce, exactOnce sync.Once
	comp, exact            *compiled
}

// PortIndex returns the index of the named declared port.
func (p *Program) PortIndex(name string) (int, bool) {
	for i, d := range p.Ports {
		if d.Name == name {
			return i, true
		}
	}
	return 0, false
}

// Handler returns the entry offset for the given kind/index, falling back
// to the catch-all message handler when a specific one is absent.
func (p *Program) Handler(kind HandlerKind, index int32) (int32, bool) {
	fallback := int32(-1)
	for _, h := range p.Handlers {
		if h.Kind != kind {
			continue
		}
		if h.Index == index {
			return h.Entry, true
		}
		if kind == HandlerMessage && h.Index == -1 {
			fallback = h.Entry
		}
	}
	if fallback >= 0 {
		return fallback, true
	}
	return 0, false
}

// Verify statically checks the program: jump targets, global slots, port
// indices, constants and handler entries must all be in range. A verified
// program cannot escape its sandbox; runtime traps are limited to dynamic
// conditions (division by zero, stack and budget exhaustion).
func (p *Program) Verify() error {
	if p.Name == "" {
		return fmt.Errorf("vm: program without a name")
	}
	if p.Globals < 0 || p.Globals > 4096 {
		return fmt.Errorf("vm: program %q: %d globals out of range [0,4096]", p.Name, p.Globals)
	}
	if len(p.Code) == 0 {
		return fmt.Errorf("vm: program %q has no code", p.Name)
	}
	if len(p.Code) > 1<<20 {
		return fmt.Errorf("vm: program %q: code too large", p.Name)
	}
	seen := make(map[string]bool, len(p.Ports))
	for _, d := range p.Ports {
		if d.Name == "" {
			return fmt.Errorf("vm: program %q declares a port with empty name", p.Name)
		}
		if !d.Direction.Valid() {
			return fmt.Errorf("vm: program %q: port %q has invalid direction", p.Name, d.Name)
		}
		if seen[d.Name] {
			return fmt.Errorf("vm: program %q declares port %q twice", p.Name, d.Name)
		}
		seen[d.Name] = true
	}
	n := int32(len(p.Code))
	for i, ins := range p.Code {
		if ins.Op >= opCount {
			return fmt.Errorf("vm: program %q: invalid opcode %d at %d", p.Name, ins.Op, i)
		}
		switch ins.Op {
		case OpJmp, OpJz, OpJnz, OpCall:
			if ins.Arg < 0 || ins.Arg >= n {
				return fmt.Errorf("vm: program %q: jump target %d out of range at %d", p.Name, ins.Arg, i)
			}
		case OpLdg, OpStg:
			if ins.Arg < 0 || ins.Arg >= p.Globals {
				return fmt.Errorf("vm: program %q: global slot %d out of range at %d", p.Name, ins.Arg, i)
			}
		case OpPrd, OpPwr:
			if ins.Arg < 0 || int(ins.Arg) >= len(p.Ports) {
				return fmt.Errorf("vm: program %q: port index %d out of range at %d", p.Name, ins.Arg, i)
			}
		case OpTset, OpTclr:
			if ins.Arg < 0 || ins.Arg >= maxTimers {
				return fmt.Errorf("vm: program %q: timer id %d out of range at %d", p.Name, ins.Arg, i)
			}
		case OpLog:
			if ins.Arg < 0 || int(ins.Arg) >= len(p.Consts) {
				return fmt.Errorf("vm: program %q: constant %d out of range at %d", p.Name, ins.Arg, i)
			}
		}
	}
	for _, h := range p.Handlers {
		if h.Entry < 0 || h.Entry >= n {
			return fmt.Errorf("vm: program %q: handler %v entry %d out of range", p.Name, h.Kind, h.Entry)
		}
		switch h.Kind {
		case HandlerInit:
		case HandlerMessage:
			if h.Index != -1 && (h.Index < 0 || int(h.Index) >= len(p.Ports)) {
				return fmt.Errorf("vm: program %q: message handler for invalid port %d", p.Name, h.Index)
			}
		case HandlerTimer:
			if h.Index < 0 || h.Index >= maxTimers {
				return fmt.Errorf("vm: program %q: timer handler for invalid timer %d", p.Name, h.Index)
			}
		default:
			return fmt.Errorf("vm: program %q: invalid handler kind %d", p.Name, h.Kind)
		}
	}
	return nil
}

// PortSpecs exposes the declared ports in the core model's form, the shape
// uploaded to the trusted server inside the plug-in manifest.
func (p *Program) PortSpecs() []core.PluginPortSpec {
	specs := make([]core.PluginPortSpec, len(p.Ports))
	for i, d := range p.Ports {
		specs[i] = core.PluginPortSpec{Name: d.Name, Direction: d.Direction}
	}
	return specs
}
