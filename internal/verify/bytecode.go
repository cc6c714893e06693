// Package verify is the trusted server's static-analysis layer: it
// rejects unsafe plug-in bytecode and unsafe reconfiguration plans
// before either reaches a vehicle, and certifies optimized bytecode
// against its unoptimized form. Three engines live here.
//
// The bytecode verifier (VerifyProgram, VerifyBinary) runs the shared
// dataflow framework (internal/vm/dataflow) with its stack-interval
// client: it partitions the code into basic blocks (the same leader set
// the VM's register lowering flushes at, see vm.BlockLeaders) and
// propagates an interval of possible operand-stack depths to a fixpoint,
// proving that no execution of any handler can raise ErrStackOverflow or
// ErrStackUnderflow, that CALL chains are acyclic and within the frame
// bound, that control cannot run off the end of the code, and that PWR
// targets only provided-direction ports. Structural properties — jump
// targets, global slots, port and constant indices — come from
// Program.Verify, which runs first. A rejected program yields a
// BytecodeError carrying the handler, the offending instruction and the
// block path that reaches it. This file only renders counterexamples;
// the abstract interpretation itself lives in the dataflow package,
// where the optimizer shares it.
//
// The plan verifier (VerifyPlan, plan.go) models a deploy, uninstall or
// live-upgrade plan as a path of intermediate configurations — one step
// per plug-in, in the order internal/server executes them — and checks
// the configuration invariants at every step, returning a PlanError
// with the minimal counterexample path on violation.
//
// The translation validator (OptimizeProgram, validate.go) gates the
// dataflow optimizer: an optimized program is accepted only if it
// re-verifies and is differentially indistinguishable from its source
// on a behavioural battery (traps, traces, globals, budget accounting).
//
// All engines run at plan or upload time only; nothing here touches
// the data plane.
package verify

import (
	"errors"
	"fmt"
	"strings"

	"dynautosar/internal/core"
	"dynautosar/internal/plugin"
	"dynautosar/internal/vm"
	"dynautosar/internal/vm/dataflow"
)

// BytecodeError is the counterexample of a rejected program: the event
// handler from which the trap is reachable, the offending instruction,
// and the basic-block path that reaches it.
type BytecodeError struct {
	// Program is the program name.
	Program string
	// Handler names the entry point ("init handler", "message handler
	// for port 0 (\"Poke\")", "timer handler 3").
	Handler string
	// PC is the offending instruction index; Op its mnemonic.
	PC int32
	Op string
	// Reason is the human-readable violation.
	Reason string
	// Calls lists the CALL instruction indices crossed from the handler
	// into the subroutine containing PC (empty when PC is handler-level).
	Calls []int32
	// Path is the basic-block path, as instruction indices of the block
	// heads, from the innermost context's entry to the block holding PC.
	Path []int32
}

// Error implements the error interface with the full counterexample.
func (e *BytecodeError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verify: program %q: %s: %s at pc %d: %s",
		e.Program, e.Handler, e.Op, e.PC, e.Reason)
	if len(e.Calls) > 0 {
		parts := make([]string, len(e.Calls))
		for i, pc := range e.Calls {
			parts[i] = fmt.Sprintf("%d", pc)
		}
		fmt.Fprintf(&b, "; via CALL at pc %s", strings.Join(parts, ", "))
	}
	if len(e.Path) > 1 {
		parts := make([]string, len(e.Path))
		for i, pc := range e.Path {
			parts[i] = fmt.Sprintf("%d", pc)
		}
		fmt.Fprintf(&b, "; path %s", strings.Join(parts, " -> "))
	}
	return b.String()
}

// VerifyBinary statically verifies a packaged plug-in binary: the
// manifest/program consistency checks of Binary.Validate (port lists
// and memory quota must match), then VerifyProgram over the decoded
// program.
func VerifyBinary(b plugin.Binary) error {
	if err := b.Validate(); err != nil {
		return err
	}
	prog, err := b.Decode()
	if err != nil {
		return err
	}
	return VerifyProgram(prog)
}

// VerifyProgram proves that no execution of any handler of the program
// can raise a stack trap (vm.ErrStackOverflow, vm.ErrStackUnderflow,
// vm.ErrCallDepth), that control cannot run past the end of the code,
// and that every PWR targets a provided-direction port. Division by
// zero and budget exhaustion remain dynamic conditions. The structural
// checks of Program.Verify run first. Returns nil or a *BytecodeError
// (or the Program.Verify error) describing the first violation.
func VerifyProgram(p *vm.Program) error {
	if err := p.Verify(); err != nil {
		return err
	}
	// Port-operation consistency: PWR emits through the PIRTE, which
	// routes provided-direction ports only; writing a required (input)
	// port is a manifest mismatch, not a runtime behaviour.
	for i, ins := range p.Code {
		if ins.Op == vm.OpPwr && p.Ports[ins.Arg].Direction != core.Provided {
			return &BytecodeError{
				Program: p.Name, Handler: "port declarations",
				PC: int32(i), Op: ins.Op.String(),
				Reason: fmt.Sprintf("PWR targets port %q which is a required (input) port; only provided ports can be written",
					p.Ports[ins.Arg].Name),
			}
		}
	}
	g, err := dataflow.New(p)
	if err != nil {
		return renderGraphError(p, err)
	}
	sa := dataflow.NewStackAnalysis(g)
	// Subroutines first, callees before callers, so every CALL site sees
	// a cached callee summary; then every handler at entry depth 0.
	for _, entry := range g.SubOrder {
		if _, cerr := sa.Context(entry); cerr != nil {
			return renderContextError(p, cerr, contextName(p, entry))
		}
	}
	seen := make(map[int32]bool, len(p.Handlers))
	for _, h := range p.Handlers {
		if seen[h.Entry] {
			continue
		}
		seen[h.Entry] = true
		sum, cerr := sa.Context(h.Entry)
		if cerr != nil {
			return renderContextError(p, cerr, handlerName(p, h))
		}
		if sum.WorstNeed > 0 {
			w := sum.NeedW
			needOp, _, _ := w.Op.StackEffect()
			return &BytecodeError{
				Program: p.Name, Handler: handlerName(p, h),
				PC: w.PC, Op: w.Op.String(), Calls: w.Calls,
				Reason: fmt.Sprintf("operand stack underflow reachable: %v pops %d value(s) but the stack can hold as few as %d here",
					w.Op, needOp, needOp-sum.WorstNeed),
				Path: sa.Path(w),
			}
		}
		if sum.HasHigh && sum.WorstHigh > vm.MaxStack {
			w := sum.HighW
			return &BytecodeError{
				Program: p.Name, Handler: handlerName(p, h),
				PC: w.PC, Op: w.Op.String(), Calls: w.Calls,
				Reason: fmt.Sprintf("operand stack overflow reachable: depth can reach %d, exceeding the bound of %d",
					sum.WorstHigh, vm.MaxStack),
				Path: sa.Path(w),
			}
		}
	}
	return nil
}

// renderGraphError maps the dataflow package's structural call-graph
// errors onto the verifier's counterexample format.
func renderGraphError(p *vm.Program, err error) error {
	var rec *dataflow.RecursionError
	if errors.As(err, &rec) {
		parts := make([]string, len(rec.Cycle))
		for i, e := range rec.Cycle {
			parts[i] = fmt.Sprintf("%d", e)
		}
		return &BytecodeError{
			Program: p.Name, Handler: "call graph",
			PC: rec.Cycle[len(rec.Cycle)-1], Op: vm.OpCall.String(),
			Reason: fmt.Sprintf("recursive CALL cycle through entries %s; the %d-frame bound would be exhausted",
				strings.Join(parts, " -> "), vm.MaxFrames),
		}
	}
	var chain *dataflow.ChainDepthError
	if errors.As(err, &chain) {
		return &BytecodeError{
			Program: p.Name, Handler: handlerName(p, chain.Handler),
			PC: chain.Handler.Entry, Op: vm.OpCall.String(),
			Reason: fmt.Sprintf("call chains nest %d deep, exceeding the frame bound of %d (vm.ErrCallDepth reachable)",
				chain.Depth, vm.MaxFrames),
		}
	}
	return err
}

// renderContextError maps a per-context dataflow failure (control past
// the end of the code, or the fail-closed unsummarized-CALL case) onto
// the verifier's counterexample format.
func renderContextError(p *vm.Program, cerr *dataflow.ContextError, handler string) error {
	if cerr.Missing {
		return &BytecodeError{
			Program: p.Name, Handler: "call graph", PC: cerr.PC,
			Op: cerr.Op.String(), Reason: "CALL target was not summarized",
		}
	}
	return &BytecodeError{
		Program: p.Name, Handler: handler,
		PC: cerr.PC, Op: cerr.Op.String(),
		Reason: "control can run past the end of the code",
		Path:   cerr.Path,
	}
}

// handlerName renders a handler for counterexamples.
func handlerName(p *vm.Program, h vm.Handler) string {
	switch h.Kind {
	case vm.HandlerInit:
		return "init handler"
	case vm.HandlerMessage:
		if h.Index == -1 {
			return "catch-all message handler"
		}
		if int(h.Index) < len(p.Ports) {
			return fmt.Sprintf("message handler for port %d (%q)", h.Index, p.Ports[h.Index].Name)
		}
		return fmt.Sprintf("message handler for port %d", h.Index)
	case vm.HandlerTimer:
		return fmt.Sprintf("timer handler %d", h.Index)
	}
	return "handler"
}

// contextName renders a context entry: the handler declared on it, or a
// subroutine label.
func contextName(p *vm.Program, entry int32) string {
	for _, h := range p.Handlers {
		if h.Entry == entry {
			return handlerName(p, h)
		}
	}
	return fmt.Sprintf("subroutine at pc %d", entry)
}
