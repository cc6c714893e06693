// Package dataflow is the static-analysis substrate of the plug-in
// toolchain: a control-flow/call graph over architectural vm programs
// and a lattice-based worklist fixpoint engine, shared by every client
// that reasons about bytecode ahead of execution.
//
// Two production clients ride on the one core:
//
//   - the bytecode verifier (internal/verify) proves stack, frame and
//     control bounds with the interval client (stack.go) and renders
//     counterexamples from the engine's witness paths;
//   - the optimizer (opt.go) rewrites programs using the constant/shape
//     client (const.go), global liveness (live.go) and loop cost bounds
//     (cost.go), with every output re-verified and differentially
//     checked against its input (translation validation, see
//     internal/verify.OptimizeProgram).
//
// The graph works at the architectural level (vm.Instr, before register
// lowering): optimized code goes through the ordinary compile pipeline,
// so the interpreter's register lowering and budget hoisting apply on
// top of whatever this package produces.
package dataflow

import (
	"fmt"
	"strings"

	"dynautosar/internal/vm"
)

// Graph is the static structure of one program: basic-block leaders,
// the call graph of reachable subroutines and its depth bounds. Build
// it with New; a Graph is immutable and safe to share.
type Graph struct {
	// Prog is the analyzed program. Program.Verify must have accepted it
	// (New checks), so every branch target and operand index is in range.
	Prog *vm.Program
	// N is len(Prog.Code).
	N int32
	// Leaders marks basic-block starts (see vm.BlockLeaders).
	Leaders []bool
	// SubOrder lists every CALL target reachable from a handler, callees
	// before callers — the analysis order for context summaries.
	SubOrder []int32
	// Callees maps each context entry (handler or subroutine) to the
	// distinct CALL targets its body reaches.
	Callees map[int32][]int32
	// Chain maps each subroutine entry to the deepest nested call chain
	// rooted at it, itself included.
	Chain map[int32]int
}

// RecursionError reports a cycle in the call graph. The VM's frame
// bound makes recursion always-faulting, so it is rejected statically.
type RecursionError struct {
	Program string
	// Cycle lists the subroutine entries on the cycle, outermost first;
	// the last element is the entry that closed the cycle.
	Cycle []int32
}

func (e *RecursionError) Error() string {
	parts := make([]string, len(e.Cycle))
	for i, c := range e.Cycle {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return fmt.Sprintf("dataflow: program %q: recursive CALL cycle through entries %s",
		e.Program, strings.Join(parts, " -> "))
}

// ChainDepthError reports a handler whose call chains nest deeper than
// the VM's frame bound.
type ChainDepthError struct {
	Program string
	Handler vm.Handler
	Depth   int
}

func (e *ChainDepthError) Error() string {
	return fmt.Sprintf("dataflow: program %q: call chains nest %d deep, exceeding the frame bound of %d",
		e.Program, e.Depth, vm.MaxFrames)
}

// New builds the graph: structural verification, subroutine discovery
// (rejecting recursion) and the frame-depth bound per handler.
func New(p *vm.Program) (*Graph, error) {
	if err := p.Verify(); err != nil {
		return nil, err
	}
	g := &Graph{
		Prog:    p,
		N:       int32(len(p.Code)),
		Leaders: vm.BlockLeaders(p),
		Callees: make(map[int32][]int32),
		Chain:   make(map[int32]int),
	}
	if err := g.discover(); err != nil {
		return nil, err
	}
	return g, nil
}

// Body returns the instruction indices reachable from entry without
// entering calls (call sites fall through to their return site), plus
// the distinct CALL targets seen.
func (g *Graph) Body(entry int32) (pcs []int32, calls []int32) {
	seen := make(map[int32]bool)
	stack := []int32{entry}
	callSeen := make(map[int32]bool)
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if pc < 0 || pc >= g.N || seen[pc] {
			continue
		}
		seen[pc] = true
		pcs = append(pcs, pc)
		ins := g.Prog.Code[pc]
		switch ins.Op {
		case vm.OpJmp:
			stack = append(stack, ins.Arg)
		case vm.OpJz, vm.OpJnz:
			stack = append(stack, ins.Arg, pc+1)
		case vm.OpCall:
			if !callSeen[ins.Arg] {
				callSeen[ins.Arg] = true
				calls = append(calls, ins.Arg)
			}
			stack = append(stack, pc+1)
		case vm.OpRet, vm.OpHalt:
		default:
			stack = append(stack, pc+1)
		}
	}
	return pcs, calls
}

// discover finds every CALL target reachable from a handler, rejects
// recursion, orders targets callees-first and bounds the chain depth
// per handler against vm.MaxFrames.
func (g *Graph) discover() error {
	const (
		visiting = 1
		done     = 2
	)
	state := make(map[int32]int)
	var visit func(entry int32, trail []int32) error
	visit = func(entry int32, trail []int32) error {
		switch state[entry] {
		case done:
			return nil
		case visiting:
			return &RecursionError{
				Program: g.Prog.Name,
				Cycle:   append(append([]int32(nil), trail...), entry),
			}
		}
		state[entry] = visiting
		_, calls := g.Body(entry)
		g.Callees[entry] = calls
		depth := 0
		for _, c := range calls {
			if err := visit(c, append(trail, entry)); err != nil {
				return err
			}
			if g.Chain[c] > depth {
				depth = g.Chain[c]
			}
		}
		state[entry] = done
		g.Chain[entry] = depth + 1
		g.SubOrder = append(g.SubOrder, entry)
		return nil
	}
	for _, h := range g.Prog.Handlers {
		_, calls := g.Body(h.Entry)
		g.Callees[h.Entry] = calls
		maxChain := 0
		for _, c := range calls {
			if err := visit(c, nil); err != nil {
				return err
			}
			if g.Chain[c] > maxChain {
				maxChain = g.Chain[c]
			}
		}
		if maxChain > vm.MaxFrames {
			return &ChainDepthError{Program: g.Prog.Name, Handler: h, Depth: maxChain}
		}
	}
	return nil
}

// Contexts returns every analysis context — reachable subroutines in
// callee-first order, then handler entries (deduplicated, declaration
// order). Analyzing in this order guarantees a context's callee
// summaries exist before the context itself is visited.
func (g *Graph) Contexts() []int32 {
	out := append([]int32(nil), g.SubOrder...)
	seen := make(map[int32]bool, len(g.Prog.Handlers))
	for _, e := range g.SubOrder {
		seen[e] = true
	}
	for _, h := range g.Prog.Handlers {
		if !seen[h.Entry] {
			seen[h.Entry] = true
			out = append(out, h.Entry)
		}
	}
	return out
}
