package dataflow

import "dynautosar/internal/vm"

// This file computes per-loop static cost bounds: for every backedge, a
// worst-case architectural instruction count for one full iteration of
// the loop it closes. The VM's register form (vm lower.go) relies on the
// equivalent property computed over its own ops — a checked backward
// branch pre-charges the whole next iteration, forward branches are
// check-free; this analysis exposes the architectural-level number for
// -dump-facts, golden tests and WCET reporting.

// LoopCost bounds one loop, identified by its backedge.
type LoopCost struct {
	// Header is the backedge target (the loop entry).
	Header int32
	// Backedge is the pc of the backward JMP/JZ/JNZ closing the loop.
	Backedge int32
	// Cost is the worst-case architectural instruction count of one
	// iteration: the longest forward-edge path from Header through
	// Backedge inclusive. -1 when the header cannot reach its backedge
	// through forward edges alone (an irreducible region; the budget
	// machinery then falls back to per-block checks).
	Cost int32
}

// LoopCosts finds every backedge and bounds its iteration cost. Calls
// are charged with the callee's own worst-case straight cost when the
// callee is acyclic; a callee with loops of its own makes the charge
// unbounded and yields Cost -1.
func LoopCosts(g *Graph) []LoopCost {
	var out []LoopCost
	callCost := calleeCosts(g)
	for pc := int32(0); pc < g.N; pc++ {
		ins := g.Prog.Code[pc]
		switch ins.Op {
		case vm.OpJmp, vm.OpJz, vm.OpJnz:
			if ins.Arg <= pc {
				out = append(out, LoopCost{
					Header:   ins.Arg,
					Backedge: pc,
					Cost:     iterationCost(g, ins.Arg, pc, callCost),
				})
			}
		}
	}
	return out
}

// iterationCost is the longest path, counted in architectural
// instructions (one budget unit each, calls charged with the callee
// bound), from header to the backedge inclusive, using only edges that
// move forward within [header, backedge]. Computed by a single
// backward scan — forward-only edges make the region a DAG.
func iterationCost(g *Graph, header, backedge int32, callCost map[int32]int32) int32 {
	const unreach = int32(-1)
	cost := make([]int32, backedge-header+1)
	at := func(pc int32) *int32 { return &cost[pc-header] }
	for pc := backedge; pc >= header; pc-- {
		ins := g.Prog.Code[pc]
		self := int32(1)
		if ins.Op == vm.OpCall {
			cc, ok := callCost[ins.Arg]
			if !ok {
				*at(pc) = unreach
				continue
			}
			self += cc
		}
		if pc == backedge {
			*at(pc) = self
			continue
		}
		best := unreach
		succ := func(to int32) {
			if to > pc && to <= backedge {
				if c := *at(to); c > best {
					best = c
				}
			}
		}
		switch ins.Op {
		case vm.OpJmp:
			succ(ins.Arg)
		case vm.OpJz, vm.OpJnz:
			succ(ins.Arg)
			succ(pc + 1)
		case vm.OpRet, vm.OpHalt:
			// Leaves the loop; contributes nothing to the iteration bound.
		default:
			succ(pc + 1)
		}
		if best == unreach {
			*at(pc) = unreach
		} else {
			*at(pc) = self + best
		}
	}
	return *at(header)
}

// calleeCosts bounds each subroutine's worst-case total instruction
// cost (acyclic bodies only; a looping or call-into-looping callee is
// absent from the map).
func calleeCosts(g *Graph) map[int32]int32 {
	out := make(map[int32]int32)
	for _, entry := range g.SubOrder { // callee-first
		pcs, _ := g.Body(entry)
		// Reject callee bodies containing backedges.
		cyclic := false
		inBody := make(map[int32]bool, len(pcs))
		for _, pc := range pcs {
			inBody[pc] = true
		}
		for _, pc := range pcs {
			ins := g.Prog.Code[pc]
			switch ins.Op {
			case vm.OpJmp, vm.OpJz, vm.OpJnz:
				if ins.Arg <= pc && inBody[ins.Arg] {
					cyclic = true
				}
			}
		}
		if cyclic {
			continue
		}
		// Longest path over the acyclic body from entry to any exit,
		// charging nested calls with their own bound.
		memo := make(map[int32]int32)
		ok := true
		var walk func(pc int32) int32
		walk = func(pc int32) int32 {
			if pc >= g.N || !inBody[pc] {
				return 0
			}
			if c, seen := memo[pc]; seen {
				return c
			}
			ins := g.Prog.Code[pc]
			self := int32(1)
			if ins.Op == vm.OpCall {
				cc, has := out[ins.Arg]
				if !has {
					ok = false
					return 0
				}
				self += cc
			}
			var rest int32
			switch ins.Op {
			case vm.OpJmp:
				rest = walk(ins.Arg)
			case vm.OpJz, vm.OpJnz:
				rest = max(walk(ins.Arg), walk(pc+1))
			case vm.OpRet, vm.OpHalt:
				rest = 0
			default:
				rest = walk(pc + 1)
			}
			memo[pc] = self + rest
			return self + rest
		}
		c := walk(entry)
		if ok {
			out[entry] = c
		}
	}
	return out
}
