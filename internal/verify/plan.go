package verify

import (
	"fmt"
	"strings"

	"dynautosar/internal/core"
)

// This file is the plan verifier: a reconfiguration plan (deploy,
// uninstall or live upgrade) is modelled as a path of intermediate
// vehicle configurations — one step per plug-in, in exactly the order
// internal/server stages them — and the configuration invariants are
// checked at every state along the path, not just at the endpoints.
// Because the server pushes upgrade swaps concurrently, the reachable
// states are all subsets of completed swaps; every invariant checked
// here is per-plug-in or pairwise between two plug-ins, so checking the
// in-order prefix path and the reverse-order (compensation) path covers
// every pair combination an arbitrary subset could exhibit, without
// enumerating 2^n subsets. The reverse path doubles as the proof that a
// safe state (full rollback) is reachable from every intermediate
// state.

// MaxQuiesceInDegree bounds the number of live inbound links a plug-in
// may have while it is quiesced during a swap. Every inbound link is a
// source that keeps producing into the PIRTE's quiesce buffer while the
// plug-in is paused, so the in-degree is the structural bound on
// buffering growth per delivered message.
const MaxQuiesceInDegree = 32

// Invariant class names carried in PlanError.Invariant; stable strings
// that tests and clients can match on.
const (
	// InvLinkCompat: a live link connects ports of incompatible
	// direction or port type.
	InvLinkCompat = "link-compat"
	// InvOrphan: a live link or manifest dependency targets a plug-in
	// or port that is not live in this state.
	InvOrphan = "orphan"
	// InvPortCollision: two live plug-ins (or a live plug-in and a
	// concurrent reservation) share a port id within one SW-C.
	InvPortCollision = "port-collision"
	// InvQuiesceBound: a swap would quiesce a plug-in whose inbound
	// link degree exceeds MaxQuiesceInDegree.
	InvQuiesceBound = "quiesce-bound"
	// InvSafeState: an intermediate state has no rollback path to a
	// safe state (e.g. a swap step without a compensation package).
	InvSafeState = "safe-state"
)

// PlanKind tells which server operation the plan models.
type PlanKind string

// The three verifiable operations.
const (
	PlanDeploy    PlanKind = "deploy"
	PlanUninstall PlanKind = "uninstall"
	PlanUpgrade   PlanKind = "upgrade"
)

// PluginState is one plug-in as it exists (or would exist) on the
// vehicle: its placement, its declared ports, and its deployment
// contexts. Ports and PLC may be empty for pre-installed plug-ins whose
// manifests or contexts are unknown; the verifier then skips the checks
// that need them rather than guessing.
type PluginState struct {
	Plugin core.PluginName
	ECU    core.ECUID
	SWC    core.SWCID
	// Ports are the manifest-declared ports (names and directions).
	Ports []core.PluginPortSpec
	// PIC maps port names to SW-C-scope unique ids.
	PIC core.PIC
	// PLC is the linking context; nil means unknown (installed rows
	// predating this plan), which disables link checks for this
	// plug-in but not checks by others against it.
	PLC core.PLC
	// Requires lists manifest dependencies on other plug-ins.
	Requires []core.PluginName
}

// StepKind is the kind of one plan step.
type StepKind uint8

// The step kinds, matching how the server stages each operation.
const (
	StepInstall StepKind = iota + 1
	StepRemove
	StepSwap
)

// Step is one per-plug-in transition of the plan. Install carries New,
// Remove carries Old, Swap carries both (Old is the compensation
// package the server would roll back to).
type Step struct {
	Kind   StepKind
	Plugin core.PluginName
	New    *PluginState
	Old    *PluginState
}

// String renders the step for counterexample paths and for the
// server's dry-run reports.
func (s Step) String() string {
	switch s.Kind {
	case StepInstall:
		if s.New != nil {
			return fmt.Sprintf("install %s on %s/%s", s.Plugin, s.New.ECU, s.New.SWC)
		}
		return fmt.Sprintf("install %s", s.Plugin)
	case StepRemove:
		if s.Old != nil {
			return fmt.Sprintf("remove %s from %s/%s", s.Plugin, s.Old.ECU, s.Old.SWC)
		}
		return fmt.Sprintf("remove %s", s.Plugin)
	case StepSwap:
		return fmt.Sprintf("swap %s", s.Plugin)
	}
	return fmt.Sprintf("step %s", s.Plugin)
}

// PortReservation is a set of port ids reserved on one SW-C by a
// concurrent operation (an in-flight upgrade's claim). Live plug-ins of
// other names must not collide with it.
type PortReservation struct {
	ECU   core.ECUID
	SWC   core.SWCID
	Owner core.PluginName
	IDs   []core.PluginPortID
}

// Plan is a reconfiguration plan presented for verification: the
// vehicle configuration it runs against, the surviving installed
// population (plug-ins the plan does not touch), the ordered steps the
// server would execute, and any concurrent port reservations.
type Plan struct {
	Kind    PlanKind
	Vehicle core.VehicleID
	Conf    core.VehicleConf
	// Installed is the live population untouched by the plan.
	Installed []PluginState
	// Steps are executed in order for deploy; in order for uninstall
	// (the server already reverses install order); for upgrade the
	// in-order path and the reverse compensation path are both walked.
	Steps []Step
	// Reserved are port ids claimed by concurrent operations.
	Reserved []PortReservation
}

// PlanError is the counterexample of a rejected plan: the violated
// invariant class, the minimal path of steps from the current vehicle
// state to the first violating intermediate state, and a human-readable
// detail naming the plug-ins and ports involved.
type PlanError struct {
	Invariant string
	Vehicle   core.VehicleID
	// Step is the step whose post-state (or, for quiesce violations,
	// whose execution) violates the invariant.
	Step string
	// Path lists the executed steps from the initial state up to and
	// including Step — the minimal counterexample path.
	Path []string
	// Detail is the human-readable violation.
	Detail string
}

// Error implements the error interface with the full counterexample.
func (e *PlanError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verify: plan for vehicle %q violates %s at step %q: %s",
		e.Vehicle, e.Invariant, e.Step, e.Detail)
	if len(e.Path) > 0 {
		fmt.Fprintf(&b, " (path: %s)", strings.Join(e.Path, " -> "))
	}
	return b.String()
}

// VerifyPlan checks every intermediate configuration the plan can reach
// against the invariant catalogue and returns nil or the *PlanError
// with the minimal counterexample path. Deploy walks the install
// prefixes; uninstall the removal prefixes; upgrade walks both the
// in-order swap path and the reverse-order compensation path, which
// together cover every subset of concurrently completed swaps and prove
// rollback reachability from each intermediate state.
func VerifyPlan(p *Plan) error {
	// Structural safe-state requirements per step kind.
	for _, st := range p.Steps {
		switch st.Kind {
		case StepInstall:
			if st.New == nil {
				return &PlanError{Invariant: InvSafeState, Vehicle: p.Vehicle,
					Step: st.String(), Detail: "install step without a new plug-in state"}
			}
		case StepRemove:
			if st.Old == nil {
				return &PlanError{Invariant: InvSafeState, Vehicle: p.Vehicle,
					Step: st.String(), Detail: "remove step without the installed plug-in state"}
			}
		case StepSwap:
			if st.New == nil || st.Old == nil {
				return &PlanError{Invariant: InvSafeState, Vehicle: p.Vehicle,
					Step:   st.String(),
					Detail: "swap step without a compensation package: no safe state is reachable if the swap fails mid-path"}
			}
		default:
			return &PlanError{Invariant: InvSafeState, Vehicle: p.Vehicle,
				Step: st.String(), Detail: fmt.Sprintf("unknown step kind %d", st.Kind)}
		}
	}
	switch p.Kind {
	case PlanDeploy:
		return errOrNil(p.walk(p.Steps, ""))
	case PlanUninstall:
		return errOrNil(p.walk(p.Steps, ""))
	case PlanUpgrade:
		if e := p.walk(p.Steps, ""); e != nil {
			return e
		}
		// Reverse path: compensation order, also covering out-of-order
		// completion of concurrent swaps.
		rev := make([]Step, len(p.Steps))
		for i, st := range p.Steps {
			rev[len(p.Steps)-1-i] = Step{Kind: st.Kind, Plugin: st.Plugin, New: st.Old, Old: st.New}
		}
		return errOrNil(p.walkFrom(p.finalState(), rev, "rollback: "))
	default:
		return &PlanError{Invariant: InvSafeState, Vehicle: p.Vehicle,
			Detail: fmt.Sprintf("unknown plan kind %q", p.Kind)}
	}
}

// errOrNil keeps a typed-nil *PlanError from escaping as a non-nil
// error interface.
func errOrNil(e *PlanError) error {
	if e == nil {
		return nil
	}
	return e
}

// initialState is the live population before the first step: the
// untouched installed plug-ins plus the Old side of every step.
func (p *Plan) initialState() []*PluginState {
	live := make([]*PluginState, 0, len(p.Installed)+len(p.Steps))
	for i := range p.Installed {
		live = append(live, &p.Installed[i])
	}
	for i := range p.Steps {
		if p.Steps[i].Old != nil {
			live = append(live, p.Steps[i].Old)
		}
	}
	return live
}

// finalState is the live population after every step has applied.
func (p *Plan) finalState() []*PluginState {
	live := make([]*PluginState, 0, len(p.Installed)+len(p.Steps))
	for i := range p.Installed {
		live = append(live, &p.Installed[i])
	}
	for i := range p.Steps {
		if p.Steps[i].New != nil {
			live = append(live, p.Steps[i].New)
		}
	}
	return live
}

// walk runs the path from the plan's initial state.
func (p *Plan) walk(steps []Step, label string) *PlanError {
	return p.walkFrom(p.initialState(), steps, label)
}

// walkFrom executes steps one at a time from the given live population,
// checking the quiesce bound while each swap runs and the full
// invariant catalogue on each post-step state. label prefixes step
// descriptions in the counterexample path (e.g. "rollback: ").
func (p *Plan) walkFrom(start []*PluginState, steps []Step, label string) *PlanError {
	live := append([]*PluginState(nil), start...)
	var path []string
	for i, st := range steps {
		desc := label + st.String()
		if st.Kind == StepSwap {
			if e := p.checkQuiesce(live, st.Old, desc, append(path, desc)); e != nil {
				return e
			}
		}
		live = applyStep(live, st)
		path = append(path, desc)
		// Plug-ins scheduled later in the same plan: InstallOrder only
		// topo-orders manifest dependencies and same-SW-C links, so a
		// deploy path may transiently hold a link that targets a plug-in
		// installed a few steps later (the paper app's cross-SW-C remote
		// links). Such forward references are resolved within the plan,
		// not orphans — but their directions are still checked against
		// the scheduled state. Symmetrically, a plug-in whose removal is
		// scheduled later is mid-teardown: its own links may already
		// dangle (its partner removed a step earlier) and are not
		// checked, while links from survivors into removed plug-ins stay
		// strict.
		var pending, doomed []*PluginState
		for j := i + 1; j < len(steps); j++ {
			if steps[j].New != nil {
				pending = append(pending, steps[j].New)
			}
			if steps[j].Kind == StepRemove && steps[j].Old != nil {
				doomed = append(doomed, steps[j].Old)
			}
		}
		if e := p.checkState(live, pending, doomed, desc, path); e != nil {
			return e
		}
	}
	return nil
}

// applyStep returns the live population after the step.
func applyStep(live []*PluginState, st Step) []*PluginState {
	out := live[:0:0]
	for _, s := range live {
		if s == st.Old {
			continue
		}
		out = append(out, s)
	}
	if st.New != nil {
		out = append(out, st.New)
	}
	return out
}

// checkState verifies one intermediate configuration: port-id
// collisions (including concurrent reservations), link compatibility
// and orphan detection for every live link, and manifest dependency
// liveness. pending lists plug-ins scheduled later in the same plan:
// they satisfy orphan lookups (forward references within one plan) but
// do not claim port ids and are not themselves checked yet. doomed
// lists live plug-ins whose removal is scheduled later: they still
// claim their port ids but their own links and dependencies are not
// checked — teardown dangles by construction.
func (p *Plan) checkState(live, pending, doomed []*PluginState, step string, path []string) *PlanError {
	fail := func(invariant, format string, args ...any) *PlanError {
		return &PlanError{Invariant: invariant, Vehicle: p.Vehicle, Step: step,
			Path: append([]string(nil), path...), Detail: fmt.Sprintf(format, args...)}
	}

	// Port-id collisions within each SW-C, live vs live and live vs
	// concurrent reservations.
	type owner struct {
		plugin core.PluginName
		kind   string
	}
	ids := make(map[string]map[core.PluginPortID]owner)
	claim := func(ecu core.ECUID, swc core.SWCID, id core.PluginPortID, o owner) *PlanError {
		key := string(ecu) + "/" + string(swc)
		m := ids[key]
		if m == nil {
			m = make(map[core.PluginPortID]owner)
			ids[key] = m
		}
		if prev, ok := m[id]; ok && prev.plugin != o.plugin {
			return fail(InvPortCollision,
				"port id %s on %s is claimed by both %s %s and %s %s",
				id, key, prev.kind, prev.plugin, o.kind, o.plugin)
		}
		m[id] = o
		return nil
	}
	for _, r := range p.Reserved {
		for _, id := range r.IDs {
			if e := claim(r.ECU, r.SWC, id, owner{r.Owner, "reservation for"}); e != nil {
				return e
			}
		}
	}
	for _, s := range live {
		for _, entry := range s.PIC {
			if e := claim(s.ECU, s.SWC, entry.ID, owner{s.Plugin, "plug-in"}); e != nil {
				return e
			}
		}
	}

	// Per-plug-in link and dependency checks. Manifest dependencies are
	// checked strictly against the live population — InstallOrder
	// guarantees a dependency installs before its dependant, so a
	// forward reference here is a genuine ordering bug. Link targets may
	// additionally resolve to pending plug-ins (see walkFrom).
	byName := make(map[core.PluginName]*PluginState, len(live))
	for _, s := range live {
		byName[s.Plugin] = s
	}
	reach := live
	if len(pending) > 0 {
		reach = append(append([]*PluginState(nil), live...), pending...)
	}
	tearing := make(map[*PluginState]bool, len(doomed))
	for _, s := range doomed {
		tearing[s] = true
	}
	for _, s := range live {
		if tearing[s] {
			continue
		}
		for _, req := range s.Requires {
			if byName[req] == nil {
				return fail(InvOrphan,
					"plug-in %s requires %s, which is not live in this state", s.Plugin, req)
			}
		}
		for _, e := range s.PLC {
			if pe := p.checkLink(reach, s, e, fail); pe != nil {
				return pe
			}
		}
	}
	return nil
}

// checkLink verifies one PLC post of one live plug-in against the
// current state: the target must exist (orphan check) and the
// directions and port types must be compatible (link-compat check).
func (p *Plan) checkLink(live []*PluginState, s *PluginState, e core.PLCEntry,
	fail func(invariant, format string, args ...any) *PlanError) *PlanError {
	dir, hasDir := s.portDirection(e.Plugin)
	switch e.Kind {
	case core.LinkNone:
		return nil
	case core.LinkVirtual:
		vp, ok := p.virtualPort(s.ECU, s.SWC, e.Virtual)
		if !ok {
			return fail(InvOrphan,
				"plug-in %s links %s to virtual port %s, which does not exist on %s/%s",
				s.Plugin, e.Plugin, e.Virtual, s.ECU, s.SWC)
		}
		if hasDir && vp.Direction != dir {
			return fail(InvLinkCompat,
				"plug-in %s links its %s port %s to virtual port %s (%s): virtual port links require matching directions",
				s.Plugin, dir, e.Plugin, e.Virtual, vp.Direction)
		}
	case core.LinkVirtualRemote:
		vp, ok := p.virtualPort(s.ECU, s.SWC, e.Virtual)
		if !ok {
			return fail(InvOrphan,
				"plug-in %s links %s to mux virtual port %s, which does not exist on %s/%s",
				s.Plugin, e.Plugin, e.Virtual, s.ECU, s.SWC)
		}
		if vp.Type != core.TypeII {
			return fail(InvLinkCompat,
				"plug-in %s links %s through virtual port %s, which is %s, not the type II mux a remote link needs",
				s.Plugin, e.Plugin, e.Virtual, vp.Type)
		}
		target := findRemotePort(live, s, e.Remote)
		if target == nil {
			return fail(InvOrphan,
				"plug-in %s links %s to remote port %s, which no live plug-in on another SW-C provides",
				s.Plugin, e.Plugin, e.Remote)
		}
		if rdir, ok := target.portDirection(e.Remote); hasDir && ok && rdir == dir {
			return fail(InvLinkCompat,
				"plug-in %s links its %s port %s to remote port %s of %s, which is also %s: remote links connect opposite directions",
				s.Plugin, dir, e.Plugin, e.Remote, target.Plugin, rdir)
		}
	case core.LinkPeer:
		peer := findPeerPort(live, s, e.Peer)
		if peer == nil {
			return fail(InvOrphan,
				"plug-in %s links %s to peer port %s, which no live plug-in on %s/%s provides",
				s.Plugin, e.Plugin, e.Peer, s.ECU, s.SWC)
		}
		if pdir, ok := peer.portDirection(e.Peer); hasDir && ok && pdir == dir {
			return fail(InvLinkCompat,
				"plug-in %s links its %s port %s to peer port %s of %s, which is also %s: peer links connect opposite directions",
				s.Plugin, dir, e.Plugin, e.Peer, peer.Plugin, pdir)
		}
	}
	return nil
}

// checkQuiesce bounds the inbound live-link degree of the plug-in about
// to be quiesced by a swap: every inbound link keeps feeding the
// PIRTE's quiesce buffer while the plug-in is paused.
func (p *Plan) checkQuiesce(live []*PluginState, old *PluginState, step string, path []string) *PlanError {
	if old == nil {
		return nil
	}
	inIDs := make(map[core.PluginPortID]bool, len(old.PIC))
	for _, e := range old.PIC {
		inIDs[e.ID] = true
	}
	degree := 0
	// Links from other live plug-ins into the quiescing one.
	for _, s := range live {
		if s == old {
			continue
		}
		for _, e := range s.PLC {
			switch e.Kind {
			case core.LinkPeer:
				if s.ECU == old.ECU && s.SWC == old.SWC && inIDs[e.Peer] {
					degree++
				}
			case core.LinkVirtualRemote:
				if !(s.ECU == old.ECU && s.SWC == old.SWC) && inIDs[e.Remote] {
					degree++
				}
			}
		}
	}
	// Inbound feeds of the quiescing plug-in's own required ports:
	// virtual-port links (BSW sources) and unconnected ports fed by the
	// PIRTE or external routing.
	for _, e := range old.PLC {
		if dir, ok := old.portDirection(e.Plugin); !ok || dir != core.Required {
			continue
		}
		switch e.Kind {
		case core.LinkNone, core.LinkVirtual:
			degree++
		}
	}
	if degree > MaxQuiesceInDegree {
		return &PlanError{Invariant: InvQuiesceBound, Vehicle: p.Vehicle, Step: step,
			Path: append([]string(nil), path...),
			Detail: fmt.Sprintf("quiescing %s would buffer %d inbound links, exceeding the bound of %d",
				old.Plugin, degree, MaxQuiesceInDegree)}
	}
	return nil
}

// portDirection resolves the direction of one of the plug-in's own
// ports by id, via the PIC name and the manifest port list; ok is false
// when either is unknown.
func (s *PluginState) portDirection(id core.PluginPortID) (core.Direction, bool) {
	name, ok := s.PIC.Name(id)
	if !ok {
		return 0, false
	}
	for _, spec := range s.Ports {
		if spec.Name == name {
			return spec.Direction, true
		}
	}
	return 0, false
}

// virtualPort looks up a virtual port spec in the plan's vehicle conf.
func (p *Plan) virtualPort(ecu core.ECUID, swc core.SWCID, id core.VirtualPortID) (core.VirtualPortSpec, bool) {
	conf, ok := p.Conf.SWC(ecu, swc)
	if !ok {
		return core.VirtualPortSpec{}, false
	}
	for _, vp := range conf.VirtualPorts {
		if vp.ID == id {
			return vp, true
		}
	}
	return core.VirtualPortSpec{}, false
}

// findPeerPort finds the live plug-in on the same SW-C as s that owns
// the given port id.
func findPeerPort(live []*PluginState, s *PluginState, id core.PluginPortID) *PluginState {
	for _, o := range live {
		if o == s || o.ECU != s.ECU || o.SWC != s.SWC {
			continue
		}
		if _, ok := o.PIC.Name(id); ok {
			return o
		}
	}
	return nil
}

// findRemotePort finds a live plug-in on a different SW-C than s that
// owns the given port id.
func findRemotePort(live []*PluginState, s *PluginState, id core.PluginPortID) *PluginState {
	for _, o := range live {
		if o.ECU == s.ECU && o.SWC == s.SWC {
			continue
		}
		if _, ok := o.PIC.Name(id); ok {
			return o
		}
	}
	return nil
}
