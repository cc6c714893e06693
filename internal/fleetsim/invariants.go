package fleetsim

import (
	"fmt"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
)

// The invariant checker audits the server's durable state against
// every vehicle's flash at quiescent points (whenever the last open
// operation settles, and once more at the end of the run):
//
//	I1 every launched operation settles before the real-time limit
//	   (enforced by the pump; an operation lost to a shard crash is
//	   accounted, not violated).
//	I2 batch accounting is exact: children match the resolved vehicle
//	   list, succeeded+failed counts cover every child, and the parent
//	   state is consistent with them.
//	I3 port ids are unique per (vehicle, ECU, SW-C) across installed
//	   rows — two plug-ins sharing a port id would misroute traffic.
//	I4 server honesty: every acked install row is present on the
//	   vehicle at the expected version (no lost installations), and
//	   every flashed plug-in is known to the server (no orphans) —
//	   except where a failed or crash-interrupted operation legitimately
//	   left the pair divergent (failed-upgrade compensation, failed
//	   deploys, work lost with a dying server).
//	I5 an upgraded family is all-old-or-all-new: a vehicle never holds
//	   both versions, and a vehicle whose deploy succeeded still holds
//	   exactly one of them after every crash and recovery.
//
// Violations carry enough context to debug from the scenario seed.

// exKey marks a (vehicle, app) pair whose divergence a failed or lost
// operation explains.
type exKey struct {
	vehicle core.VehicleID
	app     core.AppName
}

// exemptions builds the divergence allowance from terminal operations:
// a failed child exempts its (vehicle, app) and upgrade target; a lost
// operation (crashed shard) exempts every pair it addressed; an
// operation settled by an incarnation whose journal lost durability
// (disk full) exempts its pairs once a crash crosses that incarnation —
// its commit records may never have hit disk, so recovery can revert
// rows the tracker saw succeed.
func (f *Fleet) exemptions() map[exKey]bool {
	ex := make(map[exKey]bool)
	add := func(v core.VehicleID, apps ...core.AppName) {
		for _, a := range apps {
			if a != "" {
				ex[exKey{v, a}] = true
			}
		}
	}
	// Synchronous replication makes a shard's replica exactly as durable
	// as its own journal, so a promotion earns no broader allowance than
	// a restart: only lost, failed and unfinished operations explain
	// divergence.
	for _, t := range f.settledOps {
		sh := f.shards[t.shard]
		var diverged bool
		if t.metric == "rollout" {
			// A rollout that crossed a crash may have had wave children in
			// flight when the process died (an ack applied on the vehicle
			// whose commit never became durable); recovery converges the
			// fleet at the store level, so the whole target set is
			// exempted like a lost operation's. Its failed wave children
			// are exempted below, like any batch's.
			diverged = t.lost || t.gen < sh.gen
		} else {
			lostDurability := t.gen < sh.gen && sh.degradedGens[t.gen]
			diverged = t.lost || (t.done && t.final.State == api.StateFailed) || !t.done || lostDurability
		}
		if diverged {
			for _, v := range t.targets {
				add(v, t.app, t.toApp)
			}
		}
	}
	for _, cop := range f.childFinal {
		if cop.State == api.StateFailed {
			add(cop.Vehicle, cop.App, cop.ToApp)
		}
	}
	return ex
}

// audit runs the full invariant sweep: each live shard's server for
// the vehicles it owns.
func (f *Fleet) audit(label string) {
	if f.closed {
		return
	}
	// Audits are deliberately absent from the trace: *when* quiescence
	// hits depends on real scheduling, and the trace must stay a pure
	// function of the seed.
	f.auditOps()
	f.auditStatz(label)
	ex := f.exemptions()
	deployOK := f.deploySucceededVehicles()
	pairs := f.sc.upgradePairs()
	for _, v := range f.vehicles {
		srv := f.shards[v.shardIdx].srv
		if srv == nil {
			continue // shard down; its vehicles audit after recovery
		}
		rows := srv.Store().InstalledApps(v.ID)
		f.auditPorts(v, rows)
		f.auditHonesty(v, rows, ex)
		f.auditFamilies(v, rows, pairs, deployOK, label)
	}
}

// auditStatz cross-checks each shard's /v1/statz counters against the
// tracker's accounting at a quiescent point: with every tracked
// operation settled, the registry must hold no open operations and
// every created operation must have a settled outcome. The counters
// are in-memory and reset with the process, so a shard that ever
// crashed is excluded; the rest must balance.
func (f *Fleet) auditStatz(label string) {
	if f.m.lostOps > 0 || f.m.rolloutsLost > 0 {
		return
	}
	for _, sh := range f.shards {
		if sh.everCrashed || sh.srv == nil {
			continue
		}
		f.checkStatz(sh.srv.Statz(), "shard "+sh.name+" ", label)
	}
}

func (f *Fleet) checkStatz(st api.Statz, who, label string) {
	if st.OpsOpen != 0 {
		f.violationf("%sstatz drift at %s audit: %d operations open with the fleet quiescent", who, label, st.OpsOpen)
	}
	var settled uint64
	for _, n := range st.OpsSettled {
		settled += n
	}
	if settled != st.OpsCreated {
		f.violationf("%sstatz drift at %s audit: %d operations created but %d settled outcomes recorded",
			who, label, st.OpsCreated, settled)
	}
}

// auditOps checks I2 on every settled batch parent and its sweep of
// terminal children. A rollout is no batch — its children are wave
// batches, audited in their own right once harvested.
func (f *Fleet) auditOps() {
	for _, t := range f.settledOps {
		if t.lost || !t.done || t.metric == "rollout" {
			continue
		}
		op := t.final
		if !op.Done {
			f.violationf("operation %s settled without Done", op.ID)
		}
		if len(op.Children) == 0 {
			continue
		}
		if len(op.Children) != len(op.Vehicles) {
			f.violationf("batch %s has %d children for %d vehicles", op.ID, len(op.Children), len(op.Vehicles))
		}
		if op.VehiclesSucceeded+op.VehiclesFailed != len(op.Children) {
			f.violationf("batch %s accounting leak: %d succeeded + %d failed != %d children",
				op.ID, op.VehiclesSucceeded, op.VehiclesFailed, len(op.Children))
		}
		failed := op.VehiclesFailed > 0
		if failed != (op.State == api.StateFailed) {
			f.violationf("batch %s state %q inconsistent with %d failed children", op.ID, op.State, op.VehiclesFailed)
		}
		for _, cid := range op.Children {
			cop, ok := f.childFinal[f.qkey(t.shard, cid)]
			if !ok {
				continue // already reported at sweep time
			}
			if !cop.Done || (cop.State != api.StateSucceeded && cop.State != api.StateFailed) {
				f.violationf("batch %s child %s not terminal at parent settle (state %q)", op.ID, cid, cop.State)
			}
			if cop.Parent != op.ID {
				f.violationf("child %s points at parent %q, expected %s", cid, cop.Parent, op.ID)
			}
		}
	}
}

// auditPorts checks I3: across every installed row of the vehicle, a
// (ECU, SW-C, port id) is bound at most once.
func (f *Fleet) auditPorts(v *SimVehicle, rows []api.InstalledApp) {
	type portSlot struct {
		ecu core.ECUID
		swc core.SWCID
		id  core.PluginPortID
	}
	seen := make(map[portSlot]string)
	for _, row := range rows {
		for _, p := range row.Plugins {
			for _, e := range p.PIC {
				slot := portSlot{p.ECU, p.SWC, e.ID}
				holder := fmt.Sprintf("%s/%s", row.App, p.Plugin)
				if prev, dup := seen[slot]; dup {
					f.violationf("vehicle %s: port id %d on %s/%s bound by both %s and %s — traffic would misroute",
						v.ID, e.ID, p.ECU, p.SWC, prev, holder)
				}
				seen[slot] = holder
			}
		}
	}
}

// auditHonesty checks I4 in both directions.
func (f *Fleet) auditHonesty(v *SimVehicle, rows []api.InstalledApp, ex map[exKey]bool) {
	known := make(map[plugKey]bool)
	vehicleExempt := false
	for _, row := range rows {
		exempt := ex[exKey{v.ID, row.App}]
		if exempt {
			vehicleExempt = true
		}
		want := f.appVer[row.App]
		for _, p := range row.Plugins {
			key := plugKey{ECU: p.ECU, SWC: p.SWC, Plugin: p.Plugin}
			known[key] = true
			if !p.Acked || exempt {
				continue
			}
			got, held := v.plugins[key]
			if !held {
				f.violationf("vehicle %s: server says %s/%s acked on %s/%s but the vehicle lost it",
					v.ID, row.App, p.Plugin, p.ECU, p.SWC)
				continue
			}
			if want != nil && got != want[p.Plugin] {
				f.violationf("vehicle %s: %s/%s at version %q, server row expects %q",
					v.ID, row.App, p.Plugin, got, want[p.Plugin])
			}
		}
	}
	// Orphan direction: anything flashed must be server-known, unless a
	// failed/lost operation on this vehicle explains leftovers. A lost
	// rollout explains only its own family, through the exemptions.
	if vehicleExempt {
		return
	}
	for _, t := range f.settledOps {
		if t.lost && t.metric != "rollout" {
			for _, id := range t.targets {
				if id == v.ID {
					return
				}
			}
		}
	}
	for key, ver := range v.plugins {
		if !known[key] && !f.orphanExplained(v.ID, key, ex) {
			f.violationf("vehicle %s: flashed plug-in %s@%s on %s/%s unknown to the server",
				v.ID, key.Plugin, ver, key.ECU, key.SWC)
		}
	}
}

// orphanExplained reports whether a flashed-but-unknown plug-in belongs
// to an app a failed or lost operation exempted on this vehicle. The
// server row can be gone entirely — a deploy child that failed after
// some acks applied removes its partial row while the vehicle keeps the
// acked flash — so the check maps the plug-in back to candidate apps
// through the scenario catalogue instead of through server rows.
func (f *Fleet) orphanExplained(vehicle core.VehicleID, key plugKey, ex map[exKey]bool) bool {
	for app, plugs := range f.appVer {
		if _, owns := plugs[key.Plugin]; owns && ex[exKey{vehicle, app}] {
			return true
		}
	}
	return false
}

// auditFamilies checks I5 on every upgraded app family.
func (f *Fleet) auditFamilies(v *SimVehicle, rows []api.InstalledApp, pairs [][2]core.AppName, deployOK map[core.VehicleID]map[core.AppName]bool, label string) {
	present := make(map[core.AppName]bool, len(rows))
	for _, row := range rows {
		present[row.App] = true
	}
	for _, pair := range pairs {
		from, to := pair[0], pair[1]
		if present[from] && present[to] {
			f.violationf("vehicle %s: both %s and %s installed — duplicated family row", v.ID, from, to)
		}
		// A vehicle whose deploy of `from` succeeded must still hold
		// exactly one version at the final audit: upgrades commit or
		// roll back, and recovery replays that decision.
		if label == "final" && deployOK[v.ID][from] && !present[from] && !present[to] {
			f.violationf("vehicle %s: family %s/%s lost — deploy succeeded but no version remains", v.ID, from, to)
		}
	}
}

// deploySucceededVehicles maps vehicle -> app for every deploy child or
// single deploy that reached succeeded.
func (f *Fleet) deploySucceededVehicles() map[core.VehicleID]map[core.AppName]bool {
	out := make(map[core.VehicleID]map[core.AppName]bool)
	mark := func(v core.VehicleID, app core.AppName) {
		if out[v] == nil {
			out[v] = make(map[core.AppName]bool)
		}
		out[v][app] = true
	}
	for _, t := range f.settledOps {
		if t.metric == "deploy" && t.done && !t.lost && len(t.final.Children) == 0 && t.final.State == api.StateSucceeded {
			mark(t.final.Vehicle, t.final.App)
		}
	}
	for _, cop := range f.childFinal {
		if cop.Kind == api.OpDeploy && cop.State == api.StateSucceeded {
			mark(cop.Vehicle, cop.App)
		}
	}
	return out
}
