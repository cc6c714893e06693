package server

import (
	"context"
	"strings"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/journal"
	"dynautosar/internal/verify"
)

// The live-upgrade pipeline: POST /v1/upgrade (and upgrade:batch) plan
// a version transition for an installed app, push one MsgUpgrade per
// plug-in to the running vehicle, and commit the InstalledAPP row swap
// only once every plug-in acknowledged its hot-swap. The vehicle side
// (internal/pirte, internal/ecm) quiesces each plug-in, transfers its
// exported state into the new version, health-probes it and rolls back
// on failure; a rollback nack settles the operation failed with the
// stable "rollback" error code and the server pushes compensating
// downgrades to any plug-in that had already swapped, so server record
// and vehicle runtime converge on the old version.
//
// This is the first scenario where server durability and the vehicle
// runtime must agree on a multi-step protocol; the journal carries it
// as a transaction:
//
//	upgrade_started   durable BEFORE the first push (write-ahead intent)
//	upgrade_committed replaces the old row with the acknowledged new one
//	upgrade_rolled_back closes a failed transition, rows untouched
//
// A crash between started and a settle record recovers to exactly the
// old version (the row was never touched); a crash after committed
// recovers to exactly the new one — never neither, never a mix.

// upgradeAckTimeout bounds the real-time wait for one upgrade's vehicle
// acknowledgements; a var so tests can shrink it.
var upgradeAckTimeout = 30 * time.Second

// Upgrade starts a live in-place upgrade of From to To on a running
// vehicle and returns its operation; the heavy lifting runs in the
// background and the operation settles once the vehicle acknowledged
// every plug-in swap.
func (s *Server) Upgrade(req api.UpgradeRequest) (api.Operation, error) {
	return s.launch(upgradeKind, target{user: req.User, vehicle: req.Vehicle, app: req.From, toApp: req.To}, req.IdempotencyKey)
}

// BatchUpgrade starts a fleet-wide live upgrade with the batch engine's
// parent/child semantics and plan reuse.
func (s *Server) BatchUpgrade(req api.BatchUpgradeRequest) (api.Operation, error) {
	return s.launchBatch(upgradeKind, target{user: req.User, app: req.From, toApp: req.To}, req.Vehicles, req.Selector, req.IdempotencyKey)
}

func claimBothSides(_ *Server, t target) []core.AppName { return []core.AppName{t.app, t.toApp} }

// precheckUpgrade validates the cheap preconditions of an upgrade: the
// old app is installed and fully acknowledged, the new one not
// installed yet.
func precheckUpgrade(s *Server, t target, _ VehicleRecord, opID string) error {
	if t.toApp == "" || t.app == "" {
		return api.Errorf(api.CodeInvalidArgument, "server: upgrade needs both the installed app and its replacement")
	}
	// Advisory duplicate probe (the claim decides): a second upgrade
	// touching either app of one in flight is refused synchronously, so
	// callers get the stable code at POST time.
	if err := s.claimedByOther(opID, t.vehicle, t.app, t.toApp); err != nil {
		return err
	}
	row, ok := s.store.InstalledApp(t.vehicle, t.app)
	if !ok {
		return api.Errorf(api.CodeNotFound, "server: app %s is not installed on %s", t.app, t.vehicle)
	}
	if !row.Complete() {
		return api.Errorf(api.CodeFailedPrecondition,
			"server: installation of %s on %s is still in progress", t.app, t.vehicle)
	}
	if _, dup := s.store.InstalledApp(t.vehicle, t.toApp); dup {
		return api.Errorf(api.CodeAlreadyExists, "server: app %s already installed on %s", t.toApp, t.vehicle)
	}
	return nil
}

// planUpgrade builds the transition plan: the new app re-checked for
// compatibility against the vehicle *minus* the old app, placements
// matched 1:1 against the old row, contexts generated with the old
// version's port ids forced for same-named ports (links from other
// plug-ins, ECC routes and in-flight traffic survive the swap), and
// both directions packaged — each swap step carries the new version
// and, as its Old state, the installed one re-packaged with its
// recorded contexts, so a partially acknowledged upgrade can push the
// old version back onto plug-ins that already swapped. The verifier
// walks the forward path and that rollback path state by state.
func planUpgrade(s *Server, t target, vr VehicleRecord) (*vehiclePlan, error) {
	oldRow, ok := s.store.InstalledApp(t.vehicle, t.app)
	if !ok {
		return nil, api.Errorf(api.CodeNotFound, "server: app %s is not installed on %s", t.app, t.vehicle)
	}
	app, ok := s.store.App(t.toApp)
	if !ok {
		return nil, api.Errorf(api.CodeNotFound, "server: unknown app %s", t.toApp)
	}
	report := s.checkCompatibility(app, vr, t.app)
	if err := report.Error(); err != nil {
		return nil, err
	}
	order, err := InstallOrder(app, report.Conf)
	if err != nil {
		return nil, err
	}
	oldApp, oldContexts, err := s.rowContexts(vr, oldRow)
	if err != nil {
		return nil, err
	}
	// Placement match: a live upgrade swaps plug-ins in place, so the
	// new conf must keep the old plug-in set and its SW-C placements.
	// Added or removed plug-ins need the uninstall+deploy path.
	olds := make(map[core.PluginName]*verify.PluginState, len(oldRow.Plugins))
	for _, st := range rowStatesFrom(oldRow, oldApp, oldContexts) {
		olds[st.Plugin] = st
	}
	if len(order) != len(oldRow.Plugins) {
		return nil, api.Errorf(api.CodeFailedPrecondition,
			"server: %s deploys %d plug-ins but %s has %d installed; live upgrade needs a 1:1 match (use uninstall+deploy)",
			t.toApp, len(order), t.app, len(oldRow.Plugins))
	}
	forced := make(map[core.PluginName]core.PIC, len(order))
	for _, d := range order {
		old, ok := olds[d.Plugin]
		if !ok {
			return nil, api.Errorf(api.CodeFailedPrecondition,
				"server: plug-in %s of %s has no counterpart in installed %s; live upgrade needs a 1:1 match (use uninstall+deploy)",
				d.Plugin, t.toApp, t.app)
		}
		if old.ECU != d.ECU || old.SWC != d.SWC {
			return nil, api.Errorf(api.CodeFailedPrecondition,
				"server: plug-in %s moves from %s/%s to %s/%s; live upgrade swaps in place (use uninstall+deploy)",
				d.Plugin, old.ECU, old.SWC, d.ECU, d.SWC)
		}
		forced[d.Plugin] = old.PIC
	}
	contexts, err := s.generateContexts(app, vr, order, forced)
	if err != nil {
		return nil, err
	}
	p := s.newPlan(verify.PlanUpgrade, vr, t.app)
	for _, d := range order {
		raw, err := packagePlugin(app, d.Plugin, contexts[d.Plugin])
		if err != nil {
			return nil, err
		}
		back, err := packagePlugin(oldApp, d.Plugin, oldContexts[d.Plugin])
		if err != nil {
			return nil, err
		}
		p.addStep(t.app, verify.Step{
			Kind: verify.StepSwap, Plugin: d.Plugin,
			New: contextState(d.Plugin, d.ECU, d.SWC, app, contexts[d.Plugin]),
			Old: olds[d.Plugin],
		}, raw)
		p.back = append(p.back, back)
	}
	return p.verified()
}

// stageUpgrade reserves the planned row's port ids against concurrent
// deploy planning and enqueues the write-ahead intent record.
func stageUpgrade(s *Server, t target, p *vehiclePlan) (journal.Ticket, error) {
	s.store.ReserveUpgrade(p.row(t.vehicle, t.toApp))
	if s.jn == nil {
		return journal.Ticket{}, nil
	}
	return s.jn.Append(journal.UpgradeStartedRec(t.vehicle, t.app, t.toApp)), nil
}

// unstageUpgrade drops the reservation and closes the journal
// transaction; fire-and-forget like the other settle-side records — a
// lost record recovers identically (the old row stands).
func unstageUpgrade(s *Server, t target, reason string) {
	s.store.ReleaseUpgrade(t.vehicle, t.toApp)
	if s.jn != nil && reason != "" {
		s.jn.Append(journal.UpgradeRolledBackRec(t.vehicle, t.app, t.toApp, reason))
	}
}

// collect waits for n settlements on notify, bounded by the ack deadline
// and by server shutdown (pushCtx), so a silent vehicle or a dying
// shard leader cannot wedge a batch worker forever. It returns the
// failure ("" for an ack) of every plug-in that settled in time.
func (s *Server) collect(notify chan ackOutcome, n int) map[core.PluginName]string {
	outcomes := make(map[core.PluginName]string, n)
	ctx, cancel := context.WithTimeout(s.pushCtx, upgradeAckTimeout)
	defer cancel()
	for len(outcomes) < n {
		select {
		case out := <-notify:
			outcomes[out.plugin] = out.failure
		case <-ctx.Done():
			return outcomes
		}
	}
	return outcomes
}

// settleUpgrade closes one vehicle's live upgrade: each plug-in
// quiesces and swaps independently on the vehicle, the server
// serializes nothing and collects the outcomes of everything that made
// it onto the wire, then either commits the row atomically or
// compensates back to the old version. The returned error (nil on
// success) carries the stable "rollback" code when the vehicle rolled a
// plug-in back.
func settleUpgrade(s *Server, k *opKind, t target, p *vehiclePlan, notify chan ackOutcome, pushed int, pushErr error) error {
	outcomes := s.collect(notify, pushed)
	var failures []string
	rolledBack := false
	for _, st := range p.Steps[:pushed] {
		if failure := outcomes[st.Plugin]; failure != "" {
			failures = append(failures, failure)
			if strings.Contains(failure, "rollback: ") {
				rolledBack = true
			}
		}
	}
	joined := strings.Join(failures, "; ")
	reason := joined
	var err error
	switch {
	case rolledBack:
		reason = "vehicle rolled back: " + joined
		err = api.Errorf(api.CodeRolledBack, "server: upgrade of %s to %s on %s rolled back: %s",
			t.app, t.toApp, t.vehicle, joined)
	case pushErr != nil:
		err = pushErr
		if reason == "" {
			reason = pushErr.Error()
		}
	case len(failures) > 0:
		err = api.Errorf(api.CodeUnavailable, "server: upgrade of %s to %s on %s failed: %s",
			t.app, t.toApp, t.vehicle, joined)
	case len(outcomes) < pushed:
		reason = "timed out waiting for upgrade acknowledgements"
		err = api.Errorf(api.CodeUnavailable, "server: upgrade of %s to %s on %s timed out awaiting acknowledgements",
			t.app, t.toApp, t.vehicle)
	default:
		// Every plug-in swapped: commit the row atomically. The new row
		// is fully acknowledged by construction. A refusal means a
		// concurrent operation interleaved (old row gone or new app
		// deployed meanwhile): the vehicle runs the new version, the
		// record lost the race — compensate back to the old.
		newRow := p.row(t.vehicle, t.toApp)
		for i := range newRow.Plugins {
			newRow.Plugins[i].Acked = true
		}
		if err = s.store.CommitUpgrade(t.app, newRow); err == nil {
			s.logf("server: upgraded %s to %s on %s (%d plug-ins swapped live)", t.app, t.toApp, t.vehicle, pushed)
			return nil
		}
		reason = err.Error()
	}
	s.compensate(k, t, p, pushed, outcomes)
	k.unstage(s, t, reason)
	return err
}

// compensate pushes the old version back onto every plug-in whose swap
// frame made it onto the wire and either acknowledged the new version
// or is unsettled, in reverse step order — the rollback path the
// verifier walked; plug-ins that nacked already rolled back on the
// vehicle, and plug-ins never pushed still run the old version
// untouched. Best-effort: a dead link leaves the vehicle to its own
// NvM-restore consistency, and the server row — still the old version —
// is the authoritative record either way. The frames are charged to no
// operation; their outcomes are drained so the downgrade completed
// before the claim is released, failures logged, not escalated.
func (s *Server) compensate(k *opKind, t target, p *vehiclePlan, pushed int, outcomes map[core.PluginName]string) {
	var pushes []push
	for i := pushed - 1; i >= 0; i-- {
		if failure, settled := outcomes[p.Steps[i].Plugin]; settled && failure != "" {
			continue // the vehicle already runs the old version here
		}
		back := p.pushes[i]
		back.app, back.msg.Payload = t.toApp, p.back[i]
		pushes = append(pushes, back)
	}
	if len(pushes) == 0 {
		return
	}
	notify := make(chan ackOutcome, len(pushes))
	n, err := s.pushSteps(t.vehicle, pendingOp{kind: k, notify: notify}, pushes)
	if err != nil {
		s.logf("server: compensation on %s: %v", t.vehicle, err)
	}
	settled := s.collect(notify, n)
	for plugin, failure := range settled {
		if failure != "" {
			s.logf("server: compensation of %s on %s: %s", plugin, t.vehicle, failure)
		}
	}
	if len(settled) < n {
		s.logf("server: compensation on %s timed out", t.vehicle)
	}
}
