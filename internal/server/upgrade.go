package server

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/journal"
	"dynautosar/internal/plugin"
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

// upgradePlan is the vehicle-independent half of one upgrade: the new
// app's dependency-ordered deployments, packaged against the old row's
// recorded port ids (same-named ports keep their SW-C-scope identity).
// Like deployPlan it transfers between vehicles of equal configuration
// — here additionally requiring a structurally equal old row, which
// batch-deployed fleets have by construction (package-once/push-many
// assigns identical PICs).
type upgradePlan struct {
	conf   core.VehicleConf
	oldRow InstalledApp
	// sole records that the donor vehicle had no installed apps besides
	// the one being upgraded — the transfer precondition, mirroring
	// deployPlan's fresh flag: other installed apps change conflict
	// resolution, quota headroom and free port-id space, so such
	// vehicles always plan individually.
	sole  bool
	order []Deployment
	pics  map[core.PluginName]core.PIC
	raws  map[core.PluginName][]byte
	// oldRaws are the compensation packages: the old binaries re-packaged
	// with their recorded contexts, pushed to roll already-swapped
	// plug-ins back when a later plug-in of the same upgrade fails.
	oldOrder []Deployment
	oldRaws  map[core.PluginName][]byte
	// vplan is the verifier model built (and checked) by verifyUpgrade;
	// rollout start reuses it for the wave-prefix abortability check.
	vplan *verify.Plan
}

// Upgrade starts a live in-place upgrade of From to To on a running
// vehicle and returns its operation; the heavy lifting runs in the
// background and the operation settles as the vehicle acknowledges each
// plug-in swap.
func (s *Server) Upgrade(req api.UpgradeRequest) (api.Operation, error) {
	return s.runIdempotent(req.IdempotencyKey, func(key string) (api.Operation, error) {
		if err := s.precheckUpgrade(req.User, req.Vehicle, req.From, req.To); err != nil {
			return api.Operation{}, err
		}
		id := s.newOperation(api.OpUpgrade, req.User, req.Vehicle, req.From, req.To, "", key).op.ID
		go func() {
			s.finishLaunch(id, s.upgrade(id, req.User, req.Vehicle, req.From, req.To, nil))
		}()
		return s.operationSnapshot(id), nil
	})
}

// BatchUpgrade starts a fleet-wide live upgrade with the batch engine's
// parent/child semantics and plan reuse.
func (s *Server) BatchUpgrade(req api.BatchUpgradeRequest) (api.Operation, error) {
	return s.runIdempotent(req.IdempotencyKey, func(key string) (api.Operation, error) {
		if !s.store.HasApp(req.From) {
			return api.Operation{}, api.Errorf(api.CodeNotFound, "server: unknown app %s", req.From)
		}
		if !s.store.HasApp(req.To) {
			return api.Operation{}, api.Errorf(api.CodeNotFound, "server: unknown app %s", req.To)
		}
		if req.From == req.To {
			return api.Operation{}, api.Errorf(api.CodeInvalidArgument, "server: upgrade from %s to itself", req.From)
		}
		fleet, err := s.resolveFleet(req.User, req.Vehicles, req.Selector)
		if err != nil {
			return api.Operation{}, err
		}
		parentID, children := s.newBatchOperation(api.OpBatchUpgrade, api.OpUpgrade, req.User, req.From, req.To, fleet, key)
		go func() {
			cache := &planCache{}
			// An upgrade child blocks through its vehicle's swap round trip
			// (it must collect the acks before committing the row), so the
			// waits run off the worker pool: the pool dispatches, the
			// inflight semaphore bounds how many vehicles sit between push
			// and commit at once — the same backpressure shape as
			// deployChild's commit-wait hand-off.
			inflight := make(chan struct{}, batchInflight)
			var wg sync.WaitGroup
			s.runBatch(children, func(c batchChild) {
				inflight <- struct{}{}
				wg.Add(1)
				go func() {
					defer func() { <-inflight; wg.Done() }()
					s.finishLaunch(c.opID, s.upgrade(c.opID, req.User, c.vehicle, req.From, req.To, cache))
				}()
			})
			wg.Wait()
			hits, misses := cache.upgradeStats()
			s.logf("server: upgrade batch %s over %d vehicles: plan cache %d hits / %d misses", parentID, len(fleet), hits, misses)
		}()
		return s.operationSnapshot(parentID), nil
	})
}

// precheckUpgrade validates the cheap preconditions of an upgrade: the
// vehicle is known and owned, the old app is installed and fully
// acknowledged, the new app exists and is not installed yet.
func (s *Server) precheckUpgrade(user core.UserID, vehicleID core.VehicleID, fromApp, toApp core.AppName) error {
	vr, ok := s.store.Vehicle(vehicleID)
	if !ok {
		return api.Errorf(api.CodeNotFound, "server: unknown vehicle %s", vehicleID)
	}
	if vr.Owner != user {
		return api.Errorf(api.CodePermissionDenied, "server: vehicle %s is not bound to user %s", vehicleID, user)
	}
	if toApp == "" || fromApp == "" {
		return api.Errorf(api.CodeInvalidArgument, "server: upgrade needs both the installed app and its replacement")
	}
	if fromApp == toApp {
		return api.Errorf(api.CodeInvalidArgument, "server: upgrade from %s to itself", fromApp)
	}
	if !s.store.HasApp(toApp) {
		return api.Errorf(api.CodeNotFound, "server: unknown app %s", toApp)
	}
	// Advisory duplicate probe (the claim in upgrade() decides): a
	// second upgrade touching either app of one in flight is refused
	// synchronously, so callers get the stable code at POST time.
	if s.upgradeTarget(vehicleID, fromApp) || s.upgradeTarget(vehicleID, toApp) {
		return api.Errorf(api.CodeAlreadyExists,
			"server: upgrade involving %s on %s already in progress", fromApp, vehicleID)
	}
	row, ok := s.store.InstalledApp(vehicleID, fromApp)
	if !ok {
		return api.Errorf(api.CodeNotFound, "server: app %s is not installed on %s", fromApp, vehicleID)
	}
	if !row.Complete() {
		return api.Errorf(api.CodeFailedPrecondition,
			"server: installation of %s on %s is still in progress", fromApp, vehicleID)
	}
	if _, dup := s.store.InstalledApp(vehicleID, toApp); dup {
		return api.Errorf(api.CodeAlreadyExists, "server: app %s already installed on %s", toApp, vehicleID)
	}
	return nil
}

// claimUpgrade takes the per-vehicle upgrade claim on both app names,
// so concurrent upgrades touching either side are refused instead of
// interleaving their swaps. Released by the pipeline when it settles.
func (s *Server) claimUpgrade(vehicleID core.VehicleID, fromApp, toApp core.AppName, opID string) error {
	fromKey, toKey := failureKey(vehicleID, fromApp), failureKey(vehicleID, toApp)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.upgrading == nil {
		s.upgrading = make(map[string]string)
	}
	if owner := s.upgrading[fromKey]; owner != "" && owner != opID {
		return api.Errorf(api.CodeAlreadyExists,
			"server: upgrade of %s on %s already in progress", fromApp, vehicleID)
	}
	if owner := s.upgrading[toKey]; owner != "" && owner != opID {
		return api.Errorf(api.CodeAlreadyExists,
			"server: upgrade involving %s on %s already in progress", toApp, vehicleID)
	}
	s.upgrading[fromKey] = opID
	s.upgrading[toKey] = opID
	return nil
}

// releaseUpgradeClaim frees the claims taken by claimUpgrade.
func (s *Server) releaseUpgradeClaim(vehicleID core.VehicleID, fromApp, toApp core.AppName, opID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, key := range []string{failureKey(vehicleID, fromApp), failureKey(vehicleID, toApp)} {
		if s.upgrading[key] == opID {
			delete(s.upgrading, key)
		}
	}
}

// upgradeTarget reports whether app on vehicle is a side of an
// in-flight upgrade (takes s.mu itself); the deploy and uninstall
// paths consult it so operations racing an open upgrade transaction
// are refused early.
func (s *Server) upgradeTarget(vehicleID core.VehicleID, app core.AppName) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.upgrading[failureKey(vehicleID, app)] != ""
}

// planUpgrade builds the transition plan: the new app re-checked for
// compatibility against the vehicle *minus* the old app, placements
// matched 1:1 against the old row, contexts generated with the old
// version's port ids forced for same-named ports, and both directions
// packaged (forward swap and compensation).
func (s *Server) planUpgrade(vr VehicleRecord, oldRow InstalledApp, fromApp, toApp core.AppName) (*upgradePlan, error) {
	app, ok := s.store.App(toApp)
	if !ok {
		return nil, api.Errorf(api.CodeNotFound, "server: unknown app %s", toApp)
	}
	report := s.checkCompatibility(app, vr, fromApp)
	if err := report.Error(); err != nil {
		return nil, err
	}
	order, err := InstallOrder(app, report.Conf)
	if err != nil {
		return nil, err
	}
	// Placement match: a live upgrade swaps plug-ins in place, so the
	// new conf must keep the old plug-in set and its SW-C placements.
	// Added or removed plug-ins need the uninstall+deploy path.
	oldByName := make(map[core.PluginName]InstalledPlugin, len(oldRow.Plugins))
	for _, p := range oldRow.Plugins {
		oldByName[p.Plugin] = p
	}
	if len(order) != len(oldRow.Plugins) {
		return nil, api.Errorf(api.CodeFailedPrecondition,
			"server: %s deploys %d plug-ins but %s has %d installed; live upgrade needs a 1:1 match (use uninstall+deploy)",
			toApp, len(order), fromApp, len(oldRow.Plugins))
	}
	forced := make(map[core.PluginName]core.PIC, len(order))
	for _, d := range order {
		old, ok := oldByName[d.Plugin]
		if !ok {
			return nil, api.Errorf(api.CodeFailedPrecondition,
				"server: plug-in %s of %s has no counterpart in installed %s; live upgrade needs a 1:1 match (use uninstall+deploy)",
				d.Plugin, toApp, fromApp)
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
	plan := &upgradePlan{
		conf:   vr.Conf,
		oldRow: oldRow,
		order:  order,
		pics:   make(map[core.PluginName]core.PIC, len(order)),
		raws:   make(map[core.PluginName][]byte, len(order)),
	}
	for _, d := range order {
		bin, _ := app.Binary(d.Plugin)
		pkg := plugin.Package{Binary: bin, Context: *contexts[d.Plugin]}
		raw, err := pkg.MarshalBinary()
		if err != nil {
			return nil, api.Errorf(api.CodeInternal, "server: packaging %s: %v", d.Plugin, err)
		}
		plan.pics[d.Plugin] = contexts[d.Plugin].PIC
		plan.raws[d.Plugin] = raw
	}
	oldContexts, err := s.planCompensation(plan, vr, fromApp)
	if err != nil {
		return nil, err
	}
	// Static verification: the forward swap path and the rollback path
	// are both walked state by state before the plan is staged.
	if err := s.verifyUpgrade(vr, fromApp, app, plan, contexts, oldContexts); err != nil {
		return nil, err
	}
	return plan, nil
}

// planCompensation packages the old app against its own recorded
// contexts, so a partially acknowledged upgrade can push the old
// version back onto plug-ins that already swapped. It returns the
// regenerated old contexts for the plan verifier's rollback walk.
func (s *Server) planCompensation(plan *upgradePlan, vr VehicleRecord, fromApp core.AppName) (generatedContexts, error) {
	app, ok := s.store.App(fromApp)
	if !ok {
		return nil, api.Errorf(api.CodeNotFound, "server: unknown app %s", fromApp)
	}
	conf, ok := app.ConfFor(vr.Conf.Model)
	if !ok {
		return nil, api.Errorf(api.CodeFailedPrecondition,
			"server: no SW conf of %s matches model %q", fromApp, vr.Conf.Model)
	}
	order, err := InstallOrder(app, conf)
	if err != nil {
		return nil, err
	}
	forced := make(map[core.PluginName]core.PIC, len(plan.oldRow.Plugins))
	for _, p := range plan.oldRow.Plugins {
		forced[p.Plugin] = p.PIC
	}
	contexts, err := s.generateContexts(app, vr, order, forced)
	if err != nil {
		return nil, err
	}
	plan.oldOrder = order
	plan.oldRaws = make(map[core.PluginName][]byte, len(order))
	for _, d := range order {
		bin, _ := app.Binary(d.Plugin)
		pkg := plugin.Package{Binary: bin, Context: *contexts[d.Plugin]}
		raw, err := pkg.MarshalBinary()
		if err != nil {
			return nil, api.Errorf(api.CodeInternal, "server: packaging compensation %s: %v", d.Plugin, err)
		}
		plan.oldRaws[d.Plugin] = raw
	}
	return contexts, nil
}

// stageUpgrade runs the synchronous half under the vehicle's deploy
// stripe: prerequisites re-checked, plan computed (or reused from the
// batch cache), the planned row's port ids reserved against concurrent
// deploy planning, and the write-ahead intent record enqueued. The
// durability wait is the caller's, outside the stripe.
func (s *Server) stageUpgrade(user core.UserID, vehicleID core.VehicleID, fromApp, toApp core.AppName, cache *planCache) (*upgradePlan, *InstalledApp, journal.Ticket, error) {
	vr, ok := s.store.Vehicle(vehicleID)
	if !ok {
		return nil, nil, journal.Ticket{}, api.Errorf(api.CodeNotFound, "server: unknown vehicle %s", vehicleID)
	}
	stripe := &s.deployMu[shardIndex(vehicleID)]
	stripe.Lock()
	defer stripe.Unlock()
	oldRow, ok := s.store.InstalledApp(vehicleID, fromApp)
	if !ok {
		return nil, nil, journal.Ticket{}, api.Errorf(api.CodeNotFound, "server: app %s is not installed on %s", fromApp, vehicleID)
	}
	// A cached plan transfers only between vehicles whose sole installed
	// app is the one being upgraded: anything else on the vehicle
	// changes the compatibility check (conflicts, quotas) and the free
	// port-id space, so those vehicles plan individually — the same rule
	// deployPlan applies with its fresh flag.
	sole := len(s.store.InstalledApps(vehicleID)) == 1
	var plan *upgradePlan
	if cache != nil && sole {
		plan = cache.lookupUpgrade(vr.Conf, oldRow)
	}
	if plan == nil {
		var err error
		plan, err = s.planUpgrade(vr, oldRow, fromApp, toApp)
		if err != nil {
			return nil, nil, journal.Ticket{}, err
		}
		plan.sole = sole
		if cache != nil && sole {
			cache.addUpgrade(plan)
		}
	}
	newRow := &InstalledApp{App: toApp, Vehicle: vehicleID}
	for _, d := range plan.order {
		newRow.Plugins = append(newRow.Plugins, InstalledPlugin{
			Plugin: d.Plugin, ECU: d.ECU, SWC: d.SWC,
			PIC: append(core.PIC(nil), plan.pics[d.Plugin]...),
		})
	}
	s.store.ReserveUpgrade(newRow)
	var ticket journal.Ticket
	if s.jn != nil {
		ticket = s.jn.Append(journal.UpgradeStartedRec(vehicleID, fromApp, toApp))
	}
	return plan, newRow, ticket, nil
}

// upgrade runs one vehicle's live upgrade end to end: stage, durable
// intent, concurrent MsgUpgrade pushes, ack collection, then either the
// atomic row commit or compensation back to the old version. The
// returned error (nil on success) carries the stable "rollback" code
// when the vehicle rolled a plug-in back.
func (s *Server) upgrade(opID string, user core.UserID, vehicleID core.VehicleID, fromApp, toApp core.AppName, cache *planCache) error {
	if err := s.precheckUpgrade(user, vehicleID, fromApp, toApp); err != nil {
		return err
	}
	if err := s.claimUpgrade(vehicleID, fromApp, toApp, opID); err != nil {
		return err
	}
	defer s.releaseUpgradeClaim(vehicleID, fromApp, toApp, opID)

	plan, newRow, ticket, err := s.stageUpgrade(user, vehicleID, fromApp, toApp, cache)
	if err != nil {
		return err
	}
	committed := false
	defer func() {
		if !committed {
			s.store.ReleaseUpgrade(vehicleID, toApp)
		}
	}()
	// Write-ahead intent: the swap messages go on the wire only after
	// the started record is on disk.
	if err := waitDurable(ticket); err != nil {
		return err
	}

	// Push every plug-in swap pinned to the current link; each plug-in
	// quiesces and swaps independently on the vehicle, the server
	// serializes nothing and collects the outcomes.
	epoch := s.pusher.Epoch(vehicleID)
	notify := make(chan ackOutcome, len(plan.order))
	pushed := 0
	pushedSet := make(map[core.PluginName]bool, len(plan.order))
	var launchErr error
	for _, d := range plan.order {
		seq := s.enqueuePending(pendingOp{
			vehicle: vehicleID, app: fromApp, plugin: d.Plugin,
			kind: "upgrade", opID: opID, epoch: epoch, notify: notify,
		})
		msg := core.Message{Type: core.MsgUpgrade, Plugin: d.Plugin,
			ECU: d.ECU, SWC: d.SWC, Seq: seq, Payload: plan.raws[d.Plugin]}
		if err := s.pusher.PushOn(vehicleID, epoch, msg); err != nil {
			s.dropPending(seq)
			launchErr = api.Errorf(api.CodeUnavailable, "server: push to %s: %v", vehicleID, err)
			break
		}
		pushed++
		pushedSet[d.Plugin] = true
		s.logf("server: pushed {%d, '%s', %s, upgrade} to %s", core.MsgUpgrade, d.Plugin, d.ECU, vehicleID)
	}

	// Collect the outcomes of everything that made it onto the wire,
	// bounded by the configurable ack deadline and by server shutdown
	// (pushCtx), so a silent vehicle or a dying shard leader cannot
	// wedge a batch worker forever.
	outcomes := make(map[core.PluginName]string, pushed)
	ctx, cancel := context.WithTimeout(s.pushCtx, s.ackWaitTimeout())
	defer cancel()
	timedOut := false
collect:
	for i := 0; i < pushed; i++ {
		select {
		case out := <-notify:
			outcomes[out.plugin] = out.failure
		case <-ctx.Done():
			timedOut = true
			break collect
		}
	}

	var failures []string
	rolledBack := false
	for _, d := range plan.order {
		failure, settled := outcomes[d.Plugin]
		switch {
		case settled && failure == "":
			// Swapped and acknowledged.
		case settled:
			failures = append(failures, failure)
			if strings.Contains(failure, "rollback: ") {
				rolledBack = true
			}
		default:
			// Never pushed, or unsettled at timeout.
		}
	}

	if launchErr == nil && !timedOut && len(failures) == 0 {
		// Every plug-in swapped: commit the row atomically. The new row
		// is fully acknowledged by construction.
		for i := range newRow.Plugins {
			newRow.Plugins[i].Acked = true
		}
		if err := s.store.CommitUpgrade(fromApp, newRow); err != nil {
			// A concurrent operation interleaved (old row gone or new
			// app deployed meanwhile): the vehicle runs the new version,
			// the record lost the race — compensate back to the old.
			s.compensate(vehicleID, fromApp, toApp, plan, pushedSet, outcomes)
			s.journalUpgradeRolledBack(vehicleID, fromApp, toApp, err.Error())
			return err
		}
		committed = true
		s.logf("server: upgraded %s to %s on %s (%d plug-ins swapped live)",
			fromApp, toApp, vehicleID, len(plan.order))
		return nil
	}

	// Failure: compensate every plug-in that swapped (or whose outcome
	// is unknown), close the journal transaction, surface the reason.
	s.compensate(vehicleID, fromApp, toApp, plan, pushedSet, outcomes)
	reason := ""
	switch {
	case rolledBack:
		reason = fmt.Sprintf("vehicle rolled back: %s", strings.Join(failures, "; "))
	case len(failures) > 0:
		reason = strings.Join(failures, "; ")
	case launchErr != nil:
		reason = launchErr.Error()
	default:
		reason = "timed out waiting for upgrade acknowledgements"
	}
	s.journalUpgradeRolledBack(vehicleID, fromApp, toApp, reason)
	if rolledBack {
		return api.Errorf(api.CodeRolledBack, "server: upgrade of %s to %s on %s rolled back: %s",
			fromApp, toApp, vehicleID, strings.Join(failures, "; "))
	}
	if launchErr != nil {
		return launchErr
	}
	if len(failures) > 0 {
		return api.Errorf(api.CodeUnavailable, "server: upgrade of %s to %s on %s failed: %s",
			fromApp, toApp, vehicleID, strings.Join(failures, "; "))
	}
	return api.Errorf(api.CodeUnavailable, "server: upgrade of %s to %s on %s timed out awaiting acknowledgements",
		fromApp, toApp, vehicleID)
}

// compensate pushes the old version back onto every plug-in whose swap
// frame made it onto the wire and either acknowledged the new version
// or is unsettled, in reverse install order; plug-ins that nacked
// already rolled back on the vehicle, and plug-ins never pushed still
// run the old version untouched. Best-effort: a dead link leaves the
// vehicle to its own NvM-restore consistency, and the server row —
// still the old version — is the authoritative record either way.
func (s *Server) compensate(vehicleID core.VehicleID, fromApp, toApp core.AppName, plan *upgradePlan, pushedSet map[core.PluginName]bool, outcomes map[core.PluginName]string) {
	var targets []Deployment
	for _, d := range plan.oldOrder {
		if !pushedSet[d.Plugin] {
			continue // never left the server; the old version still runs
		}
		if failure, settled := outcomes[d.Plugin]; settled && failure != "" {
			continue // the vehicle already runs the old version here
		}
		targets = append(targets, d)
	}
	if len(targets) == 0 {
		return
	}
	slices.Reverse(targets)
	epoch := s.pusher.Epoch(vehicleID)
	notify := make(chan ackOutcome, len(targets))
	pushed := 0
	for _, d := range targets {
		seq := s.enqueuePending(pendingOp{
			vehicle: vehicleID, app: toApp, plugin: d.Plugin,
			kind: "upgrade", epoch: epoch, notify: notify,
		})
		msg := core.Message{Type: core.MsgUpgrade, Plugin: d.Plugin,
			ECU: d.ECU, SWC: d.SWC, Seq: seq, Payload: plan.oldRaws[d.Plugin]}
		if err := s.pusher.PushOn(vehicleID, epoch, msg); err != nil {
			s.dropPending(seq)
			s.logf("server: compensation push of %s to %s failed: %v", d.Plugin, vehicleID, err)
			continue
		}
		pushed++
	}
	// Drain the outcomes so the downgrade completed before the claim is
	// released; failures are logged, not escalated.
	ctx, cancel := context.WithTimeout(s.pushCtx, s.ackWaitTimeout())
	defer cancel()
	for i := 0; i < pushed; i++ {
		select {
		case out := <-notify:
			if out.failure != "" {
				s.logf("server: compensation of %s on %s: %s", out.plugin, vehicleID, out.failure)
			}
		case <-ctx.Done():
			s.logf("server: compensation on %s timed out", vehicleID)
			return
		}
	}
}

// journalUpgradeRolledBack closes a failed upgrade transaction on the
// journal; fire-and-forget like the other settle-side records — a lost
// record recovers identically (the old row stands).
func (s *Server) journalUpgradeRolledBack(vehicleID core.VehicleID, fromApp, toApp core.AppName, reason string) {
	if s.jn == nil {
		return
	}
	s.jn.Append(journal.UpgradeRolledBackRec(vehicleID, fromApp, toApp, reason))
}

// lookupUpgrade returns a cached upgrade plan applicable to a vehicle
// with this configuration and old row, nil when none fits.
func (c *planCache) lookupUpgrade(conf core.VehicleConf, oldRow InstalledApp) *upgradePlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.upgrades {
		if p.sole && confsEqual(p.conf, conf) && rowsEquivalent(p.oldRow, oldRow) {
			c.upHits++
			return p
		}
	}
	c.upMisses++
	return nil
}

// addUpgrade caches a computed upgrade plan.
func (c *planCache) addUpgrade(p *upgradePlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.upgrades = append(c.upgrades, p)
}

// upgradeStats returns the upgrade-plan reuse counters.
func (c *planCache) upgradeStats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.upHits, c.upMisses
}

// rowsEquivalent reports whether two installed rows describe the same
// placement and port-id assignment — the condition for one upgrade
// plan's forced PICs to apply to another vehicle.
func rowsEquivalent(a, b InstalledApp) bool {
	if a.App != b.App || len(a.Plugins) != len(b.Plugins) {
		return false
	}
	for i := range a.Plugins {
		x, y := &a.Plugins[i], &b.Plugins[i]
		if x.Plugin != y.Plugin || x.ECU != y.ECU || x.SWC != y.SWC || !slices.Equal(x.PIC, y.PIC) {
			return false
		}
	}
	return true
}
