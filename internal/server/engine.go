package server

import (
	"sync"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/journal"
)

// The operation engine. The (re)deployment group of section 3.2.2 —
// install, uninstall, restore, plus the live upgrade — is one thing: a
// dependency-ordered path of per-plug-in steps (a verify.Plan), pushed
// through the ECM and acknowledged. Every kind runs through the one
// skeleton below,
//
//	precheck → claim → plan + stage (under the vehicle's deploy stripe)
//	→ durability wait (outside it) → pushSteps → settle (if the kind has one)
//
// and the kinds table holds only what really differs between them.

// target names what one operation acts on.
type target struct {
	user    core.UserID
	vehicle core.VehicleID
	// app is the app deployed, uninstalled or upgraded from; toApp the
	// upgrade's replacement; ecu the replaced ECU of a restore.
	app, toApp core.AppName
	ecu        core.ECUID
}

// opKind is one row of the kind table.
type opKind struct {
	kind api.OperationKind
	// batch is the parent kind of the fleet-wide form ("" for none).
	batch api.OperationKind
	// precheck runs after the shared vehicle/owner/app checks, at POST
	// time (opID "") and again at launch.
	precheck func(s *Server, t target, vr VehicleRecord, opID string) error
	// claims lists the apps the operation must own on the vehicle.
	claims func(s *Server, t target) []core.AppName
	// plan builds and verifies the vehicle's plan; called with the
	// vehicle's deploy stripe held.
	plan func(s *Server, t target, vr VehicleRecord) (*vehiclePlan, error)
	// stage records the planned outcome before anything is pushed and
	// returns the ticket of its journal record; unstage undoes it, with
	// an empty reason when that record never became durable (for the
	// journal it never existed). Both nil for kinds that stage nothing.
	stage   func(s *Server, t target, p *vehiclePlan) (journal.Ticket, error)
	unstage func(s *Server, t target, reason string)
	// rowExcludes marks a kind whose staged row itself keeps other
	// operations out once its frames are on the wire (a duplicate deploy
	// fails the atomic record, an upgrade waits for a complete row), so
	// the claim ends with the launch instead of with the last ack — an
	// uninstall of a deploy whose vehicle never answers stays possible.
	rowExcludes bool
	// acked is the store effect of one acknowledged frame (nil: none).
	acked func(st *Store, vehicle core.VehicleID, app core.AppName, plugin core.PluginName)
	// settle, when set, closes the operation after its pushes instead of
	// leaving it to settle ack by ack: it collects the outcomes of the
	// pushed frames on notify and commits or compensates.
	settle func(s *Server, k *opKind, t target, p *vehiclePlan, notify chan ackOutcome, pushed int, pushErr error) error
	// goal names the row whose completeness proves that a child
	// interrupted by a restart had succeeded (nil: not derivable).
	goal func(op *api.Operation) core.AppName
}

var (
	deployKind = &opKind{
		kind: api.OpDeploy, batch: api.OpBatchDeploy,
		precheck: precheckDeploy, claims: claimApp, plan: planDeploy,
		stage: stageDeploy, unstage: unstageDeploy, rowExcludes: true,
		acked: (*Store).MarkInstallAcked,
		goal:  func(op *api.Operation) core.AppName { return op.App },
	}
	uninstallKind = &opKind{
		kind: api.OpUninstall, batch: api.OpBatchUninstall,
		precheck: precheckUninstall, claims: claimApp, plan: planUninstall,
		// "The InstalledAPP table is updated once successful
		// uninstallation has been fully acknowledged."
		acked: (*Store).DropUninstalledPlugin,
	}
	restoreKind = &opKind{
		kind:     api.OpRestore,
		precheck: precheckRestore, claims: claimRestored, plan: planRestore,
		acked: (*Store).MarkInstallAcked,
	}
	// An acknowledged swap leaves the store untouched: the row
	// replacement commits atomically in the settle step, so a partial
	// upgrade never leaks a mixed row.
	upgradeKind = &opKind{
		kind: api.OpUpgrade, batch: api.OpBatchUpgrade,
		precheck: precheckUpgrade, claims: claimBothSides, plan: planUpgrade,
		stage: stageUpgrade, unstage: unstageUpgrade, settle: settleUpgrade,
		goal: func(op *api.Operation) core.AppName { return op.ToApp },
	}
	kinds = []*opKind{deployKind, uninstallKind, restoreKind, upgradeKind}
)

// kindOf finds the table row of a per-vehicle kind or of its batch
// parent kind; nil for anything else.
func kindOf(kind api.OperationKind) *opKind {
	for _, k := range kinds {
		if k.kind == kind || (k.batch != "" && k.batch == kind) {
			return k
		}
	}
	return nil
}

func claimApp(_ *Server, t target) []core.AppName { return []core.AppName{t.app} }

// launch is the single-vehicle entry of every kind: the cheap
// preconditions are validated synchronously, then the pipeline runs in
// the background and reports through the returned operation — a launch
// error, then the acknowledgements as they arrive. It runs through the
// idempotency gate: a repeated key returns the original operation
// instead of double-creating (see shard.go).
func (s *Server) launch(k *opKind, t target, key string) (api.Operation, error) {
	return s.runIdempotent(key, func(key string) (api.Operation, error) {
		if _, err := s.precheck(k, t, ""); err != nil {
			return api.Operation{}, err
		}
		id := s.newOperation(k.kind, t.user, t.vehicle, t.app, t.toApp, t.ecu, key).op.ID
		s.background(func() { s.finishLaunch(id, s.run(k, id, t, nil)) })
		return s.operationSnapshot(id), nil
	})
}

// launchBatch is the fleet-wide entry: it resolves the fleet
// synchronously, returns the parent operation immediately and runs one
// child per vehicle. Per-vehicle problems (offline, incompatible,
// already installed, foreign owner) fail that vehicle's child without
// aborting the rest.
func (s *Server) launchBatch(k *opKind, t target, vehicles []core.VehicleID, sel *api.FleetSelector, key string) (api.Operation, error) {
	return s.runIdempotent(key, func(key string) (api.Operation, error) {
		if err := s.checkApps(t); err != nil {
			return api.Operation{}, err
		}
		fleet, err := s.resolveFleet(t.user, vehicles, sel)
		if err != nil {
			return api.Operation{}, err
		}
		parentID, children := s.newBatchOperation(k.batch, k.kind, t.user, t.app, t.toApp, fleet, key)
		s.background(func() { s.runChildren(k, t, parentID, children, s.staged(k)) })
		return s.operationSnapshot(parentID), nil
	})
}

// batchInflight bounds, per batch, how many children may sit between
// stage and settle on goroutines of their own; a var so tests can
// shrink it.
var batchInflight = 512

// childBody is one batch child's work: it runs on the batch's worker
// pool and returns the blocking remainder for a goroutine of the child's
// own — or nil when err is already the child's launch outcome.
type childBody func(opID string, t target, cache *planCache) (rest func() error, err error)

// staged is the childBody of a plain batch: the worker pool runs only
// the CPU half of a child (begin: claim, plan, stage); a child that then
// has to block — on the group commit of its stage record or in its
// settle step — hands finish off, so the pool never parks in an fsync or
// an ack round trip and keeps planning at CPU speed.
func (s *Server) staged(k *opKind) childBody {
	return func(opID string, t target, cache *planCache) (func() error, error) {
		p, ticket, err := s.begin(k, opID, t, cache)
		if err != nil {
			return nil, err
		}
		rest := func() error { return s.finish(k, opID, t, p, ticket) }
		if ticket == (journal.Ticket{}) && k.settle == nil {
			return nil, rest()
		}
		return rest, nil
	}
}

// handedOff is the childBody that does all of f on the child's own
// goroutine (a rollout wave's timed upgrade, the fleet rollback's retry
// loop).
func handedOff(f func(opID string, t target, cache *planCache) error) childBody {
	return func(opID string, t target, cache *planCache) (func() error, error) {
		return func() error { return f(opID, t, cache) }, nil
	}
}

// runChildren drives the children of one batch parent through body and
// returns when every child reached finishLaunch. The inflight semaphore
// applies backpressure: once batchInflight children run on goroutines
// of their own the handing-off worker blocks, so a 100k-vehicle batch
// never holds 100k plans and goroutines live at once.
func (s *Server) runChildren(k *opKind, t target, parentID string, children []batchChild, body childBody) {
	cache := &planCache{}
	inflight := make(chan struct{}, batchInflight)
	var wg sync.WaitGroup
	s.runBatch(children, func(c batchChild) {
		ct := t
		ct.vehicle = c.vehicle
		rest, err := body(c.opID, ct, cache)
		if rest == nil {
			s.finishLaunch(c.opID, err)
			return
		}
		inflight <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-inflight; wg.Done() }()
			s.finishLaunch(c.opID, rest())
		}()
	})
	wg.Wait()
	hits, misses := cache.stats()
	s.logf("server: %s %s over %d vehicles: plan cache %d hits / %d misses", k.batch, parentID, len(children), hits, misses)
}

// run is one vehicle's pipeline end to end.
func (s *Server) run(k *opKind, opID string, t target, cache *planCache) error {
	p, ticket, err := s.begin(k, opID, t, cache)
	if err != nil {
		return err
	}
	return s.finish(k, opID, t, p, ticket)
}

// checkApps validates the apps a request names, shared by the single
// and the fleet-wide entries.
func (s *Server) checkApps(t target) error {
	if t.toApp != "" && t.app == t.toApp {
		return api.Errorf(api.CodeInvalidArgument, "server: upgrade from %s to itself", t.app)
	}
	for _, name := range []core.AppName{t.app, t.toApp} {
		if name != "" && !s.store.HasApp(name) {
			return api.Errorf(api.CodeNotFound, "server: unknown app %s", name)
		}
	}
	return nil
}

// precheck runs the checks that reject a request before an operation is
// created — and again at launch, since the world may have moved: the
// vehicle is known and bound to the caller, the named apps exist, then
// whatever the kind adds. Everything it finds is advisory; the claim
// and the stage record decide.
func (s *Server) precheck(k *opKind, t target, opID string) (VehicleRecord, error) {
	vr, ok := s.store.Vehicle(t.vehicle)
	if !ok {
		return VehicleRecord{}, api.Errorf(api.CodeNotFound, "server: unknown vehicle %s", t.vehicle)
	}
	if vr.Owner != t.user {
		return VehicleRecord{}, api.Errorf(api.CodePermissionDenied, "server: vehicle %s is not bound to user %s", t.vehicle, t.user)
	}
	if err := s.checkApps(t); err != nil {
		return VehicleRecord{}, err
	}
	return vr, k.precheck(s, t, vr, opID)
}

// begin is the synchronous half of one vehicle's pipeline: under the
// vehicle's deploy stripe the claims are taken, the plan is computed
// (or reused from the batch cache) and the kind's stage record is
// enqueued. Planning reads the vehicle's free port-id space, so two
// operations on one vehicle must not both plan before either stages.
// The returned ticket resolves when the stage record is durable;
// waiting is finish's, outside the stripe — the staged state is already
// visible to concurrent planners, so holding the stripe across a group
// commit would only serialize unrelated vehicles behind an fsync. A
// failure leaves the claims to the operation's terminal state.
func (s *Server) begin(k *opKind, opID string, t target, cache *planCache) (*vehiclePlan, journal.Ticket, error) {
	if s.pushCtx.Err() != nil {
		// Close is waiting for this pipeline: stage nothing more.
		return nil, journal.Ticket{}, api.Errorf(api.CodeUnavailable, "server: shutting down")
	}
	vr, err := s.precheck(k, t, opID)
	if err != nil {
		return nil, journal.Ticket{}, err
	}
	stripe := &s.deployMu[shardIndex(t.vehicle)]
	stripe.Lock()
	defer stripe.Unlock()
	if err := s.claim(opID, t.vehicle, k.claims(s, t), k.rowExcludes); err != nil {
		return nil, journal.Ticket{}, err
	}
	p, err := s.planFor(k, t, vr, cache)
	if err != nil || k.stage == nil {
		return p, journal.Ticket{}, err
	}
	ticket, err := k.stage(s, t, p)
	return p, ticket, err
}

// finish is the blocking half: the write-ahead gate, the pushes, and
// the kind's settle step. A kind without one returns as soon as its
// frames are on the wire and settles ack by ack (see ops.go).
func (s *Server) finish(k *opKind, opID string, t target, p *vehiclePlan, ticket journal.Ticket) error {
	// Write-ahead gate: nothing goes on the wire before the stage record
	// is on disk.
	if err := waitDurable(ticket); err != nil {
		k.unstage(s, t, "")
		return err
	}
	var notify chan ackOutcome
	if k.settle != nil {
		notify = make(chan ackOutcome, len(p.pushes))
	}
	pushed, err := s.pushSteps(t.vehicle, pendingOp{kind: k, opID: opID, notify: notify}, p.pushes)
	if k.settle != nil {
		return k.settle(s, k, t, p, notify, pushed, err)
	}
	if err != nil && k.unstage != nil {
		k.unstage(s, t, err.Error())
	}
	return err
}

// pushSteps writes the frames to the vehicle in order, pinned to the
// link that is current now, each registered as pending (per tmpl) before
// it is written so its ack always finds it. It stops at the first frame
// the link refuses and reports how many made it onto the wire.
func (s *Server) pushSteps(vehicle core.VehicleID, tmpl pendingOp, pushes []push) (int, error) {
	tmpl.vehicle, tmpl.epoch = vehicle, s.pusher.Epoch(vehicle)
	for i, p := range pushes {
		tmpl.app, tmpl.plugin = p.app, p.msg.Plugin
		p.msg.Seq = s.enqueuePending(tmpl)
		if err := s.pusher.PushOn(vehicle, tmpl.epoch, p.msg); err != nil {
			s.dropPending(p.msg.Seq)
			return i, api.Errorf(api.CodeUnavailable, "server: push to %s: %v", vehicle, err)
		}
		s.logf("server: pushed {%d, '%s', %s, %s.pkg} to %s", p.msg.Type, p.msg.Plugin, p.msg.ECU, p.msg.Plugin, vehicle)
	}
	return len(pushes), nil
}

// claim takes the operation's claims on apps of one vehicle, all or
// none: an app another operation holds is refused with the one
// claim-conflict answer, whatever the two kinds are. Claims end when
// the operation is terminal and its last frame has settled (see
// releaseDrainedLocked) — or, atLaunch, when its launch finishes.
func (s *Server) claim(opID string, vehicle core.VehicleID, apps []core.AppName, atLaunch bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.claimConflictLocked(opID, vehicle, apps); err != nil {
		return err
	}
	rec := s.ops[opID]
	rec.claimsEndAtLaunch = atLaunch
	for _, app := range apps {
		if key := failureKey(vehicle, app); s.claims[key] == "" {
			s.claims[key] = opID
			rec.claims = append(rec.claims, key)
		}
	}
	return nil
}

// claimConflictLocked reports the conflict a claim by opID would meet;
// called with Server.mu held.
func (s *Server) claimConflictLocked(opID string, vehicle core.VehicleID, apps []core.AppName) error {
	for _, app := range apps {
		if owner := s.claims[failureKey(vehicle, app)]; owner != "" && owner != opID {
			return api.Errorf(api.CodeAlreadyExists, "server: operation %s on %s@%s in progress", owner, app, vehicle)
		}
	}
	return nil
}

// claimedByOther is the advisory form of claim: the conflict, nothing
// taken.
func (s *Server) claimedByOther(opID string, vehicle core.VehicleID, apps ...core.AppName) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.claimConflictLocked(opID, vehicle, apps)
}

// releaseClaimsLocked frees every claim the operation holds; called
// with Server.mu held.
func (s *Server) releaseClaimsLocked(rec *opRecord) {
	for _, key := range rec.claims {
		delete(s.claims, key)
	}
	rec.claims = nil
}

// releaseDrainedLocked frees the operation's claims once it is terminal
// AND none of its frames are still in flight — releasing earlier would
// let a retry push duplicate frames past ones the vehicle is about to
// apply. Called with Server.mu held.
func (s *Server) releaseDrainedLocked(rec *opRecord) {
	if rec.op.Done && rec.outstanding == 0 {
		s.releaseClaimsLocked(rec)
	}
}

// planFor returns the plan for one vehicle: a cached fleet plan when
// the vehicle's state matches one already planned in this batch, the
// kind's planner otherwise. Plans transfer only between vehicles on
// which the operation's own app is all there is — nothing installed
// (deploy), or only the row being replaced or removed: other installed
// apps change port-id assignment, quota headroom, conflict and
// dependency resolution, so those vehicles always plan individually.
// Called with the vehicle's deploy stripe held.
func (s *Server) planFor(k *opKind, t target, vr VehicleRecord, cache *planCache) (*vehiclePlan, error) {
	var oldRow InstalledApp
	reusable := false
	if cache != nil {
		switch rows := s.store.InstalledApps(t.vehicle); {
		case len(rows) == 0:
			reusable = true
		case len(rows) == 1 && rows[0].App == t.app:
			oldRow, reusable = rows[0], true
		}
		if reusable {
			if p := cache.lookup(vr.Conf, oldRow); p != nil {
				return p, nil
			}
		}
	}
	p, err := k.plan(s, t, vr)
	if err == nil && reusable {
		p.oldRow = oldRow
		cache.add(p)
	}
	return p, err
}
