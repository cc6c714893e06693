package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/journal"
	"dynautosar/internal/plugin"
)

// Server is the trusted server: store, pusher and the deployment engine.
type Server struct {
	store  *Store
	pusher *Pusher

	// jn is the durable-state journal (nil when running memory-only);
	// see persist.go for the recovery path and DESIGN.md for the record
	// and snapshot semantics. recovery summarizes what Open replayed.
	jn       *journal.Journal
	recovery RecoveryStats

	mu  sync.Mutex
	seq uint32
	// pending tracks in-flight pushes by sequence number.
	pending map[uint32]pendingOp
	// failures collects nack reasons keyed by vehicle|app.
	failures map[string][]string
	// uninstalling claims one in-flight uninstall per vehicle|app (value
	// is the owning operation id), the counterpart of the deploy path's
	// atomic check-and-record.
	uninstalling map[string]string
	// upgrading claims both app names of an in-flight live upgrade per
	// vehicle (value is the owning operation id), so concurrent upgrades
	// and deploys touching either side are refused instead of
	// interleaving their swaps (see upgrade.go).
	upgrading map[string]string
	// ops is the async-operation registry (see ops.go).
	ops     map[string]*opRecord
	opOrder []string
	opSeq   uint64
	// opPruneDefer suppresses prune scans until the registry grows past
	// it: set when a scan leaves the registry over budget (a live
	// batch's children are unevictable), cleared when a batch parent
	// completes, so operation creation stays amortized O(1) instead of
	// rescanning the whole registry per op for the life of the batch.
	opPruneDefer int
	// statOpsCreated/statOpsSettled feed GET /v1/statz (see statz.go):
	// operations registered since process start, and terminal outcomes
	// bucketed by code.
	statOpsCreated uint64
	statOpsSettled map[string]uint64
	// rollouts is the progressive-rollout registry (see rollout.go).
	rollouts     map[string]*rolloutRecord
	rolloutOrder []string
	rolloutSeq   uint64
	// rolloutResume holds the continuations of rollouts interrupted by a
	// restart; recoverFrom fills it and OpenJournal launches them once
	// the journal is attached.
	rolloutResume []func()
	// idem maps idempotency keys to the operations they created, so a
	// client retry of a create whose response was lost (crash, failover)
	// is answered with the original operation instead of a duplicate.
	// Bindings are journaled with the op_created records they ride and
	// rebuilt by recovery (see shard.go).
	idem map[string]*idemClaim
	// shardID/shardRole/shardEpoch are the server's federated-control-
	// plane identity (see shard.go): which shard it serves, whether it is
	// that shard's replication leader, and its leadership epoch — bumped
	// and journaled on every (re)assumption of leadership so a deposed
	// leader's stale writes are recognizable.
	shardID    string
	shardRole  string
	shardEpoch uint64

	// deployMu stripes a per-vehicle critical section over deploy
	// planning + check-and-record: planning reads the vehicle's free
	// port-id space, so two concurrent deploys of *different* apps to
	// one vehicle must not both plan before either records (the atomic
	// check-and-record only excludes same-app duplicates). Striped by
	// the store's vehicle hash, so batch workers on different vehicles
	// rarely meet.
	deployMu [installedShardCount]sync.Mutex

	// shipper, when set, replicates the journal to follower peers;
	// healthz and statz surface its per-follower lag (see shard.go).
	shipper *journal.Shipper

	// ackWait overrides the ack-collection deadline of the upgrade
	// pipeline (0 = the upgradeAckTimeout default); pushCtx is canceled
	// by Close so no collect loop outlives the server.
	ackWait    time.Duration
	pushCtx    context.Context
	pushCancel context.CancelFunc

	logf func(format string, args ...any)
}

// pendingOp records what an awaited acknowledgement completes.
type pendingOp struct {
	vehicle core.VehicleID
	app     core.AppName
	plugin  core.PluginName
	// kind is "install", "uninstall" or "upgrade".
	kind string
	// opID ties the push to its async operation ("" for none).
	opID string
	// epoch is the vehicle-link registration the frame travelled on; the
	// disconnect sweep settles only frames of the dead epoch or older.
	epoch uint64
	// notify, when set, receives this push's settlement exactly once —
	// the upgrade pipeline blocks on its swaps' outcomes instead of
	// polling the operation. Must be buffered for every push sharing it.
	notify chan ackOutcome
}

// ackOutcome is one settled push as seen by a waiting pipeline.
type ackOutcome struct {
	plugin core.PluginName
	// failure is the nack/loss reason, "" on success.
	failure string
}

// New creates a server with an empty store and a pusher.
func New() *Server {
	s := &Server{
		store:        NewStore(),
		pending:      make(map[uint32]pendingOp),
		failures:     make(map[string][]string),
		uninstalling: make(map[string]string),
		ops:          make(map[string]*opRecord),
		rollouts:     make(map[string]*rolloutRecord),
		idem:         make(map[string]*idemClaim),
		logf:         func(string, ...any) {},
	}
	s.pushCtx, s.pushCancel = context.WithCancel(context.Background())
	s.pusher = NewPusher(s.HandleVehicleMessage)
	s.pusher.SetDisconnectHandler(s.handleVehicleDisconnect)
	return s
}

// handleVehicleDisconnect fails every in-flight push that travelled on
// the dead link (epoch or older): the ECM writes each acknowledgement
// exactly once to the link it arrived on — there is no replay buffer —
// so those acks are gone for good and the owning operations terminate
// instead of hanging. Terminal operations release their uninstall
// claims, keeping retries possible. Pushes on a successor link carry a
// newer epoch and are untouched.
func (s *Server) handleVehicleDisconnect(vehicle core.VehicleID, epoch uint64) {
	s.mu.Lock()
	var lost []pendingOp
	for seq, p := range s.pending {
		if p.vehicle == vehicle && p.epoch <= epoch {
			delete(s.pending, seq)
			lost = append(lost, p)
		}
	}
	// Record the losses where Status reads them too, so the per-app
	// progress surface agrees with the failed operation instead of
	// showing acked < total with no failures forever.
	for _, p := range lost {
		key := failureKey(p.vehicle, p.app)
		s.failures[key] = append(s.failures[key],
			fmt.Sprintf("%s: vehicle disconnected before acknowledgement", p.plugin))
	}
	s.mu.Unlock()
	for _, p := range lost {
		s.settleAck(p, fmt.Sprintf("%s: vehicle disconnected before acknowledgement", p.plugin))
		s.logf("server: %s of %s on %s lost: vehicle disconnected", p.kind, p.plugin, vehicle)
	}
}

// Store exposes the database (Web Services layer and tests).
func (s *Server) Store() *Store { return s.store }

// Pusher exposes the vehicle connection manager.
func (s *Server) Pusher() *Pusher { return s.pusher }

// SetLogger routes server diagnostics.
func (s *Server) SetLogger(fn func(format string, args ...any)) {
	if fn != nil {
		s.logf = fn
	}
}

// enqueuePending allocates the next sequence number, registers the
// pending push and charges it to its operation, all atomically.
func (s *Server) enqueuePending(p pendingOp) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	s.pending[s.seq] = p
	if rec := s.ops[p.opID]; rec != nil {
		rec.op.Total++
		rec.outstanding++
		if prec := s.ops[rec.parent]; prec != nil && !prec.op.Done {
			prec.op.Total++
		}
	}
	return s.seq
}

// dropPending undoes enqueuePending when the frame never made it onto
// the wire, so a failed push leaves neither a dangling entry nor
// phantom totals on its operation.
func (s *Server) dropPending(seq uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pending[seq]
	if !ok {
		return
	}
	delete(s.pending, seq)
	if rec := s.ops[p.opID]; rec != nil && !rec.op.Done {
		if rec.op.Total > 0 {
			rec.op.Total--
		}
		if rec.outstanding > 0 {
			rec.outstanding--
		}
		if prec := s.ops[rec.parent]; prec != nil && !prec.op.Done && prec.op.Total > 0 {
			prec.op.Total--
		}
	}
}

// Deploy starts the deployment pipeline of section 3.2.2 for an app on a
// vehicle: the cheap preconditions are validated synchronously, then
// compatibility check, dependency-ordered planning, context generation,
// packaging and push run in the background. Progress — a launch error,
// then the acknowledgements as they arrive — is reported through the
// returned operation and tracked in the InstalledAPP table (query with
// Status). Like every operation-creating entry point it runs through
// the idempotency gate: a repeated IdempotencyKey returns the original
// operation instead of double-creating (see shard.go).
func (s *Server) Deploy(req api.DeployRequest) (api.Operation, error) {
	return s.runIdempotent(req.IdempotencyKey, func(key string) (api.Operation, error) {
		if err := s.precheckDeploy(req.User, req.Vehicle, req.App); err != nil {
			return api.Operation{}, err
		}
		id := s.newOperation(api.OpDeploy, req.User, req.Vehicle, req.App, "", "", key).op.ID
		go func() {
			s.finishLaunch(id, s.deployWith(id, req.User, req.Vehicle, req.App, nil))
		}()
		return s.operationSnapshot(id), nil
	})
}

// deployPrereqs validates vehicle, ownership and app existence and
// returns the vehicle record — the single validator shared by the
// precheck and the pipeline, so the two cannot drift.
func (s *Server) deployPrereqs(user core.UserID, vehicleID core.VehicleID, appName core.AppName) (VehicleRecord, error) {
	vr, ok := s.store.Vehicle(vehicleID)
	if !ok {
		return VehicleRecord{}, api.Errorf(api.CodeNotFound, "server: unknown vehicle %s", vehicleID)
	}
	if vr.Owner != user {
		return VehicleRecord{}, api.Errorf(api.CodePermissionDenied, "server: vehicle %s is not bound to user %s", vehicleID, user)
	}
	if !s.store.HasApp(appName) {
		return VehicleRecord{}, api.Errorf(api.CodeNotFound, "server: unknown app %s", appName)
	}
	return vr, nil
}

// precheckDeploy runs the checks that should reject a deploy request
// before an operation is created; the duplicate-install probe is only
// advisory here — the pipeline's atomic check-and-record decides.
func (s *Server) precheckDeploy(user core.UserID, vehicleID core.VehicleID, appName core.AppName) error {
	if _, err := s.deployPrereqs(user, vehicleID, appName); err != nil {
		return err
	}
	if _, dup := s.store.InstalledApp(vehicleID, appName); dup {
		return api.Errorf(api.CodeAlreadyExists, "server: app %s already installed on %s", appName, vehicleID)
	}
	return nil
}

// deployPlan is the vehicle-independent half of one deployment: the
// dependency-ordered deployments, the generated port-id assignments and
// the marshaled installation packages. A plan computed against a fresh
// vehicle (no installed apps) applies verbatim to every other fresh
// vehicle with an equal configuration — what lets a batch plan and
// package once, then push many.
type deployPlan struct {
	// conf is the donor vehicle's configuration (already a deep copy,
	// courtesy of Store.Vehicle).
	conf core.VehicleConf
	// fresh records that the donor vehicle had no installed apps, the
	// precondition for reusing the plan elsewhere.
	fresh bool
	order []Deployment
	pics  map[core.PluginName]core.PIC
	raws  map[core.PluginName][]byte
}

// planDeploy runs the read-only part of the pipeline: compatibility
// check, dependency-ordered planning, context generation and packaging.
func (s *Server) planDeploy(app App, vr VehicleRecord) (*deployPlan, error) {
	// Compatibility and dependency checks; failures are presented to the
	// user as the reasons collected in the report.
	report := s.CheckCompatibility(app, vr)
	if err := report.Error(); err != nil {
		return nil, err
	}
	order, err := InstallOrder(app, report.Conf)
	if err != nil {
		return nil, err
	}
	contexts, err := s.GenerateContexts(app, vr, order)
	if err != nil {
		return nil, err
	}
	// Static verification: every intermediate configuration along the
	// install path must satisfy the invariant catalogue, or nothing is
	// packaged, recorded or pushed.
	if err := s.verifyDeploy(app, vr, order, contexts); err != nil {
		return nil, err
	}
	plan := &deployPlan{
		conf:  vr.Conf,
		order: order,
		pics:  make(map[core.PluginName]core.PIC, len(order)),
		raws:  make(map[core.PluginName][]byte, len(order)),
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
	return plan, nil
}

// pushPlan pushes the plan's packages to the vehicle, pinned to the
// link that is current at launch; the installation row must already be
// recorded so arriving acks always find it.
func (s *Server) pushPlan(opID string, vehicleID core.VehicleID, appName core.AppName, plan *deployPlan) error {
	epoch := s.pusher.Epoch(vehicleID)
	for _, d := range plan.order {
		seq := s.enqueuePending(pendingOp{vehicle: vehicleID, app: appName, plugin: d.Plugin, kind: "install", opID: opID, epoch: epoch})
		msg := core.Message{
			Type: core.MsgInstall, Plugin: d.Plugin,
			ECU: d.ECU, SWC: d.SWC, Seq: seq, Payload: plan.raws[d.Plugin],
		}
		if err := s.pusher.PushOn(vehicleID, epoch, msg); err != nil {
			s.dropPending(seq)
			s.store.RemoveInstallation(vehicleID, appName)
			return api.Errorf(api.CodeUnavailable, "server: push to %s: %v", vehicleID, err)
		}
		s.logf("server: pushed {%d, '%s', %s, %s.pkg} to %s", core.MsgInstall, d.Plugin, d.ECU, d.Plugin, vehicleID)
	}
	return nil
}

// stageDeploy runs the synchronous half of one deployment: plan and
// record under the vehicle's deploy stripe (pushes happen outside it —
// they block on the vehicle link). The PICs are copied per row so rows
// of different vehicles never share a reused plan's memory; the atomic
// check-and-record rejects duplicate deploys of the same app. The
// returned ticket resolves when the installation record is durable;
// waiting is the caller's, and happens outside the stripe — the row is
// already visible to concurrent planners (their port-id reads include
// it), so holding the stripe across a group commit would only
// serialize unrelated deploys behind an fsync.
func (s *Server) stageDeploy(user core.UserID, vehicleID core.VehicleID, appName core.AppName, cache *planCache) (*deployPlan, journal.Ticket, error) {
	vr, err := s.deployPrereqs(user, vehicleID, appName)
	if err != nil {
		return nil, journal.Ticket{}, err
	}
	// A deploy of an app that is a side of an in-flight live upgrade
	// would race the upgrade's atomic row commit; refuse it up front.
	if s.upgradeTarget(vehicleID, appName) {
		return nil, journal.Ticket{}, api.Errorf(api.CodeAlreadyExists,
			"server: app %s on %s is part of an in-flight upgrade", appName, vehicleID)
	}
	stripe := &s.deployMu[shardIndex(vehicleID)]
	stripe.Lock()
	defer stripe.Unlock()
	plan, err := s.planFor(vr, appName, cache)
	if err != nil {
		return nil, journal.Ticket{}, err
	}
	row := &InstalledApp{App: appName, Vehicle: vehicleID}
	for _, d := range plan.order {
		row.Plugins = append(row.Plugins, InstalledPlugin{
			Plugin: d.Plugin, ECU: d.ECU, SWC: d.SWC,
			PIC: append(core.PIC(nil), plan.pics[d.Plugin]...),
		})
	}
	ticket, err := s.store.tryRecordInstallation(row)
	if err != nil {
		return nil, journal.Ticket{}, err
	}
	return plan, ticket, nil
}

// awaitInstallDurable is the write-ahead gate shared by the single and
// batch deploy paths: it blocks until a staged row's record is on disk,
// rolling the row back (for the journal it never existed) when the
// commit failed.
func (s *Server) awaitInstallDurable(t journal.Ticket, vehicleID core.VehicleID, appName core.AppName) error {
	if err := waitDurable(t); err != nil {
		s.store.rollbackInstallation(vehicleID, appName)
		return err
	}
	return nil
}

// deployWith runs the full pipeline for one vehicle, consulting the
// batch plan cache (nil for single deploys) before planning from
// scratch.
func (s *Server) deployWith(opID string, user core.UserID, vehicleID core.VehicleID, appName core.AppName, cache *planCache) error {
	plan, ticket, err := s.stageDeploy(user, vehicleID, appName, cache)
	if err != nil {
		return err
	}
	// Write-ahead gate: the packages go on the wire only after the
	// installation record is on disk.
	if err := s.awaitInstallDurable(ticket, vehicleID, appName); err != nil {
		return err
	}
	return s.pushPlan(opID, vehicleID, appName, plan)
}

// planFor returns the deployment plan for one vehicle: a cached fleet
// plan when the vehicle is fresh and a structurally equal conf was
// already planned, a fresh pipeline run otherwise. Plans transfer only
// between fresh vehicles: installed apps change port-id assignment,
// quota headroom and dependency resolution, so vehicles with history
// always plan individually. Called with the vehicle's deploy stripe
// held.
func (s *Server) planFor(vr VehicleRecord, appName core.AppName, cache *planCache) (*deployPlan, error) {
	fresh := !s.store.HasInstalledApps(vr.ID)
	if cache != nil && fresh {
		if plan := cache.lookup(vr.Conf); plan != nil {
			return plan, nil
		}
	}
	var app App
	if cache != nil {
		// One deep copy of the app per batch instead of one per vehicle.
		a, ok := cache.appRecord(s.store, appName)
		if !ok {
			return nil, api.Errorf(api.CodeNotFound, "server: unknown app %s", appName)
		}
		app = a
	} else {
		app, _ = s.store.App(appName)
	}
	plan, err := s.planDeploy(app, vr)
	if err != nil {
		return nil, err
	}
	plan.fresh = fresh
	if cache != nil && fresh {
		cache.add(plan)
	}
	return plan, nil
}

// Uninstall starts the removal of an app from a vehicle after verifying
// that no other installed app depends on its plug-ins; the InstalledAPP
// row is dropped once every uninstallation has been acknowledged.
func (s *Server) Uninstall(req api.UninstallRequest) (api.Operation, error) {
	return s.runIdempotent(req.IdempotencyKey, func(key string) (api.Operation, error) {
		if err := s.precheckUninstall(req.User, req.Vehicle, req.App); err != nil {
			return api.Operation{}, err
		}
		id := s.newOperation(api.OpUninstall, req.User, req.Vehicle, req.App, "", "", key).op.ID
		go func() {
			s.finishLaunch(id, s.uninstall(id, req.User, req.Vehicle, req.App))
		}()
		return s.operationSnapshot(id), nil
	})
}

func (s *Server) precheckUninstall(user core.UserID, vehicleID core.VehicleID, appName core.AppName) error {
	vr, ok := s.store.Vehicle(vehicleID)
	if !ok {
		return api.Errorf(api.CodeNotFound, "server: unknown vehicle %s", vehicleID)
	}
	if vr.Owner != user {
		return api.Errorf(api.CodePermissionDenied, "server: vehicle %s is not bound to user %s", vehicleID, user)
	}
	if _, ok := s.store.InstalledApp(vehicleID, appName); !ok {
		return api.Errorf(api.CodeNotFound, "server: app %s is not installed on %s", appName, vehicleID)
	}
	return nil
}

func (s *Server) uninstall(opID string, user core.UserID, vehicleID core.VehicleID, appName core.AppName) error {
	if err := s.precheckUninstall(user, vehicleID, appName); err != nil {
		return err
	}
	// An uninstall racing a live upgrade of the same app would fight the
	// upgrade's row commit; refuse it while the upgrade is in flight.
	if s.upgradeTarget(vehicleID, appName) {
		return api.Errorf(api.CodeFailedPrecondition,
			"server: app %s on %s is part of an in-flight upgrade", appName, vehicleID)
	}
	// Claim the uninstall before snapshotting the row, so concurrent
	// requests cannot each push a full set of MsgUninstall frames. The
	// claim is released when the operation reaches a terminal state
	// (finishLaunch / completeLocked).
	key := failureKey(vehicleID, appName)
	s.mu.Lock()
	if owner := s.uninstalling[key]; owner != "" && owner != opID {
		s.mu.Unlock()
		return api.Errorf(api.CodeAlreadyExists,
			"server: uninstall of %s on %s already in progress", appName, vehicleID)
	}
	s.uninstalling[key] = opID
	s.mu.Unlock()
	row, ok := s.store.InstalledApp(vehicleID, appName)
	if !ok {
		return api.Errorf(api.CodeNotFound, "server: app %s is not installed on %s", appName, vehicleID)
	}

	// Dependency supervision: other apps requiring these plug-ins block
	// the uninstall, and the user is told which ones.
	if dependants := s.uninstallDependants(vehicleID, appName, row); len(dependants) > 0 {
		return api.Errorf(api.CodeFailedPrecondition,
			"server: cannot uninstall %s: dependent apps must be uninstalled first: %v", appName, dependants)
	}

	// Static verification of the removal path: every intermediate state
	// (plug-ins leave in reverse install order) must keep the surviving
	// population consistent, or nothing is pushed.
	if vr, ok := s.store.Vehicle(vehicleID); ok {
		if err := s.verifyUninstall(vr, row); err != nil {
			return err
		}
	}

	// Send uninstall messages in reverse install order, pinned to the
	// current vehicle link.
	epoch := s.pusher.Epoch(vehicleID)
	for i := len(row.Plugins) - 1; i >= 0; i-- {
		p := row.Plugins[i]
		seq := s.enqueuePending(pendingOp{vehicle: vehicleID, app: appName, plugin: p.Plugin, kind: "uninstall", opID: opID, epoch: epoch})
		msg := core.Message{Type: core.MsgUninstall, Plugin: p.Plugin, ECU: p.ECU, SWC: p.SWC, Seq: seq}
		if err := s.pusher.PushOn(vehicleID, epoch, msg); err != nil {
			s.dropPending(seq)
			return api.Errorf(api.CodeUnavailable, "server: push to %s: %v", vehicleID, err)
		}
	}
	return nil
}

// Restore starts the re-installation of the plug-ins previously
// installed on a replaced ECU, reusing their recorded PICs so port ids
// stay stable (paper section 3.2.2, the restore operation); the number
// of re-installed plug-ins appears as the operation's Total.
func (s *Server) Restore(req api.RestoreRequest) (api.Operation, error) {
	return s.runIdempotent(req.IdempotencyKey, func(key string) (api.Operation, error) {
		if err := s.precheckRestore(req.User, req.Vehicle); err != nil {
			return api.Operation{}, err
		}
		id := s.newOperation(api.OpRestore, req.User, req.Vehicle, "", "", req.ECU, key).op.ID
		go func() {
			s.finishLaunch(id, s.restore(id, req.User, req.Vehicle, req.ECU))
		}()
		return s.operationSnapshot(id), nil
	})
}

func (s *Server) precheckRestore(user core.UserID, vehicleID core.VehicleID) error {
	vr, ok := s.store.Vehicle(vehicleID)
	if !ok {
		return api.Errorf(api.CodeNotFound, "server: unknown vehicle %s", vehicleID)
	}
	if vr.Owner != user {
		return api.Errorf(api.CodePermissionDenied, "server: vehicle %s is not bound to user %s", vehicleID, user)
	}
	return nil
}

func (s *Server) restore(opID string, user core.UserID, vehicleID core.VehicleID, replaced core.ECUID) error {
	if err := s.precheckRestore(user, vehicleID); err != nil {
		return err
	}
	vr, _ := s.store.Vehicle(vehicleID)
	epoch := s.pusher.Epoch(vehicleID)
	for _, row := range s.store.InstalledApps(vehicleID) {
		app, ok := s.store.App(row.App)
		if !ok {
			continue
		}
		conf, ok := app.ConfFor(vr.Conf.Model)
		if !ok {
			continue
		}
		order, err := InstallOrder(app, conf)
		if err != nil {
			return err
		}
		// Regenerate contexts with recorded PICs forced, so PLC remote
		// ids match the surviving plug-ins.
		contexts, err := s.GenerateContexts(app, vr, order)
		if err != nil {
			return err
		}
		for _, d := range order {
			if d.ECU != replaced {
				continue
			}
			var recorded core.PIC
			for _, p := range row.Plugins {
				if p.Plugin == d.Plugin {
					recorded = p.PIC
				}
			}
			ctx := contexts[d.Plugin]
			if recorded != nil {
				ctx = remapContext(ctx, recorded)
			}
			bin, _ := app.Binary(d.Plugin)
			pkg := plugin.Package{Binary: bin, Context: *ctx}
			raw, err := pkg.MarshalBinary()
			if err != nil {
				return api.Errorf(api.CodeInternal, "server: restore packaging %s: %v", d.Plugin, err)
			}
			seq := s.enqueuePending(pendingOp{vehicle: vehicleID, app: row.App, plugin: d.Plugin, kind: "install", opID: opID, epoch: epoch})
			msg := core.Message{Type: core.MsgInstall, Plugin: d.Plugin,
				ECU: d.ECU, SWC: d.SWC, Seq: seq, Payload: raw}
			if err := s.pusher.PushOn(vehicleID, epoch, msg); err != nil {
				s.dropPending(seq)
				return api.Errorf(api.CodeUnavailable, "server: push to %s: %v", vehicleID, err)
			}
		}
	}
	return nil
}

// remapContext rewrites a freshly generated context to use the recorded
// PIC's port ids.
func remapContext(ctx *core.Context, recorded core.PIC) *core.Context {
	remap := make(map[core.PluginPortID]core.PluginPortID, len(ctx.PIC))
	for _, e := range ctx.PIC {
		if id, ok := recorded.Lookup(e.Name); ok {
			remap[e.ID] = id
		}
	}
	out := &core.Context{PIC: recorded}
	for _, p := range ctx.PLC {
		np := p
		if id, ok := remap[p.Plugin]; ok {
			np.Plugin = id
		}
		if p.Kind == core.LinkPeer {
			if id, ok := remap[p.Peer]; ok {
				np.Peer = id
			}
		}
		out.PLC = append(out.PLC, np)
	}
	for _, e := range ctx.ECC {
		ne := e
		if id, ok := remap[e.Port]; ok {
			ne.Port = id
		}
		out.ECC = append(out.ECC, ne)
	}
	return out
}

// HandleVehicleMessage processes acknowledgements arriving from a
// vehicle's ECM.
func (s *Server) HandleVehicleMessage(vehicle core.VehicleID, msg core.Message) {
	switch msg.Type {
	case core.MsgAck, core.MsgNack:
		s.mu.Lock()
		op, ok := s.pending[msg.Seq]
		if ok {
			delete(s.pending, msg.Seq)
		}
		s.mu.Unlock()
		if !ok {
			s.logf("server: stray %v seq %d from %s", msg.Type, msg.Seq, vehicle)
			return
		}
		s.applyAck(op, msg)
	default:
		s.logf("server: unexpected %v from %s", msg.Type, vehicle)
	}
}

func failureKey(vehicle core.VehicleID, app core.AppName) string {
	return string(vehicle) + "|" + string(app)
}

func (s *Server) applyAck(op pendingOp, msg core.Message) {
	if msg.Type == core.MsgNack {
		reason := fmt.Sprintf("%s: %s", op.plugin, string(msg.Payload))
		s.mu.Lock()
		key := failureKey(op.vehicle, op.app)
		s.failures[key] = append(s.failures[key], reason)
		s.mu.Unlock()
		s.settleAck(op, reason)
		s.logf("server: %s of %s on %s failed: %s", op.kind, op.plugin, op.vehicle, msg.Payload)
		return
	}
	switch op.kind {
	case "install":
		s.store.MarkInstallAcked(op.vehicle, op.app, op.plugin)
	case "uninstall":
		// "The InstalledAPP table is updated once successful
		// uninstallation has been fully acknowledged."
		s.store.DropUninstalledPlugin(op.vehicle, op.app, op.plugin)
	case "upgrade":
		// The store is untouched per swap: the row replacement commits
		// atomically once every plug-in of the upgrade acknowledged
		// (see upgrade.go), so a partial upgrade never leaks a mixed
		// row.
	}
	s.settleAck(op, "")
}

// Status reports the progress of the most recent operation on an app.
func (s *Server) Status(vehicle core.VehicleID, app core.AppName) OpStatus {
	st := OpStatus{App: app}
	s.mu.Lock()
	st.Failures = append(st.Failures, s.failures[failureKey(vehicle, app)]...)
	s.mu.Unlock()
	if row, ok := s.store.InstalledApp(vehicle, app); ok {
		st.Total = len(row.Plugins)
		for _, p := range row.Plugins {
			if p.Acked {
				st.Acked++
			}
		}
	}
	return st
}

// ResolveExternal finds the in-vehicle destination of an external message
// id on a vehicle by walking its installed apps' SW confs and recorded
// PICs. Federation brokers use it to push FES traffic (see internal/fes).
func (s *Server) ResolveExternal(vehicle core.VehicleID, messageID string) (core.ECUID, core.PluginPortID, bool) {
	vr, ok := s.store.Vehicle(vehicle)
	if !ok {
		return "", 0, false
	}
	for _, row := range s.store.InstalledApps(vehicle) {
		app, ok := s.store.App(row.App)
		if !ok {
			continue
		}
		conf, ok := app.ConfFor(vr.Conf.Model)
		if !ok {
			continue
		}
		for _, d := range conf.Deployments {
			for _, conn := range d.Connections {
				if conn.External == nil || conn.External.MessageID != messageID {
					continue
				}
				for _, p := range row.Plugins {
					if p.Plugin != d.Plugin {
						continue
					}
					if id, ok := p.PIC.Lookup(conn.Port); ok {
						return d.ECU, id, true
					}
				}
			}
		}
	}
	return "", 0, false
}

// PushExternal delivers an external-message value to a resolved
// in-vehicle destination through the vehicle's ECM. Together with
// ResolveExternal it implements api.ExternalRouter for the federation
// layer.
func (s *Server) PushExternal(vehicle core.VehicleID, ecu core.ECUID, port core.PluginPortID, value int64) error {
	payload := core.NewEnc(10)
	payload.U16(uint16(port))
	payload.I64(value)
	msg := core.Message{Type: core.MsgExternal, ECU: ecu, Payload: payload.Bytes()}
	return s.pusher.Push(vehicle, msg)
}

var _ api.ExternalRouter = (*Server)(nil)
