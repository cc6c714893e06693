// Package server implements the trusted server of the dynamic component
// model (paper section 3.2): the central point of intelligence that
// stores users, vehicles and applications, verifies compatibility,
// resolves dependencies, generates the PIC/PLC/ECC contexts and pushes
// installation packages to the vehicles through the Pusher, tracking
// their acknowledgements.
//
// The server's public surface is the versioned deployment-service API
// of internal/api: the Service adapter implements api.DeploymentService
// over this core, and Handler mounts the /v1 HTTP layer.
package server

import (
	"context"
	"fmt"
	"sync"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/journal"
)

// Server is the trusted server: store, pusher and the deployment engine.
type Server struct {
	store  *Store
	pusher *Pusher

	// jn is the durable-state journal (nil when running memory-only)
	// for snapshots, health, stats and replication; records go through
	// the store's appender, which OpenJournal sets to jn. See persist.go
	// for the recovery path and DESIGN.md for the record and snapshot
	// semantics. recovery summarizes what Open replayed.
	jn       *journal.Journal
	recovery RecoveryStats

	mu  sync.Mutex
	seq uint32
	// pending tracks in-flight pushes by sequence number.
	pending map[uint32]pendingOp
	// failures collects nack reasons keyed by vehicle|app.
	failures map[string][]string
	// claims is the one exclusion table of the operation engine:
	// vehicle|app → the id of the operation that owns the app on that
	// vehicle, so operations touching one app are refused instead of
	// interleaving their frames (see claim in engine.go).
	claims map[string]string
	// ops is the async-operation registry (see ops.go), rollouts
	// included (see rollout.go).
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
	// bucketed by code; their difference is the open count (see
	// opsOpenLocked).
	statOpsCreated uint64
	statOpsSettled map[string]uint64
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

	// deployMu stripes a per-vehicle critical section over claim + plan
	// + stage (see begin in engine.go). Striped by the store's vehicle
	// hash, so batch workers on different vehicles rarely meet.
	deployMu [installedShardCount]sync.Mutex

	// shipper, when set, replicates the journal to follower peers;
	// healthz and statz surface its per-follower lag (see shard.go).
	shipper *journal.Shipper

	// pushCtx is canceled by Close and Crash so no collect loop, rollback
	// retry or held GetOperation outlives the server; bg counts the
	// goroutines the server started (see background), which Close waits
	// for.
	pushCtx    context.Context
	pushCancel context.CancelFunc
	bg         sync.WaitGroup

	logf func(format string, args ...any)
}

// pendingOp records what an awaited acknowledgement completes.
type pendingOp struct {
	vehicle core.VehicleID
	app     core.AppName
	plugin  core.PluginName
	// kind is the table row of the operation that pushed the frame; its
	// acked effect is applied when the vehicle acknowledges.
	kind *opKind
	// opID ties the push to its async operation ("" for none).
	opID string
	// epoch is the vehicle-link registration the frame travelled on; the
	// disconnect sweep settles only frames of the dead epoch or older.
	epoch uint64
	// notify, when set, receives this push's settlement exactly once —
	// a settle step blocks on its frames' outcomes instead of polling
	// the operation. Must be buffered for every push sharing it.
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
		store:    NewStore(),
		pending:  make(map[uint32]pendingOp),
		failures: make(map[string][]string),
		claims:   make(map[string]string),
		ops:      make(map[string]*opRecord),
		idem:     make(map[string]*idemClaim),
		logf:     func(string, ...any) {},
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
// instead of hanging. Terminal operations release their claims,
// keeping retries possible. Pushes on a successor link carry a
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
		s.logf("server: %s of %s on %s lost: vehicle disconnected", p.kind.kind, p.plugin, vehicle)
	}
}

// background runs f on a goroutine that Close waits for, so no pipeline,
// batch or rollout outlives the server. Once Close has begun it does
// not start f at all.
func (s *Server) background(f func()) {
	s.mu.Lock()
	if s.pushCtx.Err() != nil {
		s.mu.Unlock()
		return
	}
	s.bg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.bg.Done()
		f()
	}()
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
		s.takeStatusLocked(rec)
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
	rec := s.ops[p.opID]
	if rec == nil {
		return
	}
	if rec.outstanding > 0 {
		rec.outstanding--
	}
	if rec.op.Done {
		s.releaseDrainedLocked(rec)
		return
	}
	if rec.op.Total > 0 {
		rec.op.Total--
	}
	if prec := s.ops[rec.parent]; prec != nil && !prec.op.Done && prec.op.Total > 0 {
		prec.op.Total--
	}
}

// Deploy starts the deployment of section 3.2.2 for an app on a vehicle:
// compatibility check, dependency-ordered planning, context generation,
// packaging and push. Progress is reported through the returned
// operation and tracked in the InstalledAPP table (query with Status).
func (s *Server) Deploy(req api.DeployRequest) (api.Operation, error) {
	return s.launch(deployKind, target{user: req.User, vehicle: req.Vehicle, app: req.App}, req.IdempotencyKey)
}

// Uninstall starts the removal of an app from a vehicle after verifying
// that no other installed app depends on its plug-ins; the InstalledAPP
// row is dropped once every uninstallation has been acknowledged.
func (s *Server) Uninstall(req api.UninstallRequest) (api.Operation, error) {
	return s.launch(uninstallKind, target{user: req.User, vehicle: req.Vehicle, app: req.App}, req.IdempotencyKey)
}

// Restore starts the re-installation of the plug-ins previously
// installed on a replaced ECU, reusing their recorded PICs so port ids
// stay stable (paper section 3.2.2, the restore operation); the number
// of re-installed plug-ins appears as the operation's Total.
func (s *Server) Restore(req api.RestoreRequest) (api.Operation, error) {
	return s.launch(restoreKind, target{user: req.User, vehicle: req.Vehicle, ecu: req.ECU}, req.IdempotencyKey)
}

// precheckDeploy's duplicate-install probe is only advisory — the
// atomic check-and-record of the stage step decides.
func precheckDeploy(s *Server, t target, _ api.VehicleRecord, _ string) error {
	if _, dup := s.store.InstalledApp(t.vehicle, t.app); dup {
		return api.Errorf(api.CodeAlreadyExists, "server: app %s already installed on %s", t.app, t.vehicle)
	}
	return nil
}

// stageDeploy records the installation row, so arriving acks always
// find it; the atomic check-and-record rejects duplicate deploys of the
// same app.
func stageDeploy(s *Server, t target, p *vehiclePlan) (journal.Ticket, error) {
	return s.store.tryRecordInstallation(p.row(t.vehicle, t.app))
}

func unstageDeploy(s *Server, t target, reason string) {
	if reason == "" {
		s.store.rollbackInstallation(t.vehicle, t.app)
		return
	}
	s.store.RemoveInstallation(t.vehicle, t.app)
}

func precheckUninstall(s *Server, t target, _ api.VehicleRecord, _ string) error {
	if _, ok := s.store.InstalledApp(t.vehicle, t.app); !ok {
		return api.Errorf(api.CodeNotFound, "server: app %s is not installed on %s", t.app, t.vehicle)
	}
	return nil
}

func precheckRestore(_ *Server, t target, vr api.VehicleRecord, _ string) error {
	for _, swc := range vr.Conf.SWCs {
		if swc.ECU == t.ecu {
			return nil
		}
	}
	return api.Errorf(api.CodeNotFound, "server: vehicle %s has no ECU %q", t.vehicle, t.ecu)
}

// claimRestored claims every app with a plug-in on the replaced ECU:
// those are the apps the restore pushes install frames for.
func claimRestored(s *Server, t target) []core.AppName {
	var apps []core.AppName
	for _, row := range s.store.InstalledApps(t.vehicle) {
		for _, p := range row.Plugins {
			if p.ECU == t.ecu {
				apps = append(apps, row.App)
				break
			}
		}
	}
	return apps
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
		s.logf("server: %s of %s on %s failed: %s", op.kind.kind, op.plugin, op.vehicle, msg.Payload)
		return
	}
	if op.kind.acked != nil {
		op.kind.acked(s.store, op.vehicle, op.app, op.plugin)
	}
	s.settleAck(op, "")
}

// Status reports the progress of the most recent operation that staged
// or pushed something on an app (see takeStatusLocked).
func (s *Server) Status(vehicle core.VehicleID, app core.AppName) api.OpStatus {
	st := api.OpStatus{App: app}
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
	var payload [core.PortValueLen]byte
	msg := core.Message{Type: core.MsgExternal, ECU: ecu, Payload: core.EncodePortValue(&payload, port, value)}
	return s.pusher.Push(vehicle, msg)
}

var _ api.ExternalRouter = (*Server)(nil)
