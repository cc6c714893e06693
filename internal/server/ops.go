package server

import (
	"fmt"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/journal"
)

// The async-operation registry: every deployment-service mutation
// ((un)install, restore, upgrade, their batches and progressive
// rollouts) is tracked as an api.Operation built on the existing ack/nack
// plumbing — POST /v1/deploy returns the operation id immediately and
// GET /v1/operations/{id} reports progress as the vehicle acknowledges
// each pushed package.

// opRecord is the mutable server-side state of one operation; guarded
// by Server.mu.
type opRecord struct {
	op api.Operation
	// outstanding counts this operation's frames still in flight: pushed
	// and neither acknowledged, lost with their link nor dropped. It is
	// kept exact past the terminal state, because the claims wait for it
	// to drain.
	outstanding int
	// launched becomes true once the pipeline finished pushing (or
	// failed); completion requires launched && outstanding == 0.
	launched bool
	// parent is the owning batch operation id ("" for top-level); every
	// push charged to this record is mirrored onto the parent.
	parent string
	// openChildren counts non-terminal children of a batch parent; the
	// parent completes when it drains.
	openChildren int
	// claims are the claim-table keys this operation holds (see claim in
	// engine.go); claimsEndAtLaunch releases them when the launch
	// finishes instead of when the last frame settles.
	claims            []string
	claimsEndAtLaunch bool
	// ro is the wave state of a rollout operation (see rollout.go), nil
	// for every other kind.
	ro *rolloutState
}

// opRetention bounds the registry: once exceeded, the oldest completed
// operations are evicted (in-flight ones are always kept). A var so
// tests can shrink it.
var opRetention = 4096

// newOperation registers a fresh pending operation; toApp is the
// upgrade target ("" for every other kind), idemKey the client's
// idempotency key ("" for none) — carried on the operation itself so
// the op_created record persists the key→operation binding atomically
// with the creation it protects.
func (s *Server) newOperation(kind api.OperationKind, user core.UserID, vehicle core.VehicleID, app, toApp core.AppName, ecu core.ECUID, idemKey string) *opRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.opSeq++
	rec := &opRecord{op: api.Operation{
		ID:             fmt.Sprintf("op-%08d", s.opSeq),
		Kind:           kind,
		User:           user,
		Vehicle:        vehicle,
		App:            app,
		ToApp:          toApp,
		ECU:            ecu,
		State:          api.StatePending,
		IdempotencyKey: idemKey,
	}}
	s.ops[rec.op.ID] = rec
	s.opOrder = append(s.opOrder, rec.op.ID)
	s.noteOpCreatedLocked(1)
	s.journalOpLocked(journal.OpCreatedRec, rec)
	s.pruneOpsLocked()
	return rec
}

// journalOpLocked enqueues an operation lifecycle record; called with
// s.mu held. The ticket is dropped on purpose: operation bookkeeping
// must never hold the global mutex across an fsync (that would defeat
// group commit entirely), and the consequence of losing an unflushed
// settle record in a crash is merely conservative — recovery reports
// the operation as interrupted instead of settled. Store mutations,
// which gate external side effects, do wait for durability.
//
// Per-vehicle batch children mostly stay off the journal: the parent's creation
// record carries their identity, and recovery derives a successful
// child from the store itself — a deploy child succeeded exactly when
// its InstalledAPP row is fully acknowledged. Only a child's *failure*
// is journaled (failures are the rare case and carry information the
// store cannot re-derive, e.g. already_exists on a vehicle that had
// the app from an earlier deploy — whose complete row would otherwise
// read as success). One record per batch plus one per failed vehicle,
// instead of two per vehicle, keeps fleet-scale deploys off the
// journal's hot path. A rollout's wave batch is a child too, but one
// with children of its own: it is journaled like a top-level batch.
func (s *Server) journalOpLocked(build func(api.Operation) journal.Record, rec *opRecord) {
	if s.jn == nil {
		return
	}
	if rec.parent != "" && len(rec.op.Children) == 0 && rec.op.State != api.StateFailed {
		return
	}
	s.jn.Append(build(snapshotOpLocked(rec)))
}

// batchChild pairs one target vehicle of a batch with its child
// operation.
type batchChild struct {
	vehicle core.VehicleID
	opID    string
}

// newBatchOperation registers a top-level batch; see newBatchUnder.
func (s *Server) newBatchOperation(kind, childKind api.OperationKind, user core.UserID, app, toApp core.AppName, fleet []core.VehicleID, idemKey string) (parentID string, children []batchChild) {
	return s.newBatchUnder("", kind, childKind, user, app, toApp, fleet, idemKey)
}

// newBatchUnder registers a running batch parent plus one pending child
// per vehicle, all under one lock so no reader ever observes a
// half-built batch. The parent needs no launch step of its own: it
// completes when its last child reaches a terminal state. A non-empty
// owner makes the batch a child of that operation — a rollout's wave —
// listed in its Children in launch order.
func (s *Server) newBatchUnder(owner string, kind, childKind api.OperationKind, user core.UserID, app, toApp core.AppName, fleet []core.VehicleID, idemKey string) (parentID string, children []batchChild) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.opSeq++
	parentID = fmt.Sprintf("op-%08d", s.opSeq)
	prec := &opRecord{
		op: api.Operation{
			ID:             parentID,
			Kind:           kind,
			User:           user,
			App:            app,
			ToApp:          toApp,
			State:          api.StateRunning,
			Vehicles:       append([]core.VehicleID(nil), fleet...),
			IdempotencyKey: idemKey,
			Parent:         owner,
		},
		launched:     true,
		parent:       owner,
		openChildren: len(fleet),
	}
	if orec := s.ops[owner]; orec != nil {
		orec.op.Children = append(orec.op.Children, parentID)
	}
	s.ops[parentID] = prec
	s.opOrder = append(s.opOrder, parentID)
	children = make([]batchChild, 0, len(fleet))
	for _, v := range fleet {
		s.opSeq++
		cid := fmt.Sprintf("op-%08d", s.opSeq)
		s.ops[cid] = &opRecord{
			op: api.Operation{
				ID: cid, Kind: childKind, User: user, Vehicle: v, App: app, ToApp: toApp,
				State: api.StatePending, Parent: parentID,
			},
			parent: parentID,
		}
		s.opOrder = append(s.opOrder, cid)
		prec.op.Children = append(prec.op.Children, cid)
		children = append(children, batchChild{vehicle: v, opID: cid})
	}
	s.noteOpCreatedLocked(1 + len(fleet))
	// Only the parent is journaled — after the loop, so its snapshot
	// carries the full children and vehicles lists. Recovery
	// re-synthesizes the child operations from those (one record instead
	// of fleet-size-plus-one per batch).
	s.journalOpLocked(journal.OpCreatedRec, prec)
	s.pruneOpsLocked()
	return parentID, children
}

// pruneOpsLocked evicts the oldest completed operations once the
// registry exceeds its retention bound; called with Server.mu held.
// Descendants of a still-running batch or rollout are kept even when
// individually done — a client walking a live parent's Children must
// not find holes — so the registry may exceed the bound while a
// larger-than-retention batch is in flight.
func (s *Server) pruneOpsLocked() {
	excess := len(s.opOrder) - opRetention
	if excess <= 0 || len(s.opOrder) < s.opPruneDefer {
		return
	}
	kept := s.opOrder[:0]
	for _, id := range s.opOrder {
		if excess > 0 {
			if rec := s.ops[id]; rec == nil || s.evictableLocked(rec) {
				if rec != nil && rec.op.IdempotencyKey != "" {
					delete(s.idem, rec.op.IdempotencyKey)
				}
				delete(s.ops, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	s.opOrder = kept
	if len(s.opOrder) > opRetention {
		// Still over budget on unevictable entries: defer the next scan
		// until the registry has grown a further 1/16 of the retention.
		s.opPruneDefer = len(s.opOrder) + opRetention/16
	} else {
		s.opPruneDefer = 0
	}
}

// evictableLocked reports whether an operation may leave the registry:
// it is terminal, holds no claim — a terminal operation keeps its claims
// until its last frame settles, and only its record can release them —
// and every ancestor is terminal too: a batch child's batch, and a wave
// batch's rollout, which the wave's per-vehicle children reach two
// levels up. Called with Server.mu held.
func (s *Server) evictableLocked(rec *opRecord) bool {
	if !rec.op.Done || len(rec.claims) > 0 {
		return false
	}
	for prec := s.ops[rec.parent]; prec != nil; prec = s.ops[prec.parent] {
		if !prec.op.Done {
			return false
		}
	}
	return true
}

// finishLaunch records the outcome of the push pipeline: a launch error
// fails the operation; otherwise it runs until the outstanding acks
// drain (possibly already done).
func (s *Server) finishLaunch(opID string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.ops[opID]
	if rec == nil {
		return
	}
	rec.launched = true
	if err != nil {
		rec.op.State = api.StateFailed
		rec.op.Error = api.AsError(err)
		rec.op.Done = true
		s.noteOpSettledLocked(rec)
		s.journalOpLocked(journal.OpSettledRec, rec)
		s.releaseDrainedLocked(rec)
		s.noteChildTerminalLocked(rec)
		return
	}
	if rec.claimsEndAtLaunch {
		s.releaseClaimsLocked(rec)
	}
	if rec.outstanding == 0 {
		s.completeLocked(rec)
		return
	}
	rec.op.State = api.StateRunning
}

// settleAck charges one acknowledgement (failure != "" for a nack) to
// the push's operation and wakes any pipeline waiting on the push.
func (s *Server) settleAck(op pendingOp, failure string) {
	if op.notify != nil {
		// Buffered for every push sharing it and each push settles
		// exactly once, so the send never blocks. Sent before the
		// accounting below: a woken waiter serializes behind s.mu
		// anyway, so it always observes the settled counts.
		op.notify <- ackOutcome{plugin: op.plugin, failure: failure}
	}
	if op.opID == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.ops[op.opID]
	if rec == nil {
		return
	}
	if rec.outstanding > 0 {
		rec.outstanding--
	}
	if rec.op.Done {
		// Terminal operations (e.g. a failed launch) no longer account
		// for late acks, but the last draining frame frees the claims.
		s.releaseDrainedLocked(rec)
		return
	}
	prec := s.ops[rec.parent]
	if failure != "" {
		rec.op.Failures = append(rec.op.Failures, failure)
		if prec != nil && !prec.op.Done {
			prec.op.Failures = append(prec.op.Failures, string(op.vehicle)+": "+failure)
		}
	} else {
		rec.op.Acked++
		if prec != nil && !prec.op.Done {
			prec.op.Acked++
		}
	}
	if rec.launched && rec.outstanding == 0 {
		s.completeLocked(rec)
	}
}

// completeLocked moves a drained operation to its terminal state;
// called with Server.mu held.
func (s *Server) completeLocked(rec *opRecord) {
	if len(rec.op.Failures) > 0 {
		rec.op.State = api.StateFailed
	} else {
		rec.op.State = api.StateSucceeded
	}
	rec.op.Done = true
	s.noteOpSettledLocked(rec)
	s.journalOpLocked(journal.OpSettledRec, rec)
	s.releaseDrainedLocked(rec)
	s.noteChildTerminalLocked(rec)
}

// noteChildTerminalLocked rolls a just-terminal child into its batch
// parent: the per-vehicle tallies, the partial-failure report, and
// parent completion once the last child settles. Nack failures were
// already mirrored ack by ack (settleAck), so only launch errors are
// added here. A rollout is no batch: only its state machine settles it
// (rollout.go), so a wave batch never folds into it. Called with
// Server.mu held.
func (s *Server) noteChildTerminalLocked(rec *opRecord) {
	prec := s.ops[rec.parent]
	if prec == nil || prec.op.Done || prec.ro != nil {
		return
	}
	if prec.openChildren > 0 {
		prec.openChildren--
	}
	if rec.op.State == api.StateSucceeded {
		prec.op.VehiclesSucceeded++
	} else {
		prec.op.VehiclesFailed++
		if rec.op.Error != nil {
			prec.op.Failures = append(prec.op.Failures,
				fmt.Sprintf("%s: %s", rec.op.Vehicle, rec.op.Error.Message))
		}
	}
	if prec.openChildren == 0 {
		if prec.op.VehiclesFailed > 0 {
			prec.op.State = api.StateFailed
		} else {
			prec.op.State = api.StateSucceeded
		}
		prec.op.Done = true
		s.noteOpSettledLocked(prec)
		s.journalOpLocked(journal.OpSettledRec, prec)
		// The batch's children just became evictable; let the next
		// operation creation prune immediately.
		s.opPruneDefer = 0
	}
}

// operationSnapshot returns a race-free copy of one operation.
func (s *Server) operationSnapshot(id string) api.Operation {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.ops[id]
	if rec == nil {
		return api.Operation{}
	}
	return snapshotOpLocked(rec)
}

func snapshotOpLocked(rec *opRecord) api.Operation {
	op := rec.op
	op.Failures = append([]string(nil), rec.op.Failures...)
	op.Vehicles = append([]core.VehicleID(nil), rec.op.Vehicles...)
	op.Children = append([]string(nil), rec.op.Children...)
	return op
}

// Operation returns one async operation by id.
func (s *Server) Operation(id string) (api.Operation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.ops[id]
	if rec == nil {
		return api.Operation{}, false
	}
	return snapshotOpLocked(rec), true
}

// OperationIDs returns the ids of every live operation, oldest first
// (ids are zero-padded, so lexicographic order is creation order).
// Listing endpoints paginate over this and fetch only the page's
// records, instead of snapshotting the whole registry.
func (s *Server) OperationIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.opOrder...)
}

// Operations returns every operation, oldest first.
func (s *Server) Operations() []api.Operation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]api.Operation, 0, len(s.opOrder))
	for _, id := range s.opOrder {
		if rec := s.ops[id]; rec != nil {
			out = append(out, snapshotOpLocked(rec))
		}
	}
	return out
}
