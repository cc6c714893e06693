package server

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/journal"
)

// The durable-state glue between the server core and internal/journal:
// OpenJournal recovers the store and the operation registry from a data
// directory (snapshot + write-ahead-log tail), then routes every
// subsequent mutation into the journal. Recovery replays the log as an
// ordered sequence of reconfigurations; operations that were in flight
// when the process died are settled as failed with the stable
// INTERRUPTED error code, because their outstanding vehicle
// acknowledgements can never arrive (the ECM writes each ack exactly
// once to the link it arrived on).

// RecoveryStats summarizes what OpenJournal replayed.
type RecoveryStats struct {
	// Journaled reports whether durable state is enabled.
	Journaled bool
	// SnapshotTime is when the loaded snapshot was taken (zero when the
	// directory had none).
	SnapshotTime time.Time
	// Records counts log records replayed after the snapshot.
	Records int
	// Interrupted counts operations settled as INTERRUPTED.
	Interrupted int
	// TornTail reports that the final log record was truncated or
	// corrupt and was dropped.
	TornTail bool
}

// RecoveryStats returns what OpenJournal replayed; the zero value when
// the server runs memory-only.
func (s *Server) RecoveryStats() RecoveryStats { return s.recovery }

// OpenJournal loads the durable state under dir and attaches the
// journal, so every later mutation is persisted. It must be called
// right after New, before the server takes traffic. An empty or fresh
// directory yields an empty server with journaling on.
func (s *Server) OpenJournal(dir string) error {
	j, rec, err := journal.Open(dir, journal.Options{
		Logf: func(format string, args ...any) { s.logf(format, args...) },
	})
	if err != nil {
		return err
	}
	s.recoverFrom(rec)
	j.SetSnapshotSource(s.stateImage)
	s.jn = j
	s.store.SetJournal(j)
	s.logf("server: recovered %d users, %d vehicles, %d apps; replayed %d records, %d operations interrupted",
		len(s.store.users), len(s.store.vehicles), len(s.store.apps), s.recovery.Records, s.recovery.Interrupted)
	// Resume interrupted rollouts only now that the journal is attached:
	// the continuations append state-machine records of their own.
	for _, resume := range s.rolloutResume {
		s.background(resume)
	}
	s.rolloutResume = nil
	return nil
}

// closeWait bounds Close's wait for the goroutines the server started.
const closeWait = 10 * time.Second

// Close shuts the server down cleanly: vehicle links are closed, the
// pipelines, batches and rollouts still running are waited for, a final
// snapshot compacts the journal (so a routine restart replays an empty
// tail instead of relying on crash recovery) and the journal is flushed
// and closed. With the links gone and pushCtx canceled the pipelines
// fail fast, and the rollout state machines stop without journaling a
// decision (see runRollout): what shutdown made fail is no verdict on
// the fleet, so the journal keeps them open for recovery to resume.
// Safe to call on a memory-only server.
func (s *Server) Close() error {
	// Canceled under mu, where background checks it: no goroutine is
	// added to bg once the wait below may have begun.
	s.mu.Lock()
	s.pushCancel()
	s.mu.Unlock()
	s.pusher.CloseAll()
	idle := make(chan struct{})
	go func() { s.bg.Wait(); close(idle) }()
	select {
	case <-idle:
	case <-time.After(closeWait):
		s.logf("server: close: pipelines still running after %v", closeWait)
	}
	if s.jn == nil {
		return nil
	}
	if err := s.jn.Snapshot(); err != nil {
		s.logf("server: final snapshot: %v", err)
	}
	err := s.jn.Close()
	s.mu.Lock()
	sh := s.shipper
	s.mu.Unlock()
	if sh != nil {
		// After the journal is closed nothing new can commit; draining the
		// shipper last lets every durable byte reach the followers.
		sh.Close()
	}
	return err
}

// Journal exposes the attached journal (nil when memory-only); tests
// use it to simulate crashes and force compaction.
func (s *Server) Journal() *journal.Journal { return s.jn }

// Health reports readiness plus the recovery counters of GET
// /v1/healthz. The server only serves after recovery completed, so a
// reachable endpoint answers "ok" — degrading to "degraded" if the
// journal has failed since — and orchestrators gate traffic on both.
func (s *Server) Health() api.Health {
	h := api.Health{
		Status:                "ok",
		RecoveredRecords:      s.recovery.Records,
		InterruptedOperations: s.recovery.Interrupted,
		TornTail:              s.recovery.TornTail,
		SnapshotAge:           -1,
	}
	h.Shard, h.Role, h.ShardEpoch = s.ShardInfo()
	h.Replication = s.replicationHealth()
	if s.jn == nil {
		return h
	}
	h.Journal = true
	if err := s.jn.Err(); err != nil {
		// Durability is gone (sticky commit failure): the server still
		// serves, but orchestrators must stop routing traffic here.
		h.Status = "degraded"
		h.JournalError = err.Error()
	}
	if st := s.jn.Stats(); !st.LastSnapshot.IsZero() {
		h.SnapshotAge = time.Since(st.LastSnapshot).Seconds()
	}
	return h
}

// recoverFrom rebuilds the server from a snapshot image and the
// replayed log tail.
func (s *Server) recoverFrom(rec *journal.Recovery) {
	// open tracks operations created but not yet settled; settled keeps
	// the terminal snapshots of recently completed ones so they survive
	// a restart with their real outcome. Batch children have no records
	// of their own — their outcome is derived from the store below.
	open := make(map[string]api.Operation)
	settled := make(map[string]api.Operation)
	var maxSeq uint64
	bump := func(id string) {
		if n := opSeqOf(id); n > maxSeq {
			maxSeq = n
		}
	}

	// rollouts accumulates the rollout state machines seen in the image
	// and the log tail; rebuilt into the registry (and resumed) below.
	rollouts := make(map[string]*rolloutReplayState)

	if img := rec.Image; img != nil {
		s.store.loadImage(img)
		// Shard identity rides the snapshot: a follower promoted from a
		// replicated journal recovers the dead leader's shard name and
		// highest epoch, which BecomeLeader then surpasses.
		if img.Shard != "" && s.shardID == "" {
			s.shardID = img.Shard
		}
		if img.ShardEpoch > s.shardEpoch {
			s.shardEpoch = img.ShardEpoch
		}
		maxSeq = img.OpSeq
		for _, op := range img.OpenOps {
			open[op.ID] = op
			bump(op.ID)
		}
		for _, op := range img.SettledOps {
			settled[op.ID] = op
			bump(op.ID)
		}
		for _, ri := range img.Rollouts {
			rollouts[ri.ID] = &rolloutReplayState{img: ri}
		}
		s.recovery.SnapshotTime = time.Unix(img.TakenUnix, 0)
	}
	for _, r := range rec.Records {
		switch r.Type {
		case journal.TypeRolloutStarted:
			if r.Rollout == nil {
				continue
			}
			c := r.Rollout
			rollouts[c.ID] = &rolloutReplayState{img: journal.RolloutImage{
				ID: c.ID, User: c.User, FromApp: c.FromApp, ToApp: c.ToApp,
				Vehicles: c.Vehicles, Bounds: c.Bounds, Health: c.Health,
			}}
		case journal.TypeWavePromoted:
			if r.Rollout == nil {
				continue
			}
			if rr := rollouts[r.Rollout.ID]; rr != nil && r.Rollout.Wave > rr.img.Promoted {
				rr.img.Promoted = r.Rollout.Wave
			}
		case journal.TypeRolloutRolledBack:
			if r.Rollout == nil {
				continue
			}
			if rr := rollouts[r.Rollout.ID]; rr != nil {
				rr.img.RolledBack = true
				rr.img.Reason = r.Rollout.Reason
			}
		case journal.TypeRolloutDone:
			if r.Rollout == nil {
				continue
			}
			if rr := rollouts[r.Rollout.ID]; rr != nil {
				rr.done = true
				rr.final = r.Rollout.Final
			}
		case journal.TypeOpCreated:
			if r.Op == nil {
				continue
			}
			op := r.Op.Op
			bump(op.ID)
			for _, cid := range op.Children {
				bump(cid)
			}
			if _, done := settled[op.ID]; !done {
				open[op.ID] = op
			}
		case journal.TypeOpSettled:
			if r.Op == nil {
				continue
			}
			op := r.Op.Op
			bump(op.ID)
			delete(open, op.ID)
			settled[op.ID] = op
		case journal.TypeShardEpoch:
			if r.Epoch == nil {
				continue
			}
			if r.Epoch.Shard != "" && s.shardID == "" {
				s.shardID = r.Epoch.Shard
			}
			if r.Epoch.Epoch > s.shardEpoch {
				s.shardEpoch = r.Epoch.Epoch
			}
		default:
			s.store.applyRecord(r)
		}
	}

	// Settle every operation still open as INTERRUPTED: its pushes can
	// never be acknowledged on this side of the restart. That includes a
	// rollout's wave batch (a child with children of its own); the
	// rollout itself is resumed below by its own records.
	final := make(map[string]api.Operation, len(open)+len(settled))
	interrupted := 0
	for id, op := range settled {
		final[id] = op
	}
	for id, op := range open {
		if op.Parent != "" && len(op.Children) == 0 {
			continue // image-captured per-vehicle children are re-derived below
		}
		op.State = api.StateFailed
		op.Done = true
		op.Error = api.Errorf(api.CodeInterrupted,
			"server: operation interrupted by server restart")
		interrupted++
		final[id] = op
	}
	// Rebuild the children of every INTERRUPTED batch from the parent's
	// record and the recovered store: a deploy child succeeded exactly
	// when its InstalledAPP row is fully acknowledged (success == all
	// acks received); anything less is INTERRUPTED too, and a journaled
	// child settle (failed children carry one — their reason is not
	// derivable from the store) wins outright. The interrupted parent
	// then recomputes its tallies from those outcomes.
	//
	// Children of a *settled* parent are not resurrected (beyond their
	// journaled failures): the batch's history is closed, its tallies
	// ride the parent's settle record, and re-deriving outcomes from a
	// store that kept evolving after the batch (uninstalls, drops)
	// would rewrite history. A hole behind a settled parent is already
	// normal — registry retention evicts exactly those children.
	for id, op := range final {
		if len(op.Children) == 0 {
			continue
		}
		if op.Error == nil || op.Error.Code != api.CodeInterrupted {
			continue
		}
		succ, fail := 0, 0
		for i, cid := range op.Children {
			if child, done := settled[cid]; done {
				if child.State == api.StateSucceeded {
					succ++
				} else {
					fail++
				}
				final[cid] = child
				continue
			}
			child, ok := open[cid]
			if !ok {
				child = api.Operation{
					ID: cid, Kind: childKindOf(op.Kind), User: op.User, App: op.App, ToApp: op.ToApp, Parent: op.ID,
				}
				if i < len(op.Vehicles) {
					child.Vehicle = op.Vehicles[i]
				}
			}
			if s.deriveChildOutcome(&child) {
				interrupted++
			}
			if child.State == api.StateSucceeded {
				succ++
			} else {
				fail++
			}
			final[cid] = child
		}
		op.VehiclesSucceeded, op.VehiclesFailed = succ, fail
		final[id] = op
	}

	recs := make(map[string]*opRecord, len(final)+len(rollouts))
	for id, op := range final {
		recs[id] = &opRecord{op: op, launched: true, parent: op.Parent}
	}
	for id, rr := range rollouts {
		bump(id)
		recs[id] = s.recoverRollout(id, rr)
	}
	// Creation order, i.e. ascending sequence number; the foreign ids of
	// rollouts an older server wrote ("ro-…", sequence 0) go first.
	ids := slices.Collect(maps.Keys(recs))
	slices.SortFunc(ids, func(a, b string) int {
		return cmp.Or(cmp.Compare(opSeqOf(a), opSeqOf(b)), strings.Compare(a, b))
	})
	s.mu.Lock()
	for _, id := range ids {
		rec := recs[id]
		s.ops[id] = rec
		s.opOrder = append(s.opOrder, id)
		if rec.ro != nil && !rec.op.Done {
			// A resumed rollout settles in this process, so it counts as
			// created here too: the statz ledger (created == Σ settled once
			// quiescent) holds per process.
			s.noteOpCreatedLocked(1)
		}
		// A wave batch is listed in its rollout's Children again.
		if orec := recs[rec.parent]; orec != nil && orec.ro != nil {
			orec.op.Children = append(orec.op.Children, id)
		}
		// Rebind the idempotency key, so a client retrying a create across
		// the restart (or across a shard failover onto this server) gets
		// the recovered operation instead of a duplicate.
		if rec.op.IdempotencyKey != "" {
			s.idem[rec.op.IdempotencyKey] = settledClaim(id)
		}
	}
	s.opSeq = maxSeq
	s.mu.Unlock()

	s.recovery.Journaled = true
	s.recovery.Records = len(rec.Records)
	s.recovery.Interrupted = interrupted
	s.recovery.TornTail = rec.TornTail
}

// rolloutReplayState is the recovered essence of one rollout's state
// machine: its identity record plus how far the log says it got.
type rolloutReplayState struct {
	img   journal.RolloutImage
	done  bool
	final string
}

// recoverRollout rebuilds one rollout operation and stages its resume
// continuation. The policy: a rollout with a durable rollout_done is
// closed; one with a durable rollout_rolled_back resumes its fleet
// rollback (idempotent — already-downgraded vehicles are skipped); an
// open rollout resumes forward from the last promoted wave boundary
// only if the boundary is clean — no vehicle past it holds a committed
// To row. A dirty boundary means the crash interrupted a wave whose
// health window died with the process, so the fleet rolls back.
func (s *Server) recoverRollout(id string, rr *rolloutReplayState) *opRecord {
	bounds, promoted := rr.img.Bounds, rr.img.Promoted
	if rr.done && rr.final != "rolled_back" {
		promoted = len(bounds) // it succeeded: every wave promoted
	}
	rec := &opRecord{
		op: api.Operation{
			ID: id, Kind: api.OpRollout, User: rr.img.User, App: rr.img.FromApp, ToApp: rr.img.ToApp,
			State: api.StateRunning, Vehicles: rr.img.Vehicles,
		},
		launched: true,
		ro: &rolloutState{
			bounds: bounds, promoted: promoted, state: api.RolloutRunning,
			waves: waveStatuses(bounds), currentWave: promoted,
		},
	}
	ro := rec.ro
	if rr.img.Health != nil {
		ro.health = *rr.img.Health
	}
	for w := 0; w < promoted && w < len(ro.waves); w++ {
		ro.waves[w].Started = true
		ro.waves[w].Promoted = true
	}
	reason := rr.img.Reason
	code := api.CodeRolloutUnhealthy
	if strings.Contains(reason, "operator abort") {
		code = api.CodeRolloutAborted
	}
	switch {
	case rr.done && rr.final == "rolled_back":
		ro.gateReason = reason
		rec.closeRollout(api.RolloutRolledBack, api.Errorf(code, "server: rollout %s rolled back: %s", id, reason))
	case rr.done:
		rec.closeRollout(api.RolloutSucceeded, nil)
	case rr.img.RolledBack:
		ro.state = api.RolloutRollingBack
		ro.gateReason = reason
		s.rolloutResume = append(s.rolloutResume, func() {
			s.rollbackRollout(id, reason, code, true)
		})
	default:
		// Clean-boundary rule: the wave in flight at the crash left
		// committed To rows exactly when some vehicle past the last
		// promoted boundary holds one.
		promotedBound := 0
		if rr.img.Promoted > 0 && rr.img.Promoted <= len(bounds) {
			promotedBound = bounds[rr.img.Promoted-1]
		}
		dirty := false
		for _, v := range rr.img.Vehicles[min(promotedBound, len(rr.img.Vehicles)):] {
			if _, ok := s.store.InstalledApp(v, rr.img.ToApp); ok {
				dirty = true
				break
			}
		}
		startWave := rr.img.Promoted
		if dirty {
			interruptedReason := fmt.Sprintf(
				"server restart interrupted wave %d with partial upgrades committed", startWave+1)
			s.rolloutResume = append(s.rolloutResume, func() {
				s.rollbackRollout(id, interruptedReason, api.CodeRolloutUnhealthy, false)
			})
		} else {
			s.rolloutResume = append(s.rolloutResume, func() {
				s.runRollout(id, startWave)
			})
		}
	}
	return rec
}

// deriveChildOutcome settles one child of an interrupted batch from the
// store and reports whether it was interrupted: the kind's goal row —
// the deployed app's for a deploy, the replacement's for an upgrade,
// whose commit record is the transaction's one visible effect — fully
// acknowledged proves success; everything else is interrupted, because
// the acks that would have finished it can never arrive (an upgrade
// short of its commit recovers to the old version). "Success" here is
// goal-state semantics: a vehicle whose row was already complete before
// the batch (an earlier deploy of the same app) reads as succeeded even
// if its child never ran — the claim the child's success makes, "the
// app runs acknowledged on this vehicle", is true either way (had the
// child run, it would have failed already_exists and journaled that
// settle).
func (s *Server) deriveChildOutcome(child *api.Operation) (wasInterrupted bool) {
	child.Done = true
	if k := kindOf(child.Kind); k != nil && k.goal != nil {
		if row, ok := s.store.InstalledApp(child.Vehicle, k.goal(child)); ok && row.Complete() {
			child.State = api.StateSucceeded
			child.Total, child.Acked = len(row.Plugins), len(row.Plugins)
			return false
		}
	}
	child.State = api.StateFailed
	child.Error = api.Errorf(api.CodeInterrupted,
		"server: operation interrupted by server restart")
	return true
}

// childKindOf maps a batch kind onto its per-vehicle child kind.
func childKindOf(kind api.OperationKind) api.OperationKind {
	if k := kindOf(kind); k != nil {
		return k.kind
	}
	return kind
}

// opSeqOf parses the numeric part of an operation id ("op-%08d"), 0
// for foreign ids.
func opSeqOf(id string) uint64 {
	if len(id) < 4 || id[:3] != "op-" {
		return 0
	}
	var n uint64
	for i := 3; i < len(id); i++ {
		c := id[i]
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + uint64(c-'0')
	}
	return n
}

// imageOpsPerHold bounds how many operations stateImage copies in one
// Server.mu critical section, so a snapshot never stalls ack settles,
// GetOperation and launches for longer than one small copy.
const imageOpsPerHold = 256

// stateImage builds the snapshot image for journal compaction: the
// full store plus the operation registry and the id counters. It runs
// beside the journal's writer, after the rotation; no appender ever
// waits on the journal while holding the locks it takes, so it cannot
// deadlock. The image is not one instant: the store, the counters and
// each run of imageOpsPerHold operations are captured a moment apart.
// That is safe for the reason the rotation is — every mutation visible
// to some part of the image either was flushed to an old segment, and
// then predates every part, or has its record in the new segment, which
// replays idempotently on top (and which the journal makes durable
// before it publishes the image). Between two runs the registry moves
// on: an operation created since the first hold is past the walk's
// limit and lives in the new segment alone; one settled since is
// captured settled and its record replays to the same state; one
// evicted since is missing from the image exactly as it is missing from
// the live registry (eviction needs a terminal parent, whose op_settled
// record is in the new segment, so recovery leaves the hole alone too).
// The walk resumes by id, not by position, so eviction shifting opOrder
// between holds skips nothing.
func (s *Server) stateImage() *journal.StateImage {
	img := journal.NewStateImage()
	s.store.imageInto(img)
	s.mu.Lock()
	img.Shard = s.shardID
	img.ShardEpoch = s.shardEpoch
	img.OpSeq = s.opSeq
	// Nearly every retained operation is terminal.
	img.SettledOps = make([]api.Operation, 0, len(s.opOrder))
	s.mu.Unlock()
	// opOrder is in creation order, i.e. ascending sequence number (the
	// foreign ids of recovered older rollouts, sequence 0, first); next is
	// one past the highest captured. The walk ends at the end of opOrder
	// or at the first operation created after the hold above.
	for next, done := uint64(0), false; !done; {
		s.mu.Lock()
		i := sort.Search(len(s.opOrder), func(i int) bool { return opSeqOf(s.opOrder[i]) >= next })
		run := s.opOrder[i:min(i+imageOpsPerHold, len(s.opOrder))]
		done = len(run) < imageOpsPerHold
		for _, id := range run {
			seq := opSeqOf(id)
			if seq > img.OpSeq {
				done = true
				break
			}
			next = max(next, seq+1)
			switch rec := s.ops[id]; {
			case rec == nil:
			case rec.ro != nil:
				// Open rollouts ride the image as their state machine, so
				// compaction cannot lose one whose records predate the
				// snapshot point. Terminal rollouts are history.
				if !rec.op.Done {
					img.Rollouts = append(img.Rollouts, rolloutImageLocked(rec))
				}
			case rec.op.Done:
				img.SettledOps = append(img.SettledOps, snapshotOpLocked(rec))
			default:
				img.OpenOps = append(img.OpenOps, snapshotOpLocked(rec))
			}
		}
		s.mu.Unlock()
	}
	return img
}

// rolloutImageLocked captures one open rollout for a state image: the
// started record's plan plus how far the log says it got. Called with
// Server.mu held.
func rolloutImageLocked(rec *opRecord) journal.RolloutImage {
	ro := rec.ro
	health := ro.health
	return journal.RolloutImage{
		ID: rec.op.ID, User: rec.op.User, FromApp: rec.op.App, ToApp: rec.op.ToApp,
		Vehicles: append([]core.VehicleID(nil), rec.op.Vehicles...), Bounds: append([]int(nil), ro.bounds...),
		Health: &health, Promoted: ro.promoted, RolledBack: ro.state == api.RolloutRollingBack, Reason: ro.gateReason,
	}
}

// loadImage fills an empty store from a snapshot image; called before
// the store serves traffic. The image was freshly unmarshaled, so its
// slices are owned here and need no defensive copies.
func (s *Store) loadImage(img *journal.StateImage) {
	s.mu.Lock()
	for i := range img.Users {
		u := img.Users[i]
		s.users[u.ID] = &u
	}
	for i := range img.Vehicles {
		v := img.Vehicles[i]
		s.vehicles[v.ID] = &v
	}
	for i := range img.Apps {
		a := img.Apps[i]
		s.apps[a.Name] = &a
	}
	s.mu.Unlock()
	for i := range img.Installed {
		row := img.Installed[i]
		sh := s.shard(row.Vehicle)
		sh.mu.Lock()
		sh.rows[row.Vehicle] = append(sh.rows[row.Vehicle], &row)
		sh.mu.Unlock()
	}
}

// imageInto captures the store into a snapshot image, deterministic
// order throughout (stable snapshots diff cleanly).
func (s *Store) imageInto(img *journal.StateImage) {
	s.mu.RLock()
	img.Users = make([]api.User, 0, len(s.users))
	for _, u := range s.users {
		cp := *u
		cp.Vehicles = append([]core.VehicleID(nil), u.Vehicles...)
		img.Users = append(img.Users, cp)
	}
	img.Vehicles = make([]api.VehicleRecord, 0, len(s.vehicles))
	for _, v := range s.vehicles {
		img.Vehicles = append(img.Vehicles, snapshotVehicle(v))
	}
	img.Apps = make([]api.App, 0, len(s.apps))
	for _, a := range s.apps {
		img.Apps = append(img.Apps, copyApp(a))
	}
	s.mu.RUnlock()
	sort.Slice(img.Users, func(i, k int) bool { return img.Users[i].ID < img.Users[k].ID })
	sort.Slice(img.Vehicles, func(i, k int) bool { return img.Vehicles[i].ID < img.Vehicles[k].ID })
	sort.Slice(img.Apps, func(i, k int) bool { return img.Apps[i].Name < img.Apps[k].Name })
	for i := range s.installed {
		sh := &s.installed[i]
		sh.mu.RLock()
		for _, rows := range sh.rows {
			for _, r := range rows {
				img.Installed = append(img.Installed, snapshotRow(r))
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(img.Installed, func(i, k int) bool {
		a, b := &img.Installed[i], &img.Installed[k]
		if a.Vehicle != b.Vehicle {
			return a.Vehicle < b.Vehicle
		}
		return a.App < b.App
	})
}

// applyRecord applies one replayed store mutation. Application is
// idempotent: compaction may leave a record in the new segment whose
// effect the snapshot image already contains (the image is always at
// least as new as anything flushed before it), so every branch
// tolerates finding its work already done — and the richer state
// (e.g. a row with acks) always wins over a replayed older record.
func (s *Store) applyRecord(rec journal.Record) {
	switch rec.Type {
	case journal.TypeUserAdded:
		if rec.User == nil {
			return
		}
		s.mu.Lock()
		if _, ok := s.users[rec.User.ID]; !ok {
			s.users[rec.User.ID] = &User{ID: rec.User.ID}
		}
		s.mu.Unlock()
	case journal.TypeVehicleBound:
		if rec.Vehicle == nil {
			return
		}
		owner, conf := rec.Vehicle.Owner, rec.Vehicle.Conf
		s.mu.Lock()
		if _, dup := s.vehicles[conf.Vehicle]; !dup {
			u, ok := s.users[owner]
			if !ok {
				// Defensive: the user record always precedes its
				// vehicles in the log.
				u = &User{ID: owner}
				s.users[owner] = u
			}
			s.vehicles[conf.Vehicle] = &VehicleRecord{ID: conf.Vehicle, Owner: owner, Conf: conf}
			u.Vehicles = append(u.Vehicles, conf.Vehicle)
		}
		s.mu.Unlock()
	case journal.TypeAppUploaded:
		if rec.App == nil {
			return
		}
		s.mu.Lock()
		if _, dup := s.apps[rec.App.Name]; !dup {
			s.apps[rec.App.Name] = rec.App
		}
		s.mu.Unlock()
	case journal.TypeInstallRecorded:
		if rec.Install == nil || rec.Install.Row == nil {
			return
		}
		row := rec.Install.Row
		sh := s.shard(row.Vehicle)
		sh.mu.Lock()
		dup := false
		for _, r := range sh.rows[row.Vehicle] {
			if r.App == row.App {
				dup = true
				break
			}
		}
		if !dup {
			sh.rows[row.Vehicle] = append(sh.rows[row.Vehicle], row)
		}
		sh.mu.Unlock()
	case journal.TypeInstallAcked:
		if rec.Install == nil {
			return
		}
		sh := s.shard(rec.Install.Vehicle)
		sh.mu.Lock()
		markAckedLocked(sh, rec.Install.Vehicle, rec.Install.App, rec.Install.Plugin)
		sh.mu.Unlock()
	case journal.TypeInstallRemoved:
		if rec.Install == nil {
			return
		}
		sh := s.shard(rec.Install.Vehicle)
		sh.mu.Lock()
		removeRowLocked(sh, rec.Install.Vehicle, rec.Install.App)
		sh.mu.Unlock()
	case journal.TypePluginDropped:
		if rec.Install == nil {
			return
		}
		sh := s.shard(rec.Install.Vehicle)
		sh.mu.Lock()
		dropPluginLocked(sh, rec.Install.Vehicle, rec.Install.App, rec.Install.Plugin)
		sh.mu.Unlock()
	case journal.TypeUpgradeCommitted:
		// The commit point of a live upgrade: the old app's row is
		// replaced by the fully acknowledged new one. Idempotent — a
		// snapshot may already contain the new row, in which case the
		// old one is gone too and both branches are no-ops.
		if rec.Upgrade == nil || rec.Upgrade.Row == nil {
			return
		}
		row := rec.Upgrade.Row
		sh := s.shard(row.Vehicle)
		sh.mu.Lock()
		removeRowLocked(sh, row.Vehicle, rec.Upgrade.FromApp)
		dup := false
		for _, r := range sh.rows[row.Vehicle] {
			if r.App == row.App {
				dup = true
				break
			}
		}
		if !dup {
			sh.rows[row.Vehicle] = append(sh.rows[row.Vehicle], row)
		}
		sh.mu.Unlock()
	case journal.TypeUpgradeStarted, journal.TypeUpgradeRolledBack:
		// Row-neutral markers: an upgrade that never reached its commit
		// record resolves to the old row, which is exactly what the
		// store already holds. The started record is the write-ahead
		// intent (audit + crash diagnosis), the rolled-back record the
		// closure; neither mutates the table.
	}
}
