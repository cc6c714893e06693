package server

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/journal"
	"dynautosar/internal/verify"
)

// Progressive rollouts: POST /v1/rollout upgrades a fleet From -> To in
// health-gated canary waves. The fleet is bucketed deterministically by
// hashed vehicle id (the same fleet always yields the same wave
// membership), each wave runs through the batch-upgrade machinery, and
// promotion to the next wave is gated on the wave's health window —
// failure rate, vehicle-side probe rollbacks and ack p99. A tripped
// gate (or an operator abort) downgrades every already-upgraded vehicle
// in reverse wave order. The rollout is a journaled state machine
// (rollout_started / wave_promoted / rollout_rolled_back /
// rollout_done), so a crash mid-wave recovers to a consistent wave
// boundary: a clean boundary resumes forward, a wave that died with
// partial upgrades rolls the fleet back (its health window died with
// the process and can never be re-evaluated).
//
// A rollout is an operation of kind "rollout" in the one registry
// (ops.go): its id comes from the operation sequence, its children are
// the wave batches, and it is retained and settled like any other
// operation. GET /v1/rollouts/{id} is the wave view of that record.

// rolloutState is the wave state of a rollout operation, hung off its
// opRecord; guarded by Server.mu. The operation carries the rest: User,
// App (From), ToApp (To), Vehicles in bucket order and the outcome.
type rolloutState struct {
	bounds []int // cumulative wave boundaries into the operation's Vehicles
	health api.RolloutHealthPolicy
	// abort is the operator's rollback request; the wave loop checks it
	// at every wave boundary.
	abort bool
	// promoted counts waves whose wave_promoted record is durable.
	promoted    int
	state       api.RolloutState
	waves       []api.RolloutWaveStatus
	currentWave int
	gateReason  string
}

// rolloutRetryDelay and rolloutRollbackAttempts pace the fleet-rollback
// retry loop: a vehicle that is disconnected (or whose forward child is
// still draining its claim) when its downgrade is pushed is retried
// until it converges or the attempts run out. Vars so tests can speed
// them up.
var (
	rolloutRetryDelay       = 250 * time.Millisecond
	rolloutRollbackAttempts = 40
)

// defaultRolloutWaves is the wave plan used when a request carries
// none: one canary vehicle, then 10% of the fleet, then everything.
var defaultRolloutWaves = []api.RolloutWave{{Count: 1}, {Fraction: 0.10}, {Fraction: 1}}

// StartRollout validates the request, buckets the fleet, registers the
// rollout operation, journals the rollout_started record durably and
// launches the wave loop in the background. The returned status
// snapshot has every wave pending.
func (s *Server) StartRollout(req api.RolloutRequest) (api.RolloutStatus, error) {
	if err := s.checkApps(target{app: req.From, toApp: req.To}); err != nil {
		return api.RolloutStatus{}, err
	}
	fleet, err := s.resolveFleet(req.User, req.Vehicles, req.Selector)
	if err != nil {
		return api.RolloutStatus{}, err
	}
	ordered := bucketFleet(fleet)
	bounds, err := resolveWaveBounds(req.Waves, len(ordered))
	if err != nil {
		return api.RolloutStatus{}, err
	}
	var health api.RolloutHealthPolicy
	if req.Health != nil {
		health = *req.Health
		if health.MaxFailureRate < 0 || health.MaxFailureRate >= 1 {
			return api.RolloutStatus{}, api.Errorf(api.CodeInvalidArgument,
				"server: rollout health maxFailureRate %v outside [0, 1)", health.MaxFailureRate)
		}
		if health.MaxProbeFailures < 0 || health.MaxAckP99Millis < 0 {
			return api.RolloutStatus{}, api.Errorf(api.CodeInvalidArgument,
				"server: rollout health bounds must not be negative")
		}
	}
	// Fleet-level abortability: every wave prefix must be rollback-able
	// before the first package moves.
	if err := s.verifyRolloutWaves(ordered, bounds, req.From, req.To); err != nil {
		return api.RolloutStatus{}, err
	}

	s.mu.Lock()
	s.opSeq++
	rec := &opRecord{
		op: api.Operation{
			ID: fmt.Sprintf("op-%08d", s.opSeq), Kind: api.OpRollout, User: req.User,
			App: req.From, ToApp: req.To, State: api.StateRunning, Vehicles: ordered,
		},
		launched: true,
		ro:       &rolloutState{bounds: bounds, health: health, state: api.RolloutRunning, waves: waveStatuses(bounds)},
	}
	id := rec.op.ID
	s.ops[id] = rec
	s.opOrder = append(s.opOrder, id)
	s.noteOpCreatedLocked(1)
	s.pruneOpsLocked()
	s.mu.Unlock()

	// Write-ahead gate: the rollout exists durably before its first wave
	// launches, so a crash at any later point recovers the state machine.
	// Registered before its record, as every mutation is (see stateImage);
	// one whose record cannot commit never existed, so it leaves again.
	if err := s.journalRollout(journal.RolloutStartedRec(id, req.User, req.From, req.To, ordered, bounds, req.Health)); err != nil {
		s.mu.Lock()
		s.settleRolloutLocked(rec, api.RolloutRolledBack, api.AsError(err))
		delete(s.ops, id)
		s.opOrder = slices.DeleteFunc(s.opOrder, func(o string) bool { return o == id })
		s.mu.Unlock()
		return api.RolloutStatus{}, err
	}
	s.background(func() { s.runRollout(id, 0) })
	return s.GetRollout(id)
}

// GetRollout returns the wave view of one rollout operation.
func (s *Server) GetRollout(id string) (api.RolloutStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.rolloutLocked(id)
	if rec == nil {
		return api.RolloutStatus{}, api.Errorf(api.CodeNotFound, "server: unknown rollout %q", id)
	}
	ro := rec.ro
	return api.RolloutStatus{
		ID: rec.op.ID, User: rec.op.User, From: rec.op.App, To: rec.op.ToApp, State: ro.state,
		Vehicles: append([]core.VehicleID(nil), rec.op.Vehicles...), Waves: append([]api.RolloutWaveStatus(nil), ro.waves...),
		CurrentWave: ro.currentWave, GateReason: ro.gateReason, Error: rec.op.Error, Done: rec.op.Done,
	}, nil
}

// Rollout returns the wave view of one rollout operation by id.
func (s *Server) Rollout(id string) (api.RolloutStatus, bool) {
	st, err := s.GetRollout(id)
	return st, err == nil
}

// RolloutIDs returns the ids of every live rollout operation, oldest
// first.
func (s *Server) RolloutIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []string
	for _, id := range s.opOrder {
		if s.rolloutLocked(id) != nil {
			ids = append(ids, id)
		}
	}
	return ids
}

// rolloutLocked returns the rollout operation id names, nil when id
// names none. Called with Server.mu held.
func (s *Server) rolloutLocked(id string) *opRecord {
	if rec := s.ops[id]; rec != nil && rec.ro != nil {
		return rec
	}
	return nil
}

// AbortRollout requests a fleet rollback of a running rollout. The
// request is acknowledged immediately; the wave loop acts on it at the
// next wave boundary (an executing wave always drains first, so the
// rollback targets a known set of upgraded vehicles).
func (s *Server) AbortRollout(id string) (api.RolloutStatus, error) {
	s.mu.Lock()
	rec := s.rolloutLocked(id)
	if rec == nil {
		s.mu.Unlock()
		return api.RolloutStatus{}, api.Errorf(api.CodeNotFound, "server: unknown rollout %q", id)
	}
	if rec.op.Done {
		st := rec.ro.state
		s.mu.Unlock()
		return api.RolloutStatus{}, api.Errorf(api.CodeFailedPrecondition,
			"server: rollout %s is already terminal (%s)", id, st)
	}
	rec.ro.abort = true
	s.mu.Unlock()
	s.logf("server: rollout %s: operator abort requested", id)
	return s.GetRollout(id)
}

// closeRollout moves a rollout to its terminal state: succeeded, or
// failed with err (rollout_unhealthy / rollout_aborted) once the fleet
// is rolled back.
func (rec *opRecord) closeRollout(state api.RolloutState, err *api.Error) {
	rec.ro.state = state
	rec.op.State, rec.op.Error, rec.op.Done = api.StateSucceeded, err, true
	if err != nil {
		rec.op.State = api.StateFailed
	}
}

// settleRolloutLocked closes a rollout through the registry's settle
// path; only the state machine calls it. Called with Server.mu held.
func (s *Server) settleRolloutLocked(rec *opRecord, state api.RolloutState, err *api.Error) {
	rec.closeRollout(state, err)
	s.noteOpSettledLocked(rec)
	// The wave batches and their children just became evictable.
	s.opPruneDefer = 0
}

// bucketFleet orders a resolved fleet deterministically by (FNV-1a
// hash, id): the same fleet always buckets identically, so wave
// membership is stable across retries and restarts, and the hash keeps
// wave composition independent of enrollment order.
func bucketFleet(fleet []core.VehicleID) []core.VehicleID {
	out := append([]core.VehicleID(nil), fleet...)
	sort.Slice(out, func(i, k int) bool {
		hi, hk := fnv64a(out[i]), fnv64a(out[k])
		if hi != hk {
			return hi < hk
		}
		return out[i] < out[k]
	})
	return out
}

func fnv64a(v core.VehicleID) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(v); i++ {
		h = (h ^ uint64(v[i])) * 1099511628211
	}
	return h
}

// resolveWaveBounds turns a wave plan into cumulative vehicle counts
// over a fleet of n. An empty plan defaults to 1 -> 10% -> all, with
// degenerate boundaries (a fleet too small to distinguish them)
// deduplicated.
func resolveWaveBounds(waves []api.RolloutWave, n int) ([]int, error) {
	if n == 0 {
		return nil, api.Errorf(api.CodeFailedPrecondition, "server: rollout resolves to an empty fleet")
	}
	if len(waves) == 0 {
		var out []int
		for _, w := range defaultRolloutWaves {
			b := w.Count
			if b == 0 {
				b = int(math.Ceil(w.Fraction * float64(n)))
			}
			if b > n {
				b = n
			}
			if len(out) == 0 || b > out[len(out)-1] {
				out = append(out, b)
			}
		}
		return out, nil
	}
	out := make([]int, 0, len(waves))
	for i, w := range waves {
		var b int
		switch {
		case w.Count > 0:
			b = w.Count
			if b > n {
				b = n
			}
		case w.Fraction > 0 && w.Fraction <= 1:
			b = int(math.Ceil(w.Fraction * float64(n)))
		default:
			return nil, api.Errorf(api.CodeInvalidArgument,
				"server: rollout wave %d needs count > 0 or fraction in (0, 1]", i+1)
		}
		if len(out) > 0 && b <= out[len(out)-1] {
			return nil, api.Errorf(api.CodeInvalidArgument,
				"server: rollout wave boundaries must be strictly increasing (wave %d covers %d, previous %d)",
				i+1, b, out[len(out)-1])
		}
		out = append(out, b)
	}
	if out[len(out)-1] != n {
		return nil, api.Errorf(api.CodeInvalidArgument,
			"server: rollout's last wave covers %d of %d vehicles; it must cover the whole fleet",
			out[len(out)-1], n)
	}
	return out, nil
}

func waveStatuses(bounds []int) []api.RolloutWaveStatus {
	out := make([]api.RolloutWaveStatus, len(bounds))
	prev := 0
	for i, b := range bounds {
		out[i] = api.RolloutWaveStatus{Targets: b - prev}
		prev = b
	}
	return out
}

// verifyRolloutWaves runs the fleet-level wave-prefix abortability
// check: one representative upgrade plan per wave (the first vehicle
// with the From app installed — plans transfer across same-conf
// vehicles, so one stands for the wave), mirrored and walked by
// verify.VerifyWavePrefixes. A representative whose plan is statically
// unsafe fails the rollout up front; vehicles that cannot plan for
// other reasons fail individually at push time as batch children do.
func (s *Server) verifyRolloutWaves(ordered []core.VehicleID, bounds []int, from, to core.AppName) error {
	waves := make([][]*verify.Plan, len(bounds))
	prev := 0
	for wi, b := range bounds {
		for _, v := range ordered[prev:b] {
			vr, ok := s.store.Vehicle(v)
			if !ok {
				continue
			}
			if _, ok := s.store.InstalledApp(v, from); !ok {
				continue
			}
			plan, err := planUpgrade(s, target{vehicle: v, app: from, toApp: to}, vr)
			if err != nil {
				if api.CodeOf(err) == api.CodeUnsafePlan {
					return err
				}
				continue
			}
			waves[wi] = []*verify.Plan{plan.Plan}
			break
		}
		prev = b
	}
	if err := verify.VerifyWavePrefixes(waves); err != nil {
		return api.Errorf(api.CodeUnsafePlan, "%v", err)
	}
	return nil
}

// journalRollout appends one rollout state-machine record and waits for
// it to be durable; a no-op on a memory-only server.
func (s *Server) journalRollout(rec journal.Record) error {
	if s.jn == nil {
		return nil
	}
	return waitDurable(s.jn.Append(rec))
}

// runRollout executes waves startWave.. in order, evaluating the health
// gate after each; it runs on its own goroutine (spawned by
// StartRollout, or by crash recovery when resuming at a clean
// boundary). A running rollout is never evicted, so the record it holds
// stays the registry's.
func (s *Server) runRollout(id string, startWave int) {
	s.mu.Lock()
	rec := s.rolloutLocked(id)
	if rec == nil {
		s.mu.Unlock()
		return
	}
	user, from, to := rec.op.User, rec.op.App, rec.op.ToApp
	ordered := append([]core.VehicleID(nil), rec.op.Vehicles...)
	bounds := append([]int(nil), rec.ro.bounds...)
	health := rec.ro.health
	s.mu.Unlock()

	for wave := startWave; wave < len(bounds); wave++ {
		if s.rolloutAborted(id) {
			s.rollbackRollout(id, "operator abort", api.CodeRolloutAborted, false)
			return
		}
		prev := 0
		if wave > 0 {
			prev = bounds[wave-1]
		}
		targets := ordered[prev:bounds[wave]]
		s.mu.Lock()
		rec.ro.currentWave = wave
		s.mu.Unlock()

		ws := s.runRolloutWave(id, wave, user, from, to, targets)
		if s.pushCtx.Err() != nil {
			// Close cut the wave short: its children failed because the
			// server is going away, which says nothing about the fleet's
			// health. The state machine stops where the journal has it, and
			// recovery's boundary rule decides at the next start.
			return
		}
		if reason, tripped := gateTrips(health, ws); tripped {
			s.logf("server: rollout %s: wave %d gate tripped: %s", id, wave+1, reason)
			s.rollbackRollout(id, reason, api.CodeRolloutUnhealthy, false)
			return
		}
		if s.rolloutAborted(id) {
			s.rollbackRollout(id, "operator abort", api.CodeRolloutAborted, false)
			return
		}
		// Promote: the boundary is only real once it is on disk — a
		// crash after this record resumes at wave+1, a crash before it
		// re-evaluates (and, with partial upgrades committed, rolls
		// back). A journal failure means no boundary can be promised, so
		// the fleet goes back to the known-good version.
		if err := s.journalRollout(journal.WavePromotedRec(id, wave+1)); err != nil {
			s.rollbackRollout(id, fmt.Sprintf("journal failure at wave %d promotion: %v", wave+1, err),
				api.CodeRolloutUnhealthy, false)
			return
		}
		s.mu.Lock()
		rec.ro.waves[wave].Promoted = true
		rec.ro.promoted = wave + 1
		rec.ro.currentWave = wave + 1
		s.mu.Unlock()
		s.logf("server: rollout %s: wave %d/%d promoted (%d vehicles)", id, wave+1, len(bounds), len(targets))
	}
	if s.rolloutAborted(id) {
		s.rollbackRollout(id, "operator abort", api.CodeRolloutAborted, false)
		return
	}
	if err := s.journalRollout(journal.RolloutDoneRec(id, "succeeded")); err != nil {
		s.logf("server: rollout %s: journaling completion: %v", id, err)
	}
	s.mu.Lock()
	s.settleRolloutLocked(rec, api.RolloutSucceeded, nil)
	s.mu.Unlock()
	s.logf("server: rollout %s: succeeded (%d vehicles on %s)", id, len(ordered), to)
}

// runRolloutWave pushes one wave through the batch-upgrade machinery
// and returns its health window: per-child outcome counts, probe
// rollbacks and the p99 launch-to-settle latency. The wave's batch is a
// child of the rollout operation.
func (s *Server) runRolloutWave(id string, wave int, user core.UserID, from, to core.AppName, targets []core.VehicleID) api.RolloutWaveStatus {
	parentID, children := s.newBatchUnder(id, api.OpBatchUpgrade, api.OpUpgrade, user, from, to, targets, "")
	s.mu.Lock()
	if rec := s.rolloutLocked(id); rec != nil {
		rec.ro.waves[wave].Started = true
		rec.ro.waves[wave].BatchOp = parentID
	}
	s.mu.Unlock()

	var resMu sync.Mutex
	var okN, failN, probeN int
	durs := make([]float64, 0, len(children))
	// Timed on the child's own goroutine, so the health window measures
	// the upgrade and not the wait for an inflight slot.
	s.runChildren(upgradeKind, target{user: user, app: from, toApp: to}, parentID, children,
		handedOff(func(opID string, t target, cache *planCache) error {
			start := time.Now()
			err := s.run(upgradeKind, opID, t, cache)
			ms := float64(time.Since(start).Microseconds()) / 1000.0
			resMu.Lock()
			defer resMu.Unlock()
			durs = append(durs, ms)
			if err == nil {
				okN++
			} else {
				failN++
				if api.CodeOf(err) == api.CodeRolledBack {
					probeN++
				}
			}
			return err
		}))

	ws := api.RolloutWaveStatus{
		Targets: len(targets), Started: true, BatchOp: parentID,
		Succeeded: okN, Failed: failN, ProbeFailures: probeN,
		AckP99Millis: p99(durs),
	}
	s.mu.Lock()
	if rec := s.rolloutLocked(id); rec != nil {
		ws.Promoted = rec.ro.waves[wave].Promoted
		rec.ro.waves[wave] = ws
	}
	s.mu.Unlock()
	return ws
}

// p99 returns the 99th-percentile of the samples (nearest-rank), 0 for
// none.
func p99(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	idx := int(math.Ceil(0.99*float64(len(samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return samples[idx]
}

// gateTrips evaluates one wave's health window against the policy and
// returns the violation description. The zero policy is the strictest
// gate: any failed child trips it.
func gateTrips(pol api.RolloutHealthPolicy, ws api.RolloutWaveStatus) (string, bool) {
	if ws.Targets > 0 {
		rate := float64(ws.Failed) / float64(ws.Targets)
		if rate > pol.MaxFailureRate {
			return fmt.Sprintf("wave failure rate %.3f over the %.3f bound (%d of %d children failed)",
				rate, pol.MaxFailureRate, ws.Failed, ws.Targets), true
		}
	}
	if ws.ProbeFailures > pol.MaxProbeFailures {
		return fmt.Sprintf("%d vehicle-side probe rollbacks over the %d bound",
			ws.ProbeFailures, pol.MaxProbeFailures), true
	}
	if pol.MaxAckP99Millis > 0 && ws.AckP99Millis > pol.MaxAckP99Millis {
		return fmt.Sprintf("ack p99 %.1fms over the %.1fms bound", ws.AckP99Millis, pol.MaxAckP99Millis), true
	}
	return "", false
}

func (s *Server) rolloutAborted(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.rolloutLocked(id)
	return rec != nil && rec.ro.abort
}

// rollbackRollout downgrades every upgraded vehicle of the rollout in
// reverse wave order and closes the state machine. The pivot record is
// journaled durably before the first downgrade is pushed (skipped on
// resume — recovery already replayed it), so a crash mid-rollback
// always resumes rolling back. Vehicles whose downgrade fails
// transiently (disconnected, claim still draining) are retried with a
// bounded backoff; a vehicle no longer holding the To row needs no
// downgrade, which also makes resume idempotent. A server shutting down
// stops after the wave in hand and leaves the rollout open — downgrades
// that failed because of the shutdown are not a finished rollback — so
// the next start resumes it from the durable pivot.
func (s *Server) rollbackRollout(id, reason string, code api.ErrorCode, resumed bool) {
	s.mu.Lock()
	rec := s.rolloutLocked(id)
	if rec == nil {
		s.mu.Unlock()
		return
	}
	rec.ro.state = api.RolloutRollingBack
	if rec.ro.gateReason == "" {
		rec.ro.gateReason = reason
	}
	user, from, to := rec.op.User, rec.op.App, rec.op.ToApp
	ordered := append([]core.VehicleID(nil), rec.op.Vehicles...)
	bounds := append([]int(nil), rec.ro.bounds...)
	s.mu.Unlock()

	if !resumed {
		if err := s.journalRollout(journal.RolloutRolledBackRec(id, reason)); err != nil {
			// Durability is gone, but the downgrade is still the right
			// action; recovery will re-derive the partial state from the
			// store's rows.
			s.logf("server: rollout %s: journaling rollback pivot: %v", id, err)
		}
	}
	s.logf("server: rollout %s: rolling back fleet to %s: %s", id, from, reason)

	for wave := len(bounds) - 1; wave >= 0; wave-- {
		prev := 0
		if wave > 0 {
			prev = bounds[wave-1]
		}
		var targets []core.VehicleID
		for _, v := range ordered[prev:bounds[wave]] {
			if _, ok := s.store.InstalledApp(v, to); ok {
				targets = append(targets, v)
			}
		}
		if len(targets) == 0 {
			continue
		}
		parentID, children := s.newBatchUnder(id, api.OpBatchUpgrade, api.OpUpgrade, user, to, from, targets, "")
		s.mu.Lock()
		rec.ro.waves[wave].RollbackOp = parentID
		rec.ro.currentWave = wave
		s.mu.Unlock()
		s.runChildren(upgradeKind, target{user: user, app: to, toApp: from}, parentID, children, handedOff(s.downgradeWithRetry))
		if s.pushCtx.Err() != nil {
			return
		}
	}
	if err := s.journalRollout(journal.RolloutDoneRec(id, "rolled_back")); err != nil {
		s.logf("server: rollout %s: journaling rollback completion: %v", id, err)
	}
	s.mu.Lock()
	s.settleRolloutLocked(rec, api.RolloutRolledBack, api.Errorf(code, "server: rollout %s rolled back: %s", id, reason))
	s.mu.Unlock()
	s.logf("server: rollout %s: fleet rolled back to %s", id, from)
}

// downgradeWithRetry runs one vehicle's downgrade (t.app, the rollout's
// To, back to its From), retrying transient failures until the vehicle
// converges, the attempts run out or the server shuts down. A vehicle
// that no longer holds the To row is already converged.
func (s *Server) downgradeWithRetry(opID string, t target, cache *planCache) error {
	var err error
	for attempt := 0; attempt < rolloutRollbackAttempts; attempt++ {
		if _, ok := s.store.InstalledApp(t.vehicle, t.app); !ok {
			return nil
		}
		err = s.run(upgradeKind, opID, t, cache)
		if err == nil {
			return nil
		}
		switch api.CodeOf(err) {
		case api.CodeUnavailable, api.CodeAlreadyExists:
			// Disconnected, or the forward child's claim is still
			// draining — both resolve with time.
		default:
			return err
		}
		retry := time.NewTimer(rolloutRetryDelay)
		select {
		case <-retry.C:
		case <-s.pushCtx.Done():
			retry.Stop()
			return err
		}
	}
	return err
}
