package server

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
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
// operation. Its Rollout field carries the wave progress.

// rolloutState is what an open rollout's wave loop needs beyond its
// operation, hung off the opRecord; guarded by Server.mu. The operation
// carries the rest: identity, fleet in bucket order, waves and outcome.
type rolloutState struct {
	bounds []int // cumulative wave boundaries into the operation's Vehicles
	health api.RolloutHealthPolicy
	// abort is the operator's rollback request; the wave loop checks it
	// at every wave boundary.
	abort bool
	// promoted counts waves whose wave_promoted record is journaled.
	promoted int
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
// launches the wave loop in the background. The returned operation has
// every wave pending.
func (s *Server) StartRollout(req api.RolloutRequest) (api.Operation, error) {
	if err := s.checkApps(target{app: req.From, toApp: req.To}); err != nil {
		return api.Operation{}, err
	}
	fleet, err := s.resolveFleet(req.User, req.Vehicles, req.Selector)
	if err != nil {
		return api.Operation{}, err
	}
	ordered := bucketFleet(fleet)
	bounds, err := resolveWaveBounds(req.Waves, len(ordered))
	if err != nil {
		return api.Operation{}, err
	}
	if h := req.Health; h != nil {
		if h.MaxFailureRate < 0 || h.MaxFailureRate >= 1 {
			return api.Operation{}, api.Errorf(api.CodeInvalidArgument,
				"server: rollout health maxFailureRate %v outside [0, 1)", h.MaxFailureRate)
		}
		if h.MaxProbeFailures < 0 || h.MaxAckP99Millis < 0 {
			return api.Operation{}, api.Errorf(api.CodeInvalidArgument,
				"server: rollout health bounds must not be negative")
		}
	}
	// Fleet-level abortability: every wave prefix must be rollback-able
	// before the first package moves.
	if err := s.verifyRolloutWaves(ordered, bounds, req.From, req.To); err != nil {
		return api.Operation{}, err
	}

	s.mu.Lock()
	s.opSeq++
	id := fmt.Sprintf("op-%08d", s.opSeq)
	rec := newRolloutOp(id, req.User, req.From, req.To, ordered, bounds, req.Health)
	s.ops[id] = rec
	s.opOrder = append(s.opOrder, id)
	s.noteOpCreatedLocked(1)
	s.pruneOpsLocked()
	started := snapshotOpLocked(rec)
	s.mu.Unlock()

	// Write-ahead gate: the rollout exists durably before its first wave
	// launches, so a crash at any later point recovers the state machine.
	// Registered before its record, as every mutation is (see stateImage);
	// one whose record cannot commit never existed, so it leaves again.
	if err := waitDurable(s.store.jn.Append(journal.RolloutStartedRec(id, req.User, req.From, req.To, ordered, bounds, req.Health))); err != nil {
		s.mu.Lock()
		s.settleRolloutLocked(rec, api.AsError(err))
		delete(s.ops, id)
		s.opOrder = slices.DeleteFunc(s.opOrder, func(o string) bool { return o == id })
		s.mu.Unlock()
		return api.Operation{}, err
	}
	s.background(func() { s.runRollout(id, 0) })
	return started, nil
}

// rolloutLocked returns the rollout operation id names with its wave
// loop state, nil when id names none. Called with Server.mu held.
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
func (s *Server) AbortRollout(id string) (api.Operation, error) {
	s.mu.Lock()
	// Kind names a rollout, not rec.ro: one recovered settled from a
	// state image has no wave loop state (only an open one needs it).
	rec := s.ops[id]
	if rec == nil || rec.op.Kind != api.OpRollout {
		s.mu.Unlock()
		return api.Operation{}, api.Errorf(api.CodeNotFound, "server: unknown rollout %q", id)
	}
	if rec.op.Done {
		s.mu.Unlock()
		return api.Operation{}, api.Errorf(api.CodeFailedPrecondition,
			"server: rollout %s is already terminal (%s)", id, rec.op.State)
	}
	rec.ro.abort = true
	op := snapshotOpLocked(rec)
	s.mu.Unlock()
	s.logf("server: rollout %s: operator abort requested", id)
	return op, nil
}

// newRolloutOp builds a running rollout operation with every wave
// pending: what StartRollout registers, and what recovery rebuilds from
// a rollout_started record or an image before replaying the rest of
// the state machine onto it. A nil health is the strictest policy.
func newRolloutOp(id string, user core.UserID, from, to core.AppName, vehicles []core.VehicleID, bounds []int, health *api.RolloutHealthPolicy) *opRecord {
	rec := &opRecord{
		op: api.Operation{
			ID: id, Kind: api.OpRollout, User: user, App: from, ToApp: to,
			State: api.StateRunning, Vehicles: vehicles,
		},
		launched: true,
		ro:       &rolloutState{bounds: bounds},
	}
	rec.op.Rollout = &api.RolloutProgress{Waves: waveStatuses(bounds)}
	if health != nil {
		rec.ro.health = *health
	}
	return rec
}

// promote marks the first n waves started and promoted and moves the
// current wave past them: the state change of a wave_promoted record
// carrying n.
func (rec *opRecord) promote(n int) {
	ro, p := rec.ro, rec.op.Rollout
	for ; ro.promoted < min(n, len(p.Waves)); ro.promoted++ {
		p.Waves[ro.promoted].Started = true
		p.Waves[ro.promoted].Promoted = true
	}
	p.CurrentWave = ro.promoted
}

// pivot turns the rollout around, keeping the first reason given: the
// state change of a rollout_rolled_back record.
func (rec *opRecord) pivot(reason string) {
	p := rec.op.Rollout
	p.RollingBack = true
	if p.GateReason == "" {
		p.GateReason = reason
	}
}

// replayRollout applies one journaled transition of the rollout's state
// machine with the state change the wave loop made when it wrote it.
func (rec *opRecord) replayRollout(r journal.Record) {
	c := r.Rollout
	switch r.Type {
	case journal.TypeWavePromoted:
		rec.promote(c.Wave)
	case journal.TypeRolloutRolledBack:
		rec.pivot(c.Reason)
	case journal.TypeRolloutDone:
		if c.Final == "rolled_back" {
			rec.closeRollout(rolledBackErr(rec.op.ID, rec.op.Rollout.GateReason))
			return
		}
		// Only a rollout past its last wave succeeds.
		rec.promote(len(rec.op.Rollout.Waves))
		rec.closeRollout(nil)
	}
}

// rolledBackErr is the outcome of a rollout whose fleet was rolled back
// for reason: rollout_aborted after an operator abort, rollout_unhealthy
// for anything else. It depends on the journaled reason alone, so a
// replayed or resumed rollback settles as the live one would have.
func rolledBackErr(id, reason string) *api.Error {
	code := api.CodeRolloutUnhealthy
	if strings.Contains(reason, "operator abort") {
		code = api.CodeRolloutAborted
	}
	return api.Errorf(code, "server: rollout %s rolled back: %s", id, reason)
}

// closeRollout moves a rollout to its terminal state: succeeded, or
// failed with err (rollout_unhealthy / rollout_aborted) once the fleet
// is rolled back.
func (rec *opRecord) closeRollout(err *api.Error) {
	rec.op.State, rec.op.Error, rec.op.Done = api.StateSucceeded, err, true
	if err != nil {
		rec.op.State = api.StateFailed
	}
}

// settleRolloutLocked closes a rollout through the registry's settle
// path; only the state machine calls it. Called with Server.mu held.
func (s *Server) settleRolloutLocked(rec *opRecord, err *api.Error) {
	rec.closeRollout(err)
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
			s.rollbackRollout(id, "operator abort", false)
			return
		}
		prev := 0
		if wave > 0 {
			prev = bounds[wave-1]
		}
		targets := ordered[prev:bounds[wave]]
		s.mu.Lock()
		rec.op.Rollout.CurrentWave = wave
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
			s.rollbackRollout(id, reason, false)
			return
		}
		if s.rolloutAborted(id) {
			s.rollbackRollout(id, "operator abort", false)
			return
		}
		// Promote: the boundary is only real once it is on disk — a
		// crash after this record resumes at wave+1, a crash before it
		// re-evaluates (and, with partial upgrades committed, rolls
		// back). The promotion and its record are made under one hold,
		// as every mutation is (see stateImage), and the wait is outside
		// it. A journal failure means no boundary can be promised, so
		// the fleet goes back to the known-good version.
		s.mu.Lock()
		rec.promote(wave + 1)
		promoted := s.store.jn.Append(journal.WavePromotedRec(id, wave+1))
		s.mu.Unlock()
		if err := waitDurable(promoted); err != nil {
			s.rollbackRollout(id, fmt.Sprintf("journal failure at wave %d promotion: %v", wave+1, err), false)
			return
		}
		s.logf("server: rollout %s: wave %d/%d promoted (%d vehicles)", id, wave+1, len(bounds), len(targets))
	}
	if s.rolloutAborted(id) {
		s.rollbackRollout(id, "operator abort", false)
		return
	}
	s.mu.Lock()
	s.settleRolloutLocked(rec, nil)
	done := s.store.jn.Append(journal.RolloutDoneRec(id, "succeeded"))
	s.mu.Unlock()
	if err := waitDurable(done); err != nil {
		s.logf("server: rollout %s: journaling completion: %v", id, err)
	}
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
		rec.op.Rollout.Waves[wave].Started = true
		rec.op.Rollout.Waves[wave].BatchOp = parentID
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
		ws.Promoted = rec.op.Rollout.Waves[wave].Promoted
		rec.op.Rollout.Waves[wave] = ws
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
func (s *Server) rollbackRollout(id, reason string, resumed bool) {
	s.mu.Lock()
	rec := s.rolloutLocked(id)
	if rec == nil {
		s.mu.Unlock()
		return
	}
	rec.pivot(reason)
	user, from, to := rec.op.User, rec.op.App, rec.op.ToApp
	ordered := append([]core.VehicleID(nil), rec.op.Vehicles...)
	bounds := append([]int(nil), rec.ro.bounds...)
	var pivoted journal.Ticket // a zero ticket on resume: nothing to wait for
	if !resumed {
		pivoted = s.store.jn.Append(journal.RolloutRolledBackRec(id, reason))
	}
	s.mu.Unlock()

	if err := waitDurable(pivoted); err != nil {
		// Durability is gone, but the downgrade is still the right
		// action; recovery will re-derive the partial state from the
		// store's rows.
		s.logf("server: rollout %s: journaling rollback pivot: %v", id, err)
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
		rec.op.Rollout.Waves[wave].RollbackOp = parentID
		rec.op.Rollout.CurrentWave = wave
		s.mu.Unlock()
		s.runChildren(upgradeKind, target{user: user, app: to, toApp: from}, parentID, children, handedOff(s.downgradeWithRetry))
		if s.pushCtx.Err() != nil {
			return
		}
	}
	s.mu.Lock()
	s.settleRolloutLocked(rec, rolledBackErr(id, reason))
	done := s.store.jn.Append(journal.RolloutDoneRec(id, "rolled_back"))
	s.mu.Unlock()
	if err := waitDurable(done); err != nil {
		s.logf("server: rollout %s: journaling rollback completion: %v", id, err)
	}
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
