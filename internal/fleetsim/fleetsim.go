// Package fleetsim runs fleet-scale chaos scenarios against the real
// deployment server: thousands of lightweight protocol-level vehicles
// in one process, partitioned over a ring of one or more in-process
// server shards, a declarative fault catalogue (link churn, network
// partitions, CAN bus faults, vehicle reboots, shard crashes recovered
// by journal restart or follower promotion), an invariant checker that
// audits server state against every vehicle's flash, and a measurement
// layer that reports throughput and latency percentiles
// (BENCH_FLEET.json).
//
// Time is split in two: faults, vehicle think time and reconnect
// backoff live on the discrete-event engine's virtual clock (paced
// against the wall clock so virtual fault times stay meaningful while
// the real server works), while the server itself runs its ordinary
// concurrent goroutines in real time. The pump goroutine owns the
// engine and all fleet state; vehicle readers hand arrivals back via
// sim.Engine.Inject.
package fleetsim

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/federation"
	"dynautosar/internal/sim"
)

// fleetUser owns every simulated vehicle and launches all workload.
const fleetUser core.UserID = "fleet-ops"

// latencySample bounds how many children of one batch are polled
// individually for the latency distribution; the rest are swept when
// the parent settles (their terminal states still feed the audit).
const latencySample = 1024

// maxViolations caps the violation list so a systemic failure doesn't
// drown the report.
const maxViolations = 64

// pollEvery and childPollEvery throttle operation polling so the
// tracker doesn't contend the server's registry lock away from the
// batch workers it is measuring.
const (
	pollEvery      = 2 * time.Millisecond
	childPollEvery = 5 * time.Millisecond
)

// trackedOp follows one launched operation to its terminal state.
type trackedOp struct {
	id     string
	metric string // "deploy" | "upgrade" | "uninstall" | "rollout"
	launch time.Time
	shard  int // the owning shard's index
	gen    int // shard incarnation it was launched against
	app    core.AppName
	toApp  core.AppName
	// targets are the vehicles the operation addressed (for exemption
	// building when the op is lost to a crash).
	targets []core.VehicleID
	done    bool
	lost    bool
	final   api.Operation
}

// Fleet is one running scenario. All fields are pump-owned; see the
// package comment for the concurrency model.
type Fleet struct {
	sc  Scenario
	eng *sim.Engine
	// rng drives the fault/workload schedule. It is drawn from only by
	// setup code and engine events — never by injected callbacks — so
	// the schedule is a pure function of the seed.
	rng *rand.Rand

	dir string // temporary journal root ("" = memory-only run)
	// Every vehicle, operation and audit is scoped to its ring-owning
	// shard; a one-shard ring is the single trusted server.
	shards      []*fleetShard
	ring        *federation.Ring
	shardByName map[string]int
	closed      bool

	vehicles []*SimVehicle
	byID     map[core.VehicleID]*SimVehicle
	appVer   map[core.AppName]map[core.PluginName]string
	groups   map[string][]core.VehicleID

	open       map[string]*trackedOp
	sampled    map[string]*trackedOp
	settledOps []*trackedOp
	childFinal map[string]api.Operation
	wasOpen    bool
	lastPoll   time.Time
	lastChild  time.Time

	start      time.Time
	deadline   time.Time
	m          metrics
	trace      []string
	violations []string
	logf       func(string, ...any)
}

// Result is what one scenario run produced.
type Result struct {
	Report Report
	// Trace is the deterministic fault/workload decision log: same
	// scenario, same seed, same trace — the replay contract.
	Trace []string
	// Violations lists every invariant the run broke; empty on success.
	Violations []string
}

// Run executes one scenario to quiescence and audits it. The returned
// error covers setup problems only; invariant violations are reported
// in the Result so the caller can print them with the seed.
func Run(sc Scenario, logf func(string, ...any)) (*Result, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	sc, err := sc.withDefaults()
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		sc:         sc,
		eng:        sim.NewEngine(),
		rng:        rand.New(rand.NewSource(sc.Seed)),
		byID:       make(map[core.VehicleID]*SimVehicle),
		appVer:     make(map[core.AppName]map[core.PluginName]string),
		groups:     make(map[string][]core.VehicleID),
		open:       make(map[string]*trackedOp),
		sampled:    make(map[string]*trackedOp),
		childFinal: make(map[string]api.Operation),
		logf:       logf,
	}
	if err := f.setup(); err != nil {
		f.shutdown()
		return nil, err
	}
	logf("fleetsim: scenario %q seed %d: %d vehicles, %s virtual window",
		sc.Name, sc.Seed, sc.Vehicles, sdur(sc.Duration))
	f.schedule()
	f.pump()
	f.audit("final")
	rep := f.report()
	f.shutdown()
	return &Result{Report: rep, Trace: f.trace, Violations: f.violations}, nil
}

// schedule lays the whole deterministic timeline onto the engine:
// staggered initial connects, then faults, then workload. RNG draw
// order is fixed by this sequence.
func (f *Fleet) schedule() {
	window := int64(f.sc.ConnectWindow)
	for _, v := range f.vehicles {
		f.eng.Schedule(sim.Time(f.rng.Int63n(window+1)), v.connect)
	}
	for _, fa := range f.sc.Faults {
		fa.schedule(f)
	}
	for _, w := range f.sc.Workload {
		targets := f.workTargets(w)
		w := w
		f.eng.Schedule(sim.Time(w.At), func() { f.launch(w, targets) })
	}
}

// workTargets resolves a work item's vehicle sample at schedule time,
// so the choice is part of the deterministic timeline even when the
// launch itself is skipped (server down).
func (f *Fleet) workTargets(w WorkItem) []core.VehicleID {
	if w.Group != "" {
		if ids, ok := f.groups[w.Group]; ok {
			return ids
		}
	}
	var ids []core.VehicleID
	if w.Fraction <= 0 || w.Fraction >= 1 {
		ids = make([]core.VehicleID, len(f.vehicles))
		for i, v := range f.vehicles {
			ids[i] = v.ID
		}
	} else {
		for _, v := range f.sample(w.Fraction) {
			ids = append(ids, v.ID)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	if w.Group != "" {
		f.groups[w.Group] = ids
	}
	return ids
}

// sample draws fraction of the fleet without replacement from the
// schedule RNG (at least one vehicle).
func (f *Fleet) sample(fraction float64) []*SimVehicle {
	n := len(f.vehicles)
	k := int(fraction*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([]*SimVehicle, 0, k)
	for _, idx := range f.rng.Perm(n)[:k] {
		out = append(out, f.vehicles[idx])
	}
	return out
}

// launch issues one work item as one launch per owning shard, in shard
// order, so each shard's registry sees a self-contained batch whose
// children match its own vehicles (the per-shard I2 audit).
func (f *Fleet) launch(w WorkItem, targets []core.VehicleID) {
	for idx, part := range f.partitionTargets(targets) {
		if len(part) > 0 {
			f.launchOn(idx, w, part)
		}
	}
}

// launchOn issues one work item against shard idx; a down shard skips
// its portion.
func (f *Fleet) launchOn(idx int, w WorkItem, targets []core.VehicleID) {
	srv := f.shards[idx].srv
	if srv == nil {
		f.m.launchesSkipped++
		f.tracef("launch %s %s skipped: server down", w.Kind, w.App)
		return
	}
	cl := api.NewLocalClient(srv.Service())
	ctx := context.Background()
	switch w.Kind {
	case WorkDeploy:
		f.tracef("launch %d single deploys of %s", len(targets), w.App)
		for _, id := range targets {
			op, err := cl.Deploy(ctx, api.DeployRequest{User: fleetUser, Vehicle: id, App: w.App})
			if err != nil {
				f.violationf("deploy %s on %s refused: %v", w.App, id, err)
				continue
			}
			f.track(op, "deploy", idx)
		}
		return
	case WorkBatchDeploy:
		op, err := cl.BatchDeploy(ctx, api.BatchDeployRequest{User: fleetUser, Vehicles: targets, App: w.App})
		f.finishLaunch(idx, w, op, err, "deploy")
	case WorkBatchUpgrade:
		op, err := cl.BatchUpgrade(ctx, api.BatchUpgradeRequest{User: fleetUser, Vehicles: targets, From: w.App, To: w.ToApp})
		f.finishLaunch(idx, w, op, err, "upgrade")
	case WorkBatchUninstall:
		op, err := cl.BatchUninstall(ctx, api.BatchUninstallRequest{User: fleetUser, Vehicles: targets, App: w.App})
		f.finishLaunch(idx, w, op, err, "uninstall")
	case WorkRollout:
		st, err := cl.StartRollout(ctx, api.RolloutRequest{
			User: fleetUser, Vehicles: targets,
			From: w.App, To: w.ToApp,
			Waves: w.Waves, Health: w.Health,
		})
		if err != nil {
			f.violationf("launch %s %s -> %s refused: %v", w.Kind, w.App, w.ToApp, err)
			return
		}
		f.tracef("launch rollout %s -> %s over %d vehicles in %d waves", w.App, w.ToApp, len(st.Vehicles), len(st.Waves))
		f.logf("fleetsim: t=%s launched rollout %s -> %s (%s, %d vehicles, %d waves)",
			f.vt(), w.App, w.ToApp, st.ID, len(st.Vehicles), len(st.Waves))
		// A rollout is an operation: tracked like a batch parent, settled
		// through its wave view (settleRollout).
		f.track(api.Operation{ID: st.ID, App: st.From, ToApp: st.To, Vehicles: st.Vehicles}, "rollout", idx)
	default:
		f.violationf("unknown work kind %q", w.Kind)
	}
}

func (f *Fleet) finishLaunch(idx int, w WorkItem, op api.Operation, err error, metric string) {
	if err != nil {
		f.violationf("launch %s %s refused: %v", w.Kind, w.App, err)
		return
	}
	f.tracef("launch %s %s -> %s over %d vehicles", w.Kind, w.App, f.qkey(idx, op.ID), len(op.Vehicles))
	f.logf("fleetsim: t=%s launched %s %s (%s, %d vehicles)", f.vt(), w.Kind, w.App, f.qkey(idx, op.ID), len(op.Vehicles))
	f.track(op, metric, idx)
}

// track registers a launched operation and a latency sample of its
// batch children. Map keys are shard-qualified: operation ids are only
// unique within one shard's registry.
func (f *Fleet) track(op api.Operation, metric string, idx int) {
	t := &trackedOp{
		id: op.ID, metric: metric, launch: time.Now(), shard: idx, gen: f.shards[idx].gen,
		app: op.App, toApp: op.ToApp,
	}
	if len(op.Vehicles) > 0 {
		t.targets = op.Vehicles
	} else if op.Vehicle != "" {
		t.targets = []core.VehicleID{op.Vehicle}
	}
	f.open[f.qkey(idx, op.ID)] = t
	f.wasOpen = true
	f.m.launched++
	if n := len(op.Children); n > 0 {
		stride := 1
		if n > latencySample {
			stride = (n + latencySample - 1) / latencySample
		}
		for i := 0; i < n; i += stride {
			f.sampled[f.qkey(idx, op.Children[i])] = &trackedOp{id: op.Children[i], metric: metric, launch: t.launch, shard: idx, gen: t.gen}
		}
	}
}

// poll advances the operation tracker: settles tracked parents,
// singles and rollouts, samples child latencies, and fires the
// quiescence audit when the last open operation settles.
func (f *Fleet) poll() {
	now := time.Now()
	if now.Sub(f.lastPoll) < pollEvery {
		return
	}
	f.lastPoll = now
	for key, t := range f.open {
		sh := f.shards[t.shard]
		if sh.srv == nil {
			continue // shard down; its recovered journal resolves it
		}
		op, ok := sh.srv.Operation(t.id)
		rollout := t.metric == "rollout"
		switch {
		case !ok && t.gen < sh.gen && !(rollout && sh.dir != ""):
			// Created against a previous incarnation and never journaled
			// before the crash: lost with the process, like work accepted
			// by a dying server. Its side effects are exempted, not
			// forgotten — see exemptions(). A rollout is write-ahead
			// journaled before its first wave launches, so it must survive
			// a journaled shard's crash: only a memory-only one is lost.
			t.done, t.lost = true, true
			if rollout {
				f.m.rolloutsLost++
			} else {
				f.m.lostOps++
			}
		case !ok:
			f.violationf("operation %s vanished from the registry before settling", key)
			t.done = true
		case op.Done && rollout:
			t.done, t.final = true, op
			f.settleRollout(t, op, now)
		case op.Done:
			t.done, t.final = true, op
			f.settleParent(t, op, now)
		default:
			continue
		}
		delete(f.open, key)
		f.settledOps = append(f.settledOps, t)
	}
	if now.Sub(f.lastChild) >= childPollEvery {
		f.lastChild = now
		for key, t := range f.sampled {
			srv := f.shards[t.shard].srv
			if srv == nil {
				continue
			}
			op, ok := srv.Operation(t.id)
			if !ok {
				delete(f.sampled, key)
				continue
			}
			if op.Done {
				f.m.lat(t.metric).record(now.Sub(t.launch))
				delete(f.sampled, key)
			}
		}
	}
	if f.wasOpen && len(f.open) == 0 {
		f.wasOpen = false
		f.audit("quiescent")
	}
}

// settleRollout records a terminal rollout: whole-rollout latency, the
// promoted-wave tally and gate reason read once from its wave view, and
// its children — every forward and rollback wave batch — harvested into
// the audit's settled set.
func (f *Fleet) settleRollout(t *trackedOp, op api.Operation, now time.Time) {
	f.m.settled++
	f.m.rolloutsSettled++
	f.m.rollout.record(now.Sub(t.launch))
	st, _ := f.shards[t.shard].srv.Rollout(t.id)
	reason := ""
	if st.State == api.RolloutRolledBack {
		f.m.rolloutsRolledBack++
		reason = ": " + st.GateReason
	}
	for _, ws := range st.Waves {
		if ws.Promoted {
			f.m.wavesPromoted++
		}
	}
	for _, id := range op.Children {
		f.harvestRolloutOp(t, id)
	}
	f.logf("fleetsim: t=%s rollout %s settled %s%s", f.vt(), t.id, st.State, reason)
}

// harvestRolloutOp pulls one wave's batch operation into the settled
// set so the I2 accounting audit covers it and its failed children feed
// the exemption allowance. A wave batch is a child of its rollout
// operation, so the registry keeps it until the rollout settled: one
// missing in the incarnation that launched the rollout was evicted too
// early. Across a restart a hole is by design, as for batch children.
func (f *Fleet) harvestRolloutOp(r *trackedOp, id string) {
	sh := f.shards[r.shard]
	op, ok := sh.srv.Operation(id)
	if !ok && r.gen == sh.gen {
		f.violationf("rollout %s wave batch %s missing at rollout settle", r.id, id)
	}
	if !ok || !op.Done {
		return
	}
	t := &trackedOp{
		id: id, metric: "upgrade", shard: r.shard, gen: sh.gen,
		app: op.App, toApp: op.ToApp, targets: op.Vehicles,
		done: true, final: op,
	}
	f.settledOps = append(f.settledOps, t)
	for _, cid := range op.Children {
		if cop, ok := sh.srv.Operation(cid); ok {
			f.childFinal[f.qkey(r.shard, cid)] = cop
		}
	}
}

// settleParent records a terminal operation and sweeps its children:
// once the parent is done every child is terminal, so one pass pins
// their final states for the audit (and flushes remaining latency
// samples).
func (f *Fleet) settleParent(t *trackedOp, op api.Operation, now time.Time) {
	f.m.settled++
	if len(op.Children) == 0 {
		f.m.lat(t.metric).record(now.Sub(t.launch))
		return
	}
	sh := f.shards[t.shard]
	for _, cid := range op.Children {
		key := f.qkey(t.shard, cid)
		if st, ok := f.sampled[key]; ok {
			f.m.lat(st.metric).record(now.Sub(st.launch))
			delete(f.sampled, key)
		}
		if cop, ok := sh.srv.Operation(cid); ok {
			f.childFinal[key] = cop
		} else if t.gen == sh.gen {
			// Across a crash the hole is by design: a parent whose settle
			// record was durable comes back settled, and recovery does not
			// resurrect a settled batch's children.
			f.violationf("batch %s child %s missing at parent settle", op.ID, cid)
		}
	}
}

// pump is the run's main loop: it interleaves virtual events with the
// real server's concurrent progress. Virtual time is paced against the
// wall clock inside the scenario window; past the window it only keeps
// stepping to let launched work (backoff redials, straggler acks)
// drain to quiescence.
func (f *Fleet) pump() {
	endT := sim.Time(f.sc.Duration)
	f.start = time.Now()
	f.deadline = f.start.Add(f.sc.RealTimeLimit)
	for {
		if f.eng.AwaitInjected(0) {
			f.poll()
			continue
		}
		f.poll()
		now := f.eng.Now()
		if len(f.open) == 0 && now >= endT {
			return
		}
		if time.Now().After(f.deadline) {
			f.violationf("real-time limit %s exceeded with %d operations unsettled",
				f.sc.RealTimeLimit, len(f.open))
			return
		}
		at, ok := f.eng.Next()
		switch {
		case ok && (at <= endT || len(f.open) > 0):
			if now < endT && !f.paced(at) {
				continue // waited out pacing or handled injected work
			}
			f.eng.Step()
		case now < endT:
			// Nothing due: fast-forward the clock as far as pacing
			// allows, or wait for real handoffs.
			target := endT
			if limit := f.paceLimit(); limit < target {
				target = limit
			}
			if target > now {
				f.eng.RunUntil(target)
			} else {
				f.eng.AwaitInjected(200 * time.Microsecond)
			}
		default:
			// Virtual window over, operations still settling in real
			// goroutines.
			f.eng.AwaitInjected(200 * time.Microsecond)
		}
	}
}

// paceLimit is how far the virtual clock may run given elapsed wall
// time and the scenario speedup.
func (f *Fleet) paceLimit() sim.Time {
	if f.sc.Speedup < 0 {
		return sim.End
	}
	return sim.Time(time.Since(f.start).Microseconds() * int64(f.sc.Speedup))
}

// paced reports whether the event at `at` may fire now; if not it
// waits a bounded slice of real time (serving injected work while it
// does) and returns false so the caller re-evaluates.
func (f *Fleet) paced(at sim.Time) bool {
	limit := f.paceLimit()
	if at <= limit {
		return true
	}
	wait := time.Duration(int64(at-limit)) * time.Microsecond / time.Duration(f.sc.Speedup)
	if wait > 2*time.Millisecond {
		wait = 2 * time.Millisecond
	}
	f.eng.AwaitInjected(wait)
	return false
}

// shutdown tears the run down: closes every link, drains the reader
// goroutines' final injections, closes every shard's server and replica
// and removes the temporary journal root.
func (f *Fleet) shutdown() {
	f.closed = true
	for _, v := range f.vehicles {
		if v.conn != nil {
			v.conn.Close()
			v.conn = nil
		}
	}
	// Readers inject one link-down each on exit; drain until quiet so
	// no goroutine is left blocked on the engine's channel.
	for f.eng.AwaitInjected(5 * time.Millisecond) {
	}
	for _, sh := range f.shards {
		if sh.srv != nil {
			sh.srv.Close()
			sh.srv = nil
		}
		if sh.replica != nil {
			sh.replica.Close()
		}
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// vt formats the current virtual time for logs and traces.
func (f *Fleet) vt() string {
	return fmt.Sprintf("%.3fs", float64(f.eng.Now())/float64(sim.Second))
}

func (f *Fleet) tracef(format string, args ...any) {
	f.trace = append(f.trace, "t="+f.vt()+" "+fmt.Sprintf(format, args...))
}

func (f *Fleet) violationf(format string, args ...any) {
	if len(f.violations) >= maxViolations {
		return
	}
	msg := fmt.Sprintf(format, args...)
	f.violations = append(f.violations, msg)
	f.logf("fleetsim: VIOLATION (seed %d): %s", f.sc.Seed, msg)
}
