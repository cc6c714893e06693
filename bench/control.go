package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/fleetsim"
	"dynautosar/internal/server"
)

// Control-plane workload sizes at -seconds 15 (scale 1). They were
// calibrated once on the 2-core sandbox so one repetition measures about
// three seconds at the commit that added the benchmark, and are frozen:
// a later change that makes the plane faster or slower shows as a
// different time for the same work, never as different work.
const (
	batchVehicles  = 512
	batchCyclesMem = 80 // × (deploy + upgrade + uninstall) × 512 vehicles
	batchCyclesFed = 40
	singleVehicles = 64
	singleIters    = 150 // per client; × 3 operations each
)

// controlRep is what one repetition of a control-plane workload adds to
// the common repetition result.
type controlRep struct {
	kindLat   map[api.OperationKind][]float64 // request → Done, ms, per operation kind
	readLat   []float64                       // GetVehicle/Status round trips, µs
	firstPush []float64                       // request sent → first push read by a vehicle, ms (traced)
	settleLag []float64                       // last ack written → Done observed, ms (traced)
	cycleTime []time.Duration                 // per cycle/iteration, for ops_drift_ratio
	counters  planeCounters
	vins      []core.VehicleID
}

// fleetVINs returns n vehicle ids in seed order. The id set is the same
// for every seed, so the ring assigns every run the same fleet split;
// what the seed changes is the order the operator names them in.
func fleetVINs(n int, rng *rand.Rand) []core.VehicleID {
	vins := make([]core.VehicleID, n)
	for i := range vins {
		vins[i] = core.VehicleID(fmt.Sprintf("VIN-%05d", i))
	}
	rng.Shuffle(n, func(i, j int) { vins[i], vins[j] = vins[j], vins[i] })
	return vins
}

// fleetNavApps returns FleetNav-1 and FleetNav-2, the upgradeable pair
// the fleet simulator's presets deploy.
func fleetNavApps() ([]api.App, error) {
	apps, err := fleetsim.FleetApps()
	if err != nil {
		return nil, err
	}
	var out []api.App
	for _, a := range apps {
		if a.Name == appV1 || a.Name == appV2 {
			out = append(out, a)
		}
	}
	if len(out) != 2 {
		return nil, fmt.Errorf("fleetsim.FleetApps: want %s and %s, got %d of them", appV1, appV2, len(out))
	}
	return out, nil
}

// freshPlane is a workload's whole set-up: the apps assembled, a
// directory of its own, the plane built with `clients` closed-loop
// binders and keep-alive connections, the fleet connected.
func freshPlane(rc *runCtx, fed bool, vins []core.VehicleID, clients int, tr *tracer) (*plane, error) {
	apps, err := fleetNavApps()
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(rc.tmp, "plane-")
	if err != nil {
		return nil, err
	}
	return buildPlane(fed, vins, apps, clients, root, tr)
}

// settle issues one create call and polls the operation the way an
// operator does, returning the latency from request sent to Done
// observed. The clock is read outside every lock the peers share.
func (pl *plane) settle(create func(context.Context) (api.Operation, error), poll time.Duration) (api.Operation, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), pl.deadline)
	defer cancel()
	start := time.Now()
	op, err := create(ctx)
	if err != nil {
		return op, 0, err
	}
	op, err = pl.client.WaitOperation(ctx, op.ID, poll)
	lat := time.Since(start)
	if err != nil {
		return op, lat, err
	}
	if op.State != api.StateSucceeded {
		return op, lat, fmt.Errorf("operation %s (%s) settled %s: %v %v", op.ID, op.Kind, op.State, op.Failures, op.Error)
	}
	return op, lat, nil
}

// pushWindow reads and clears the fleet's first-push/last-ack marks of
// the request that started at `start`; traced repetitions only.
func (pl *plane) pushWindow(tr *tracer, start, end time.Time, vins []core.VehicleID, out *controlRep) {
	if tr == nil {
		return
	}
	first, last := int64(0), int64(0)
	for _, id := range vins {
		p := pl.peers[id]
		if f := p.firstPush.Swap(0); f != 0 && (first == 0 || f < first) {
			first = f
		}
		if l := p.lastAck.Swap(0); l > last {
			last = l
		}
	}
	if first != 0 {
		out.firstPush = append(out.firstPush, ms(time.Duration(first)-start.Sub(tr.t0)))
	}
	if last != 0 {
		out.settleLag = append(out.settleLag, ms(end.Sub(tr.t0)-time.Duration(last)))
	}
}

// checkFleet compares every listed vehicle's flash model with its
// server rows and requires exactly `want` (app or "" for empty).
func (pl *plane) checkFleet(vins []core.VehicleID, want core.AppName) error {
	for _, id := range vins {
		rows := pl.shardOf(id).srv.Store().InstalledApps(id)
		if m := pl.flashMismatch(id, rows); m != "" {
			return errors.New(m)
		}
		switch {
		case want == "" && len(rows) != 0:
			return fmt.Errorf("%s: %d rows left after uninstall", id, len(rows))
		case want != "" && (len(rows) != 1 || rows[0].App != want):
			return fmt.Errorf("%s: rows %v, want exactly %s", id, rows, want)
		}
	}
	return nil
}

// runFleetBatch is one repetition of fleet_batch_mem / fleet_batch_fed:
// `cycles` rounds of batch deploy → batch upgrade → batch uninstall over
// the whole fleet from one closed-loop operator client, each waited to
// settle and each followed by the flash-model check (untimed).
func runFleetBatch(rc *runCtx, fed bool, cycles int, tr *tracer) (_ *rep, err error) {
	rng := newRng(rc.seed)
	r := &rep{control: &controlRep{kindLat: map[api.OperationKind][]float64{}}}
	vins := fleetVINs(rc.scaled(batchVehicles, 8), rng)
	rounds := 1
	if !fed {
		rounds = memSetupRounds
	}
	pl, setup, err := timedSetup(rounds, func() (*plane, error) { return freshPlane(rc, fed, vins, rc.clients, tr) }, (*plane).close)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, pl.close()) }()
	r.setup = setup
	r.control.vins = vins
	base := pl.counters()
	cpuStart := cpuTime()

	if err := pl.cycleFleet(r, vins, cycles, tr); err != nil {
		return nil, err
	}
	if r.failed > 0 {
		return r, nil
	}
	// The timed phase is the sum of the request latencies (the checks
	// between them are not the operator's time); processor time covers
	// the checks too and is informational.
	r.cpu = cpuTime() - cpuStart
	r.heapMB, r.goroutines = memNow()
	if err := pl.finish(r, base, vins); err != nil {
		return nil, err
	}
	return r, nil
}

// cycleFleet runs the batch cycles on a built plane, adding to r. A
// failed batch ends the repetition with its vehicles counted as failed;
// the returned error is a correctness failure.
func (pl *plane) cycleFleet(r *rep, vins []core.VehicleID, cycles int, tr *tracer) error {
	type step struct {
		kind   api.OperationKind
		create func(context.Context) (api.Operation, error)
		after  core.AppName
	}
	steps := []step{
		{api.OpBatchDeploy, func(ctx context.Context) (api.Operation, error) {
			return pl.client.BatchDeploy(ctx, api.BatchDeployRequest{User: fleetUser, Vehicles: vins, App: appV1})
		}, appV1},
		{api.OpBatchUpgrade, func(ctx context.Context) (api.Operation, error) {
			return pl.client.BatchUpgrade(ctx, api.BatchUpgradeRequest{User: fleetUser, Vehicles: vins, From: appV1, To: appV2})
		}, appV2},
		{api.OpBatchUninstall, func(ctx context.Context) (api.Operation, error) {
			return pl.client.BatchUninstall(ctx, api.BatchUninstallRequest{User: fleetUser, Vehicles: vins, App: appV2})
		}, ""},
	}
	for c := 0; c < cycles; c++ {
		var cycle time.Duration
		for _, st := range steps {
			r.attempted += len(vins)
			start := time.Now()
			op, lat, err := pl.settle(st.create, pollBatch)
			end := start.Add(lat)
			r.measured += lat
			cycle += lat
			if err != nil {
				// A stuck or refused batch is a counted failure of all its
				// vehicles, not a hang and not a latency sample.
				r.failed += len(vins)
				r.errs = append(r.errs, fmt.Errorf("cycle %d %s: %w", c, st.kind, err))
				return nil
			}
			if op.VehiclesSucceeded != len(vins) {
				r.failed += len(vins) - op.VehiclesSucceeded
				r.errs = append(r.errs, fmt.Errorf("cycle %d %s: %d of %d vehicles succeeded", c, st.kind, op.VehiclesSucceeded, len(vins)))
				return nil
			}
			r.ops += len(vins)
			r.lat = append(r.lat, us(lat))
			r.control.kindLat[st.kind] = append(r.control.kindLat[st.kind], ms(lat))
			pl.pushWindow(tr, start, end, vins, r.control)
			if err := pl.checkFleet(vins, st.after); err != nil {
				return fmt.Errorf("cycle %d after %s: %w", c, st.kind, err)
			}
		}
		r.control.cycleTime = append(r.control.cycleTime, cycle)
	}
	return nil
}

// runSingleOps is one repetition of single_ops_fed: `clients`
// closed-loop operator clients on disjoint vehicle sets, each iteration
// deploy → reads → upgrade → uninstall on one vehicle, every write
// waited to settle before the next call.
func runSingleOps(rc *runCtx, iters int, tr *tracer) (_ *rep, err error) {
	rng := newRng(rc.seed)
	r := &rep{control: &controlRep{kindLat: map[api.OperationKind][]float64{}}}
	clients := rc.clients
	vins := fleetVINs(max(rc.scaled(singleVehicles, 2*clients), 2*clients), rng)
	pl, setup, err := timedSetup(1, func() (*plane, error) { return freshPlane(rc, true, vins, clients, tr) }, (*plane).close)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, pl.close()) }()
	r.setup = setup
	r.control.vins = vins
	base := pl.counters()

	// Per-client results, merged after the clients have stopped so no
	// sample is taken under a lock another client holds.
	type clientOut struct {
		rep   rep
		ctl   controlRep
		fatal error
	}
	outs := make([]clientOut, clients)
	var wg sync.WaitGroup
	phaseStart, cpuStart := time.Now(), cpuTime()
	for c := 0; c < clients; c++ {
		mine := vins[c*len(vins)/clients : (c+1)*len(vins)/clients]
		out := &outs[c]
		out.ctl.kindLat = map[api.OperationKind][]float64{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				v := mine[i%len(mine)]
				one := []core.VehicleID{v}
				iterStart := time.Now()
				write := func(kind api.OperationKind, after core.AppName, create func(context.Context) (api.Operation, error)) bool {
					out.rep.attempted++
					start := time.Now()
					_, lat, err := pl.settle(create, pollSingle)
					if err != nil {
						out.rep.failed++
						out.rep.errs = append(out.rep.errs, fmt.Errorf("%s iteration %d %s: %w", v, i, kind, err))
						return false
					}
					out.rep.ops++
					out.rep.lat = append(out.rep.lat, us(lat))
					out.ctl.kindLat[kind] = append(out.ctl.kindLat[kind], ms(lat))
					pl.pushWindow(tr, start, start.Add(lat), one, &out.ctl)
					if err := pl.checkFleet(one, after); err != nil {
						out.fatal = fmt.Errorf("iteration %d after %s: %w", i, kind, err)
						return false
					}
					return true
				}
				if !write(api.OpDeploy, appV1, func(ctx context.Context) (api.Operation, error) {
					return pl.client.Deploy(ctx, api.DeployRequest{User: fleetUser, Vehicle: v, App: appV1})
				}) {
					return
				}
				if err := pl.reads(v, &out.ctl); err != nil {
					out.fatal = err
					return
				}
				if !write(api.OpUpgrade, appV2, func(ctx context.Context) (api.Operation, error) {
					return pl.client.Upgrade(ctx, api.UpgradeRequest{User: fleetUser, Vehicle: v, From: appV1, To: appV2})
				}) {
					return
				}
				if !write(api.OpUninstall, "", func(ctx context.Context) (api.Operation, error) {
					return pl.client.Uninstall(ctx, api.UninstallRequest{User: fleetUser, Vehicle: v, App: appV2})
				}) {
					return
				}
				out.ctl.cycleTime = append(out.ctl.cycleTime, time.Since(iterStart))
			}
		}()
	}
	wg.Wait()
	r.endPhase(phaseStart, cpuStart)
	for i := range outs {
		o := &outs[i]
		if o.fatal != nil {
			return nil, o.fatal
		}
		r.attempted += o.rep.attempted
		r.failed += o.rep.failed
		r.ops += o.rep.ops
		r.lat = append(r.lat, o.rep.lat...)
		r.errs = append(r.errs, o.rep.errs...)
		for k, v := range o.ctl.kindLat {
			r.control.kindLat[k] = append(r.control.kindLat[k], v...)
		}
		r.control.readLat = append(r.control.readLat, o.ctl.readLat...)
		r.control.firstPush = append(r.control.firstPush, o.ctl.firstPush...)
		r.control.settleLag = append(r.control.settleLag, o.ctl.settleLag...)
		// Client 0's iteration times stand for the drift ratio: the
		// clients run the same loop side by side.
		if i == 0 {
			r.control.cycleTime = o.ctl.cycleTime
		}
	}
	if r.failed > 0 {
		return r, nil
	}
	if err := pl.finish(r, base, vins); err != nil {
		return nil, err
	}
	return r, nil
}

// reads issues the two reads an operator makes beside a write and checks
// what they return.
func (pl *plane) reads(v core.VehicleID, out *controlRep) error {
	ctx, cancel := context.WithTimeout(context.Background(), pl.deadline)
	defer cancel()
	start := time.Now()
	det, err := pl.client.GetVehicle(ctx, v)
	out.readLat = append(out.readLat, us(time.Since(start)))
	if err != nil {
		return fmt.Errorf("GetVehicle %s: %w", v, err)
	}
	if len(det.Installed) != 1 || det.Installed[0].App != appV1 || !det.Installed[0].Complete() {
		return fmt.Errorf("GetVehicle %s: installed %+v, want %s complete", v, det.Installed, appV1)
	}
	start = time.Now()
	st, err := pl.client.Status(ctx, v, appV1)
	out.readLat = append(out.readLat, us(time.Since(start)))
	if err != nil {
		return fmt.Errorf("Status %s: %w", v, err)
	}
	if !st.Complete() {
		return fmt.Errorf("Status %s: %+v, want complete", v, st)
	}
	return nil
}

// finish runs the end-of-repetition checks and reads the counters: the
// replicas caught up with their leaders without a resync, and (fed) a
// crashed shard recovers exactly its installed rows.
func (pl *plane) finish(r *rep, base planeCounters, vins []core.VehicleID) error {
	start := time.Now()
	_ = pl.shards[0].srv.Statz()
	statz := time.Since(start)
	if err := pl.quiesce(); err != nil {
		return err
	}
	r.control.counters = pl.counters().sub(base)
	r.control.counters.statzUS = us(statz)
	if !pl.fed {
		return nil
	}
	return pl.crashRecover(r, vins)
}

// crashRecover deploys once more (untimed) so shard s0 holds rows, makes
// them durable, kills s0's journal the way a power cut would and opens
// the directory in a fresh server: the recovered rows must equal the
// pre-crash ones.
func (pl *plane) crashRecover(r *rep, vins []core.VehicleID) error {
	if _, _, err := pl.settle(func(ctx context.Context) (api.Operation, error) {
		return pl.client.BatchDeploy(ctx, api.BatchDeployRequest{User: fleetUser, Vehicles: vins, App: appV1})
	}, pollBatch); err != nil {
		return fmt.Errorf("pre-crash deploy: %w", err)
	}
	s0 := pl.shards[0]
	if err := s0.srv.Journal().Sync(); err != nil {
		return fmt.Errorf("pre-crash sync: %w", err)
	}
	want := map[core.VehicleID][]api.InstalledApp{}
	for _, id := range vins {
		if pl.shardOf(id) == s0 {
			want[id] = s0.srv.Store().InstalledApps(id)
		}
	}
	s0.srv.Journal().Crash()
	fresh := server.New()
	start := time.Now()
	if err := fresh.OpenJournal(s0.dir); err != nil {
		return fmt.Errorf("post-crash OpenJournal: %w", err)
	}
	took := time.Since(start)
	defer fresh.Close()
	for id, rows := range want {
		got := fresh.Store().InstalledApps(id)
		if fmt.Sprint(got) != fmt.Sprint(rows) {
			return fmt.Errorf("post-crash %s: recovered %v, want %v", id, got, rows)
		}
	}
	if n := fresh.RecoveryStats().Records; n > 0 {
		r.control.counters.recoverMSPerKRecord = ms(took) / float64(n) * 1000
	}
	return nil
}
