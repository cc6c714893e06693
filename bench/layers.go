package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/bsw"
	"dynautosar/internal/can"
	"dynautosar/internal/com"
	"dynautosar/internal/core"
	"dynautosar/internal/federation"
	"dynautosar/internal/journal"
	"dynautosar/internal/pirte"
	"dynautosar/internal/plugin"
	"dynautosar/internal/server"
	"dynautosar/internal/sim"
	"dynautosar/internal/vehicle"
	"dynautosar/internal/verify"
	"dynautosar/internal/vm"
)

// Per-layer metrics come from three places, all outside the program
// under test: spans recorded at the seams between layers in the traced
// repetitions, the layers' public counters read around the measured
// phase, and — where two layers meet with no seam between them —
// isolation timings of the layer's public functions on the workload's
// own inputs. A metric of a layer the workload does not use is 0.

// timeOp runs fn n times per batch and returns the median over five
// batches of the mean nanoseconds per call.
func timeOp(n int, fn func()) float64 {
	const batches = 5
	per := make([]float64, batches)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(start)) / float64(n)
	}
	return median(per)
}

// perLayer assembles every declared per-layer metric for one traced run.
func perLayer(w workload, rc *runCtx, plain, traced []*rep, spans []span, e2e, tracedE2E map[string]summary) (map[string]float64, error) {
	out := make(map[string]float64, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.Name] = 0
	}
	// The traced repetitions carry the counters and the spans; the plain
	// ones are what the tracing overhead is measured against.
	last := traced[len(traced)-1]

	off, on := e2e["ops_per_s"].Median, tracedE2E["ops_per_s"].Median
	out["bench.tracing_overhead_pct"] = 100 * (off - on) / off
	for _, m := range e2eMetrics {
		out["bench.rep_iqr_pct."+m.Name] = 100 * e2e[m.Name].iqrShare()
	}
	var cpu, ops float64
	for _, r := range plain {
		cpu += us(r.cpu)
		ops += float64(r.ops)
	}
	out["bench.cpu_us_per_op"] = cpu / ops
	out["bench.heap_inuse_mb_end"] = last.heapMB
	out["bench.goroutines_peak"] = float64(last.goroutines)

	var err error
	switch {
	case last.control != nil:
		err = controlLayers(out, w, rc, plain, traced, spans)
	case last.vehicle != nil:
		err = vehicleLayers(out, w, plain, traced)
	}
	if err != nil {
		return nil, err
	}
	for k, v := range last.exact {
		if _, declared := out[k]; !declared {
			return nil, fmt.Errorf("exact metric %s is not a declared per-layer metric", k)
		}
		out[k] = v
	}
	for k, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s is %v", k, v)
		}
	}
	return out, nil
}

// ---- control plane ----

func isCreate(name string) bool {
	switch name {
	case "Deploy", "Upgrade", "Uninstall", "BatchDeploy", "BatchUpgrade", "BatchUninstall":
		return true
	}
	return false
}

func controlLayers(out map[string]float64, w workload, rc *runCtx, plain, traced []*rep, spans []span) error {
	fed := w.name != "fleet_batch_mem"
	var c planeCounters
	var requests, vehicleOps float64
	ctl := &controlRep{kindLat: map[api.OperationKind][]float64{}}
	for _, r := range traced {
		c = c.add(r.control.counters)
		requests += float64(len(r.lat))
		vehicleOps += float64(r.ops)
		for k, v := range r.control.kindLat {
			ctl.kindLat[k] = append(ctl.kindLat[k], v...)
		}
		ctl.readLat = append(ctl.readLat, r.control.readLat...)
		ctl.firstPush = append(ctl.firstPush, r.control.firstPush...)
		ctl.settleLag = append(ctl.settleLag, r.control.settleLag...)
	}

	self := selfTimes(spans)

	// api: the client seam. Self time is the span minus the router's (or
	// the server's) span inside it: HTTP, JSON and the handler chain.
	out["api.call_us_p50"] = median(durationsUS(spans, self, func(s span) bool { return s.Layer == "api" }))
	out["api.poll_calls_per_op"] = float64(c.pollCalls) / requests
	out["api.resp_bytes_per_op"] = float64(c.respBytes) / requests
	for kind, name := range map[api.OperationKind]string{
		api.OpDeploy: "deploy", api.OpUpgrade: "upgrade", api.OpUninstall: "uninstall",
		api.OpBatchDeploy: "deploy", api.OpBatchUpgrade: "upgrade", api.OpBatchUninstall: "uninstall",
	} {
		if xs := ctl.kindLat[kind]; len(xs) > 0 {
			out["api."+name+"_ms_p50"] = median(xs)
			if p, err := percentile(xs, 0.90); err == nil {
				out["api."+name+"_ms_p90"] = p
			}
		}
	}
	out["api.read_us_p50"] = median(ctl.readLat)

	// federation: the router seam and the ring.
	out["federation.route_us_p50"] = median(durationsUS(spans, self, func(s span) bool { return s.Layer == "federation" && isCreate(s.Name) }))
	out["federation.getop_us_p50"] = median(durationsUS(spans, nil, func(s span) bool { return s.Layer == "federation" && s.Name == "GetOperation" }))
	if fed {
		out["federation.shard_calls_per_op"] = float64(c.shardCalls) / requests
		ring := federation.NewRing(shardNames(), 0)
		vins := fleetVINs(len(traced[0].control.vins), newRng(rc.seed))
		i := 0
		out["federation.owner_ns"] = timeOp(20000, func() { _ = ring.Owner(vins[i%len(vins)]); i++ })
		out["federation.partition_us"] = timeOp(200, func() { _ = ring.Partition(vins) }) / 1000
		largest := 0
		for _, vs := range ring.Partition(vins) {
			largest = max(largest, len(vs))
		}
		out["federation.shard_imbalance"] = float64(largest) / (float64(len(vins)) / fedShards)
	}

	// server: the shard service seam, the peers' view of the pusher, and
	// the planning pipeline in isolation.
	out["server.launch_us_p50"] = median(durationsUS(spans, nil, func(s span) bool { return s.Layer == "server" && isCreate(s.Name) }))
	out["server.first_push_ms_p50"] = median(ctl.firstPush)
	out["server.settle_lag_ms_p50"] = median(ctl.settleLag)
	out["server.pushes_per_vehicle_op"] = float64(c.pushes) / vehicleOps
	out["server.statz_us"] = c.statzUS
	out["server.ops_drift_ratio"] = driftRatio(plain)
	out["core.push_frame_bytes"] = float64(c.pushBytes) / float64(max(c.pushes, 1))
	if err := planLayers(out, rc); err != nil {
		return err
	}

	// journal: group commit and segment shipping.
	if fed {
		out["journal.records_per_vehicle_op"] = float64(c.records) / vehicleOps
		out["journal.commits_per_kvehicle_op"] = 1000 * float64(c.commits) / vehicleOps
		out["journal.records_per_commit"] = float64(c.records) / float64(max(c.commits, 1))
		out["journal.bytes_per_vehicle_op"] = float64(c.shipBytes) / vehicleOps
		out["journal.ship_calls_per_commit"] = float64(c.shipCalls) / float64(max(c.commits, 1))
		out["journal.ship_us_p50"] = median(durationsUS(spans, nil, func(s span) bool { return s.Layer == "journal" && s.Name == "ship" }))
		out["journal.apply_us_p50"] = median(durationsUS(spans, self, func(s span) bool { return s.Layer == "journal" && s.Name == "apply" }))
		out["journal.snapshots"] = float64(c.snapshots)
		out["journal.follower_lag_bytes_max"] = float64(c.lagBytesMax)
		out["journal.resyncs"] = float64(c.resyncs)
		out["journal.replica_gap_bytes_end"] = float64(c.replicaGapBytes)
		out["journal.recover_ms_per_krecord"] = c.recoverMSPerKRecord
		var err error
		if out["journal.append_wait_us_p50_c1"], err = appendWait(rc, 1, 200); err != nil {
			return err
		}
		if out["journal.append_wait_us_p50_c64"], err = appendWait(rc, 64, 12); err != nil {
			return err
		}
	}
	return nil
}

// driftRatio is the throughput of the last third of a repetition's
// cycles over the first third's (1 = no drift; below 1 = the plane got
// slower as its operation registry grew), median over repetitions.
func driftRatio(reps []*rep) float64 {
	var ratios []float64
	for _, r := range reps {
		ct := r.control.cycleTime
		third := len(ct) / 3
		if third == 0 {
			continue
		}
		var first, last time.Duration
		for i := 0; i < third; i++ {
			first += ct[i]
			last += ct[len(ct)-1-i]
		}
		ratios = append(ratios, float64(first)/float64(last))
	}
	return median(ratios)
}

// planLayers times the server's planning pipeline, the verifiers, the
// package codec and the wire codec in isolation on FleetNav-1 and a
// model-car vehicle, the inputs every control-plane operation plans.
func planLayers(out map[string]float64, rc *runCtx) error {
	apps, err := fleetNavApps()
	if err != nil {
		return err
	}
	app := apps[0]
	s := server.New()
	const vin core.VehicleID = "VIN-PLAN"
	if err := s.Store().AddUser(fleetUser); err != nil {
		return err
	}
	if err := s.Store().BindVehicle(fleetUser, vehicleConf(vin)); err != nil {
		return err
	}
	for _, a := range apps {
		if err := s.Store().UploadApp(a); err != nil {
			return err
		}
	}
	stored, _ := s.Store().App(app.Name)
	vr, _ := s.Store().Vehicle(vin)

	var pkgs []plugin.Package
	var raws [][]byte
	var deploy verify.Plan
	plan := func() error {
		pkgs, raws = pkgs[:0], raws[:0]
		report := s.CheckCompatibility(stored, vr)
		if err := report.Error(); err != nil {
			return err
		}
		order, err := server.InstallOrder(stored, report.Conf)
		if err != nil {
			return err
		}
		contexts, err := s.GenerateContexts(stored, vr, order)
		if err != nil {
			return err
		}
		deploy = verify.Plan{Kind: verify.PlanDeploy, Vehicle: vin, Conf: vr.Conf}
		for _, d := range order {
			bin, _ := stored.Binary(d.Plugin)
			pkg := plugin.Package{Binary: bin, Context: *contexts[d.Plugin]}
			raw, err := pkg.MarshalBinary()
			if err != nil {
				return err
			}
			pkgs, raws = append(pkgs, pkg), append(raws, raw)
			deploy.Steps = append(deploy.Steps, verify.Step{Kind: verify.StepInstall, Plugin: d.Plugin, New: &verify.PluginState{
				Plugin: d.Plugin, ECU: d.ECU, SWC: d.SWC, Ports: bin.Manifest.Ports,
				PIC: pkg.Context.PIC, PLC: pkg.Context.PLC, Requires: bin.Manifest.Requires,
			}})
		}
		return nil
	}
	if err := plan(); err != nil {
		return fmt.Errorf("planning %s in isolation: %w", app.Name, err)
	}
	out["server.plan_us"] = timeOp(300, func() { _ = plan() }) / 1000
	if err := verify.VerifyPlan(&deploy); err != nil {
		return fmt.Errorf("verifying the deploy plan in isolation: %w", err)
	}
	out["verify.plan_us"] = timeOp(300, func() { _ = verify.VerifyPlan(&deploy) }) / 1000

	// VerifyOperation per kind: deploy on an empty vehicle, upgrade and
	// uninstall on one that holds the app.
	pl, err := freshPlane(rc, false, []core.VehicleID{"VIN-EMPTY", "VIN-HOLDS"}, 1, nil)
	if err != nil {
		return err
	}
	defer pl.close()
	if _, _, err := pl.settle(func(ctx context.Context) (api.Operation, error) {
		return pl.client.Deploy(ctx, api.DeployRequest{User: fleetUser, Vehicle: "VIN-HOLDS", App: appV1})
	}, pollSingle); err != nil {
		return err
	}
	srv := pl.shards[0].srv
	kinds := []struct {
		v    core.VehicleID
		kind api.OperationKind
		app  core.AppName
		to   core.AppName
	}{{"VIN-EMPTY", api.OpDeploy, appV1, ""}, {"VIN-HOLDS", api.OpUpgrade, appV1, appV2}, {"VIN-HOLDS", api.OpUninstall, appV1, ""}}
	var total float64
	for _, k := range kinds {
		rep, err := srv.VerifyOperation(fleetUser, k.v, k.kind, k.app, k.to)
		if err != nil || !rep.OK {
			return fmt.Errorf("VerifyOperation %s: %v %+v", k.kind, err, rep)
		}
		total += timeOp(200, func() { _, _ = srv.VerifyOperation(fleetUser, k.v, k.kind, k.app, k.to) })
	}
	out["server.verify_us"] = total / float64(len(kinds)) / 1000

	// Upload gate per binary: the bytecode verifier and the certified
	// optimiser (set-up time everywhere).
	var bins []plugin.Binary
	for _, a := range apps {
		bins = append(bins, a.Binaries...)
	}
	uploadGate(out, bins)

	packageCodec(out, pkgs[len(pkgs)-1])
	msg := core.Message{Type: core.MsgInstall, Plugin: pkgs[0].Binary.Manifest.Name, ECU: vehicle.ECU1, SWC: vehicle.SWC1, Seq: 7, Payload: raws[0]}
	var buf bytes.Buffer
	out["core.codec_ns_per_frame"] = timeOp(5000, func() {
		buf.Reset()
		_ = core.WriteMessage(&buf, msg)
		_, _ = core.ReadMessage(&buf)
	})
	return nil
}

// uploadGate times what UploadApp runs on every binary, the bytecode
// verifier and the certified optimiser, as the mean over bins.
func uploadGate(out map[string]float64, bins []plugin.Binary) {
	var vb, ob float64
	for _, b := range bins {
		vb += timeOp(50, func() { _ = verify.VerifyBinary(b) })
		ob += timeOp(20, func() { _, _, _ = verify.OptimizeBinary(b) })
	}
	out["verify.bytecode_us"] = vb / float64(len(bins)) / 1000
	out["verify.optimize_us"] = ob / float64(len(bins)) / 1000
}

// packageCodec times the installation-package codec on pkg.
func packageCodec(out map[string]float64, pkg plugin.Package) {
	raw, err := pkg.MarshalBinary()
	if err != nil {
		return
	}
	out["plugin.pkg_marshal_ns"] = timeOp(2000, func() { _, _ = pkg.MarshalBinary() })
	out["plugin.pkg_unmarshal_ns"] = timeOp(2000, func() {
		var p plugin.Package
		_ = p.UnmarshalBinary(raw)
	})
}

// appendWait is the median Append(...).Wait() latency, in µs, seen by
// `appenders` concurrent appenders on a scratch journal with the same
// injected flush as the shards'.
func appendWait(rc *runCtx, appenders, each int) (float64, error) {
	dir, err := os.MkdirTemp(rc.tmp, "append-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	jn, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return 0, err
	}
	defer jn.Close()
	jn.SetFault(&journal.FaultInjection{SyncDelay: func() time.Duration { return syncDelay }})
	lats := make([][]float64, appenders)
	errs := make([]error, appenders)
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := journal.UserAddedRec(core.UserID(fmt.Sprintf("u-%d-%d", a, i)))
				start := time.Now()
				if err := jn.Append(rec).Wait(); err != nil {
					errs[a] = err
					return
				}
				lats[a] = append(lats[a], us(time.Since(start)))
			}
		}()
	}
	wg.Wait()
	var all []float64
	for a := range lats {
		if errs[a] != nil {
			return 0, errs[a]
		}
		all = append(all, lats[a]...)
	}
	return median(all), nil
}

// ---- vehicle ----

func vehicleLayers(out map[string]float64, w workload, plain, traced []*rep) error {
	last := traced[len(traced)-1].vehicle
	ops := float64(traced[len(traced)-1].ops)
	var hostNS []float64
	for _, r := range plain {
		hostNS = append(hostNS, float64(r.measured)/float64(r.ops))
	}
	hostPerOp := median(hostNS)

	out["pirte.vport_drops"] = float64(last.vportDrops)
	out["can.bus_load"] = last.busLoad
	out["sim.events_per_op"] = float64(last.events) / ops
	if last.busFrames > 0 {
		out["can.sim_us_on_bus_per_msg"] = float64(last.busBusy) / ops
	}
	if last.installCount > 0 {
		n := float64(last.installCount)
		out["ecm.install_host_us"] = us(last.installHost) / n
		out["com.can_share_of_install_pct"] = 100 * float64(last.installTP) / float64(last.installSim)
	}

	// vm: the workload's own program on a bare instance.
	prog, err := last.pkg.Binary.Decode()
	if err != nil {
		return err
	}
	out["vm.decode_us"] = timeOp(500, func() { _, _ = last.pkg.Binary.Decode() }) / 1000
	echoNS, _, err := vmActivationNS(echoSrc("echo"), 1, 200000)
	if err != nil {
		return err
	}
	out["vm.ns_per_activation_echo"] = echoNS
	sumNS, sumInstr, err := vmActivationNS(computeSrc, 7, 2000)
	if err != nil {
		return err
	}
	out["vm.ns_per_kinstr"] = sumNS / sumInstr * 1000
	var sink int64
	native := timeOp(20000, func() {
		n, acc := int64(computeLoops), int64(0)
		for n != 0 {
			acc += n
			n--
		}
		sink += acc
	})
	_ = sink
	out["vm.native_ratio"] = sumNS / native
	// The VM's share of one unit operation: activations per operation
	// times the isolated cost of one activation of that program.
	var vmPerOp float64
	switch w.name {
	case "plugin_compute":
		own, _, err := vmProgramNS(prog, 7, 2000)
		if err != nil {
			return err
		}
		vmPerOp = own
	case "signal_chain":
		vmPerOp = 2 * echoNS // COM relays, OP relays
	case "vehicle_lifecycle":
		vmPerOp = 2 * lifecycleMessages * echoNS
	}
	out["vm.share_of_op_pct"] = 100 * vmPerOp / hostPerOp

	packageCodec(out, last.pkg)
	uploadGate(out, []plugin.Binary{last.pkg.Binary})
	raw, err := last.pkg.MarshalBinary()
	if err != nil {
		return err
	}
	nvm := bsw.NewNvM()
	out["bsw.nvm_persist_us"] = timeOp(2000, func() { nvm.WriteBlock("pirte/SW-C2/plugin", raw) }) / 1000

	if err := pirteLayers(out, last.pkg); err != nil {
		return err
	}
	if w.name == "plugin_compute" {
		return nil // no bus, no RTE, no ECM under this workload
	}
	if err := busLayers(out, len(raw)); err != nil {
		return err
	}
	if w.name == "vehicle_lifecycle" {
		return installPaths(out, last.pkg)
	}
	return nil
}

// echoSrc is the smallest relaying plug-in: one activation, three
// instructions.
func echoSrc(name string) string {
	return ".plugin " + name + " 1.0\n.port in required\n.port out provided\non_message in:\n\tARG\n\tPWR out\n\tRET\n"
}

type nullHost struct{}

func (nullHost) PortWrite(int, int64) error { return nil }
func (nullHost) SetTimer(int, sim.Duration) {}
func (nullHost) ClearTimer(int)             {}
func (nullHost) Now() sim.Time              { return 0 }
func (nullHost) Log(string, int64)          {}

// vmActivationNS assembles src, optimises it as an upload would and
// times its first port's handler like vmProgramNS.
func vmActivationNS(src string, arg int64, n int) (ns, instr float64, err error) {
	prog, err := vm.Assemble(src)
	if err != nil {
		return 0, 0, err
	}
	if prog, _, err = verify.OptimizeProgram(prog); err != nil {
		return 0, 0, err
	}
	return vmProgramNS(prog, arg, n)
}

// vmProgramNS times one activation of prog's first port on a bare
// instance (batches of n) and counts the instructions it executes.
func vmProgramNS(prog *vm.Program, arg int64, n int) (ns, instr float64, err error) {
	inst, err := vm.NewInstance(prog, nullHost{}, 1_000_000)
	if err != nil {
		return 0, 0, err
	}
	if err := inst.Deliver(0, arg); err != nil {
		return 0, 0, err
	}
	ns = timeOp(n, func() { _ = inst.Deliver(0, arg) })
	return ns, float64(inst.Instructions) / float64(inst.Activations), nil
}

// standalonePIRTE mirrors SW-C2 with the bench as its SW-C port reader.
func standalonePIRTE() (*pirte.PIRTE, *sim.Engine, error) {
	eng := sim.NewEngine()
	p, err := pirte.New(eng, vehicle.SWC2Config())
	if err != nil {
		return nil, nil, err
	}
	p.SetSWCWriter(func(core.SWCPortID, []byte) error { return nil })
	return p, eng, nil
}

func echoPackage(name string, in, out core.PluginPortID, link core.PLCEntry) (plugin.Package, error) {
	link.Plugin = out
	return optimizedPackage(echoSrc(name),
		core.Context{
			PIC: core.PIC{{Name: "in", ID: in}, {Name: "out", ID: out}},
			PLC: core.PLC{{Kind: core.LinkNone, Plugin: in}, link},
		})
}

// pirteLayers times the PIRTE's port handling by type (the paper's
// Figure 1), installation and the upgrade swap, each on a standalone
// PIRTE, and counts allocations per delivered message.
func pirteLayers(out map[string]float64, workloadPkg plugin.Package) error {
	deliver := func(link core.PLCEntry) (float64, float64, error) {
		p, _, err := standalonePIRTE()
		if err != nil {
			return 0, 0, err
		}
		pkg, err := echoPackage("echo", 0, 1, link)
		if err != nil {
			return 0, 0, err
		}
		if err := p.Install(pkg); err != nil {
			return 0, 0, err
		}
		i := int64(0)
		fn := func() { _ = p.DeliverToPlugin(0, i&0xFF); i++ }
		ns := timeOp(100000, fn)
		return ns, testing.AllocsPerRun(2000, fn), nil
	}
	var err error
	var allocs float64
	if out["pirte.deliver_ns_type3"], allocs, err = deliver(core.PLCEntry{Kind: core.LinkVirtual, Virtual: 4}); err != nil {
		return err
	}
	out["pirte.allocs_per_msg"] = allocs
	if out["pirte.deliver_ns_type2"], _, err = deliver(core.PLCEntry{Kind: core.LinkVirtualRemote, Virtual: 7, Remote: 9}); err != nil {
		return err
	}

	// Type I: an external message decoded and routed to a plug-in port.
	p, _, err := standalonePIRTE()
	if err != nil {
		return err
	}
	pkg, err := echoPackage("echo", 0, 1, core.PLCEntry{Kind: core.LinkNone})
	if err != nil {
		return err
	}
	if err := p.Install(pkg); err != nil {
		return err
	}
	payload := core.NewEnc(10)
	payload.U16(0)
	payload.I64(42)
	frame, err := core.Message{Type: core.MsgExternal, ECU: vehicle.ECU2, SWC: vehicle.SWC2, Payload: payload.Bytes()}.MarshalBinary()
	if err != nil {
		return err
	}
	out["pirte.deliver_ns_type1"] = timeOp(100000, func() { p.OnSWCData(0, frame) })

	// Peer link: plug-in to plug-in inside one SW-C.
	p, _, err = standalonePIRTE()
	if err != nil {
		return err
	}
	sink, err := echoPackage("sink", 10, 11, core.PLCEntry{Kind: core.LinkNone})
	if err != nil {
		return err
	}
	source, err := echoPackage("source", 20, 21, core.PLCEntry{Kind: core.LinkPeer, Peer: 10})
	if err != nil {
		return err
	}
	if err := p.Install(sink); err != nil {
		return err
	}
	if err := p.Install(source); err != nil {
		return err
	}
	out["pirte.peer_link_ns"] = timeOp(100000, func() { _ = p.DeliverToPlugin(20, 5) })

	// Install of the workload's own package (uninstall untimed).
	p, _, err = standalonePIRTE()
	if err != nil {
		return err
	}
	name := workloadPkg.Binary.Manifest.Name
	var install []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		if err := p.Install(workloadPkg); err != nil {
			return fmt.Errorf("isolated install of %s: %w", name, err)
		}
		install = append(install, us(time.Since(start)))
		if err := p.Uninstall(name); err != nil {
			return err
		}
	}
	out["pirte.install_us"] = median(install)

	// Upgrade swap with 64 messages buffered in the quiesce window: the
	// swap event rebinds, transfers state and replays.
	v1, err := optimizedPackage(lifecycleSrc("1.0", 1, nil), lifecycleCtx)
	if err != nil {
		return err
	}
	v2, err := optimizedPackage(lifecycleSrc("2.0", lifecycleGainV2, nil), lifecycleCtx)
	if err != nil {
		return err
	}
	var swap []float64
	for i := 0; i < 100; i++ {
		p, eng, err := standalonePIRTE()
		if err != nil {
			return err
		}
		if err := p.Install(v1); err != nil {
			return err
		}
		committed := false
		if err := p.Upgrade("Counter", v2, func(err error) { committed = err == nil }); err != nil {
			return err
		}
		for j := 0; j < lifecycleMessages; j++ {
			if err := p.DeliverToPlugin(lifecyclePoke, 1); err != nil {
				return err
			}
		}
		start := time.Now()
		eng.RunFor(pirte.DefaultUpgradeQuiesce + sim.Millisecond)
		swap = append(swap, us(time.Since(start)))
		if v, _ := p.DirectRead(lifecycleReport); v != lifecycleMessages*lifecycleGainV2 {
			return fmt.Errorf("isolated swap replayed to %d, want %d", v, lifecycleMessages*lifecycleGainV2)
		}
		eng.RunFor(pirte.DefaultUpgradeProbe + sim.Millisecond)
		if !committed {
			return fmt.Errorf("isolated upgrade never committed")
		}
	}
	out["pirte.upgrade_swap_us"] = median(swap)
	out["pirte.replay_msgs_per_s"] = lifecycleMessages / (median(swap) / 1e6)
	return nil
}

// busLayers times the layers under the PIRTE in isolation: a CAN frame
// node to node, a COM signal stack to stack, a transport payload of the
// workload's package size, an RTE write through to the actuator, and
// the bare event loop.
func busLayers(out map[string]float64, payloadBytes int) error {
	eng := sim.NewEngine()
	bus := can.NewBus(eng, "CAN0", 500_000)
	tx, rx := bus.AttachNode("A"), bus.AttachNode("B")
	delivered := 0
	rx.OnReceive(can.MatchAll, func(can.Frame, sim.Time) { delivered++ })
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	sent := 0
	out["can.host_ns_per_frame"] = timeOp(50000, func() {
		_ = tx.Send(can.Frame{ID: 0x100, Data: data})
		eng.Run()
		sent++
	})
	if delivered != sent {
		return fmt.Errorf("isolated CAN: %d of %d frames delivered", delivered, sent)
	}

	eng = sim.NewEngine()
	bus = can.NewBus(eng, "CAN0", 500_000)
	a, b := com.NewStack(eng, bus.AttachNode("A")), com.NewStack(eng, bus.AttachNode("B"))
	pdu := com.IPDUDef{Name: "Wheels", CANID: 0x120, Length: 8, Signals: []com.SignalDef{{Name: "Angle", StartBit: 0, Length: 16}}}
	if err := a.DefineTx(pdu); err != nil {
		return err
	}
	if err := b.DefineRx(pdu); err != nil {
		return err
	}
	var got uint64
	if err := b.OnSignal(0x120, "Angle", func(v uint64, _ sim.Time) { got = v }); err != nil {
		return err
	}
	v := uint64(0)
	out["com.signal_ns"] = timeOp(50000, func() {
		v = (v + 1) & 0xFFF
		_ = a.SendSignal("Wheels", "Angle", v)
		eng.Run()
	})
	if got != v {
		return fmt.Errorf("isolated COM signal: got %d, want %d", got, v)
	}

	eng = sim.NewEngine()
	bus = can.NewBus(eng, "CAN0", 500_000)
	ta := com.NewTransport(bus.AttachNode("A"), 0x600, false, can.Filter{ID: 0x601, Mask: ^uint32(0)})
	tb := com.NewTransport(bus.AttachNode("B"), 0x601, false, can.Filter{ID: 0x600, Mask: ^uint32(0)})
	payload := bytes.Repeat([]byte{0x5A}, payloadBytes)
	reassembled := 0
	tb.OnPayload(func(p []byte, _ sim.Time) { reassembled = len(p) })
	perPayload := timeOp(200, func() {
		_ = ta.Send(payload)
		eng.Run()
	})
	if reassembled != payloadBytes {
		return fmt.Errorf("isolated transport: reassembled %d of %d bytes", reassembled, payloadBytes)
	}
	out["com.tp_host_us_per_kib"] = perPayload / 1000 / (float64(payloadBytes) / 1024)

	// RTE: a write on SW-C2's WheelsReq port through the OSEK activation
	// of the built-in runnable to the actuator channel.
	tc, err := newTestCar()
	if err != nil {
		return err
	}
	defer tc.close()
	e2, _ := tc.ECU(vehicle.ECU2)
	angle := int64(0)
	var word [2]byte
	out["rte.write_ns"] = timeOp(20000, func() {
		angle = (angle + 1) % 300
		word[0], word[1] = byte(angle>>8), byte(angle)
		_ = e2.RTE.Write(string(vehicle.SWC2), "S4", word[:])
		for steps := 0; tc.Dynamics.WheelAngle() != angle && steps < 1000 && tc.eng.Step(); steps++ {
		}
	})
	if tc.Dynamics.WheelAngle() != angle {
		return fmt.Errorf("isolated RTE write: actuator holds %d, want %d", tc.Dynamics.WheelAngle(), angle)
	}

	eng = sim.NewEngine()
	fired := 0
	out["sim.host_ns_per_event"] = timeOp(200, func() {
		for i := 0; i < 1000; i++ {
			eng.After(sim.Duration(i+1), func() { fired++ })
		}
		eng.Run()
	}) / 1000
	if fired == 0 {
		return fmt.Errorf("isolated event loop fired nothing")
	}
	return nil
}

// installPaths installs the workload's package once in the ECM's own
// SW-C (no bus) and once on ECU2 (over the bus), in virtual time.
func installPaths(out map[string]float64, pkg plugin.Package) error {
	for _, target := range []struct {
		metric string
		ecu    core.ECUID
		swc    core.SWCID
	}{
		{"ecm.sim_ms_install_local", vehicle.ECU1, vehicle.SWC1},
		{"ecm.sim_ms_install_remote", vehicle.ECU2, vehicle.SWC2},
	} {
		tc, err := newTestCar()
		if err != nil {
			return err
		}
		tc.eng.RunFor(100 * sim.Millisecond)
		start := tc.eng.Now()
		err = tc.install(pkg, target.ecu, target.swc)
		tc.close()
		if err != nil {
			return fmt.Errorf("%s: %w", target.metric, err)
		}
		out[target.metric] = float64(tc.eng.Now()-start) / 1000
	}
	return nil
}

// separation is one prediction about which layer a workload loads,
// checked against a traced run.
type separation struct {
	text  string
	holds bool
}

// separations returns the predictions that apply to the run's workload.
// They are printed, not enforced: a change may legitimately move a
// share, and then the prediction is what needs a new look.
func separations(rr *runResult) []separation {
	pl := rr.PerLayer
	atLeast := func(metric string, floor float64, why string) separation {
		return separation{fmt.Sprintf("%s %.1f >= %.0f (%s)", metric, pl[metric], floor, why), pl[metric] >= floor}
	}
	zero := func(metric, why string) separation {
		return separation{fmt.Sprintf("%s %.0f = 0 (%s)", metric, pl[metric], why), pl[metric] == 0}
	}
	noAllocs := zero("pirte.allocs_per_msg", "the message path does not allocate")
	switch rr.Workload {
	case "fleet_batch_mem":
		unused := true
		for _, m := range layerMetrics {
			if strings.HasPrefix(m.Name, "journal.") || strings.HasPrefix(m.Name, "federation.") {
				unused = unused && pl[m.Name] == 0
			}
		}
		return []separation{{"every journal.* and federation.* metric is 0 (neither layer runs)", unused}}
	case "fleet_batch_fed", "single_ops_fed":
		return []separation{zero("journal.resyncs", "no follower fell back to a directory resync")}
	case "plugin_compute":
		return []separation{atLeast("vm.share_of_op_pct", 90, "the VM does the work"), noAllocs}
	case "signal_chain":
		share := pl["vm.share_of_op_pct"]
		return []separation{{fmt.Sprintf("vm.share_of_op_pct %.1f < 25 (the VM is a small share)", share), share < 25}, noAllocs}
	case "vehicle_lifecycle":
		return []separation{atLeast("com.can_share_of_install_pct", 80, "an install is its bus transfer"), noAllocs}
	}
	return nil
}
