package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"

	"dynautosar/internal/can"
	"dynautosar/internal/core"
	"dynautosar/internal/ecm"
	"dynautosar/internal/pirte"
	"dynautosar/internal/plugin"
	"dynautosar/internal/sim"
	"dynautosar/internal/vehicle"
	"dynautosar/internal/verify"
	"dynautosar/internal/vm"
)

// Data-plane workload sizes at -seconds 15 (scale 1), frozen like the
// control-plane ones (see control.go).
const (
	signalMessages    = 1_500_000
	computeMessages   = 300_000
	lifecycleCycles   = 1600
	lifecycleMessages = 64      // per phase: after install, and inside the quiesce window
	lifecyclePadBytes = 4 << 10 // seed-padded constant pool of the lifecycle plug-in
	computeLoops      = 1000    // iterations of the sum loop per activation

	// latencyEvery thins the per-message clock reads of the two message
	// workloads: two time.Now calls cost a few percent of a 2 µs
	// message, one pair per eight messages does not.
	latencyEvery = 8

	// maxEventsPerStep bounds the simulation steps one operation may
	// take; past it the operation counts as failed instead of hanging.
	maxEventsPerStep = 2_000_000
)

// vehicleRep is what one repetition of a data-plane workload adds to the
// common repetition result.
type vehicleRep struct {
	simTotal   sim.Duration // virtual time inside the measured operations
	events     int          // simulation events executed in the measured phase
	busFrames  uint64       // frames delivered on the bus in the measured phase
	busBusy    sim.Duration // their time on the wire
	busLoad    float64
	instr      uint64 // VM instructions of the measured activations
	activation uint64
	vportDrops uint64

	// vehicle_lifecycle only.
	installSim   sim.Duration // install message at the ECM → ack emitted, summed
	installTP    sim.Duration // time the installs' frames spent on the wire, summed
	installHost  time.Duration
	installCount int
	tpFrames     uint64 // frames on the bus during installs

	pirte *pirte.PIRTE // the PIRTE the plug-in ran on, for the isolation timings
	pkg   plugin.Package
}

// serverLink is the ECM's dial-out connection to the trusted server as
// the vehicle workloads see it: every frame the ECM writes is decoded
// and acknowledgements are kept by sequence number.
type serverLink struct {
	mu     sync.Mutex
	acked  map[uint32]bool
	nacks  []string
	closed chan struct{}
	once   sync.Once
}

func newServerLink() *serverLink {
	return &serverLink{acked: map[uint32]bool{}, closed: make(chan struct{})}
}

// Write receives one whole frame per call (core.WriteMessage).
func (l *serverLink) Write(p []byte) (int, error) {
	var m core.Message
	if err := m.UnmarshalBinary(p); err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch m.Type {
	case core.MsgAck:
		l.acked[m.Seq] = true
	case core.MsgNack:
		l.nacks = append(l.nacks, fmt.Sprintf("seq %d: %s", m.Seq, m.Payload))
	}
	return len(p), nil
}

// Read blocks until Close: the server sends nothing on this link, the
// workloads hand its messages to the ECM directly.
func (l *serverLink) Read([]byte) (int, error) {
	<-l.closed
	return 0, io.EOF
}

func (l *serverLink) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

// takeAck reports whether seq was acknowledged (clearing it) and fails
// on any nack.
func (l *serverLink) takeAck(seq uint32) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.nacks) > 0 {
		return false, fmt.Errorf("vehicle nacked: %s", strings.Join(l.nacks, "; "))
	}
	if l.acked[seq] {
		delete(l.acked, seq)
		return true, nil
	}
	return false, nil
}

// testCar is the model car with its server link and an event counter.
type testCar struct {
	*vehicle.ModelCar
	eng    *sim.Engine
	link   *serverLink
	events int
	seq    uint32
}

func newTestCar() (*testCar, error) {
	eng := sim.NewEngine()
	car, err := vehicle.NewModelCar(eng, "VIN-BENCH")
	if err != nil {
		return nil, err
	}
	tc := &testCar{ModelCar: car, eng: eng, link: newServerLink()}
	car.ECM.SetDialer(ecm.DialerFunc(func(string) (io.ReadWriteCloser, error) { return newServerLink(), nil }))
	if err := car.ECM.ConnectServer(tc.link, car.ID); err != nil {
		return nil, err
	}
	return tc, nil
}

// close ends the ECM's link goroutines.
func (tc *testCar) close() error {
	tc.ECM.Close()
	return nil
}

// stepUntil executes simulation events one at a time until done holds.
func (tc *testCar) stepUntil(what string, done func() (bool, error)) error {
	for n := 0; ; n++ {
		ok, err := done()
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if ok {
			return nil
		}
		if n >= maxEventsPerStep || !tc.eng.Step() {
			return fmt.Errorf("%s: not reached after %d events at %v", what, n, tc.eng.Now())
		}
		tc.events++
	}
}

// send hands one server message to the ECM and steps until its ack.
func (tc *testCar) send(msg core.Message) error {
	tc.seq++
	msg.Seq = tc.seq
	seq := msg.Seq
	tc.ECM.HandleServerMessage(msg)
	return tc.stepUntil(fmt.Sprintf("%v %s seq %d", msg.Type, msg.Plugin, seq), func() (bool, error) {
		return tc.link.takeAck(seq)
	})
}

// install installs a package through the ECM and waits for its ack.
func (tc *testCar) install(pkg plugin.Package, ecu core.ECUID, swc core.SWCID) error {
	msg, err := vehicle.InstallMessage(pkg, ecu, swc, 0)
	if err != nil {
		return err
	}
	return tc.send(msg)
}

// busTap accumulates what Bus.Tap shows: frames delivered, their time on
// the wire, and the first start / last end since the last reset.
type busTap struct {
	bus         *can.Bus
	frames      uint64
	busy        sim.Duration
	first, last sim.Time
	spans       func(start, end sim.Time) // traced runs: one span per frame
}

func tapBus(bus *can.Bus) *busTap {
	t := &busTap{bus: bus, first: -1}
	bus.Tap(func(f can.Frame, at sim.Time) {
		d := bus.FrameTime(f)
		t.frames++
		t.busy += d
		if t.first < 0 {
			t.first = at.Add(-d)
		}
		t.last = at
		if t.spans != nil {
			t.spans(at.Add(-d), at)
		}
	})
	return t
}

func (t *busTap) reset() { t.frames, t.busy, t.first, t.last = 0, 0, -1, 0 }

// runSignalChain is one repetition of signal_chain: phone commands enter
// at the ECM and each is run until the steering actuator holds its value.
func runSignalChain(rc *runCtx, tr *tracer) (_ *rep, err error) {
	rng := newRng(rc.seed)
	n := rc.scaled(signalMessages, 2000)
	r := &rep{vehicle: &vehicleRep{}, exact: map[string]float64{}}
	var opPkg plugin.Package
	tc, setup, err := timedSetup(carSetupRounds, func() (*testCar, error) {
		tc, err := newTestCar()
		if err != nil {
			return nil, err
		}
		if opPkg, err = vehicle.OPPackage(); err != nil {
			return nil, err
		}
		comPkg, err := vehicle.COMPackage()
		if err != nil {
			return nil, err
		}
		if err := tc.install(opPkg, vehicle.ECU2, vehicle.SWC2); err != nil {
			return nil, err
		}
		if err := tc.install(comPkg, vehicle.ECU1, vehicle.SWC1); err != nil {
			return nil, err
		}
		// Let the installation's own traffic finish before the first message.
		tc.eng.RunFor(500 * sim.Millisecond)
		return tc, nil
	}, (*testCar).close)
	if err != nil {
		return nil, err
	}
	defer tc.close()
	r.setup = setup
	// Commands are wheel angles inside the monitor's range, each
	// different from the one before so arrival is observable.
	vals := make([]int16, n)
	prev := int64(0)
	for i := range vals {
		v := int64(rng.Intn(601) - 300)
		if v == prev {
			v = -v
			if v == prev {
				v = 1
			}
		}
		vals[i], prev = int16(v), v
	}
	tap := tapBus(tc.Bus)

	op, _ := tc.SWC2PIRTE.Plugin("OP")
	act0, ins0, _ := op.Stats()
	loadStart := tc.Bus.Stats()
	simStart := tc.eng.Now()
	tc.events = 0
	tap.reset()
	if tr != nil {
		tap.spans = func(start, end sim.Time) { tr.virtualSpan("can", "frame", start, end) }
	}
	r.lat = make([]float64, 0, n/latencyEvery+1)
	phaseStart, cpuStart := time.Now(), cpuTime()
	for i, v := range vals {
		want := int64(v)
		sample := i%latencyEvery == 0
		var t0 time.Time
		if sample {
			t0 = time.Now()
		}
		v0 := tc.eng.Now()
		tc.ECM.HandleEndpointFrame(vehicle.PhoneEndpoint, "Wheels", want)
		for steps := 0; tc.Dynamics.WheelAngle() != want; steps++ {
			if steps >= maxEventsPerStep || !tc.eng.Step() {
				r.failed++
				r.errs = append(r.errs, fmt.Errorf("command %d (%d) never reached the actuator", i, want))
				break
			}
			tc.events++
		}
		if sample {
			r.lat = append(r.lat, us(time.Since(t0)))
		}
		r.vehicle.simTotal += sim.Duration(tc.eng.Now() - v0)
		if tr != nil {
			tr.virtualSpan("vehicle", "command", v0, tc.eng.Now())
		}
		r.attempted++
		if r.failed > 0 {
			return r, nil
		}
		r.ops++
	}
	r.endPhase(phaseStart, cpuStart)

	vr := r.vehicle
	vr.events, vr.busFrames, vr.busBusy = tc.events, tap.frames, tap.busy
	if span := sim.Duration(tc.eng.Now() - simStart); span > 0 {
		vr.busLoad = float64(tc.Bus.Stats().BusyTime-loadStart.BusyTime) / float64(span)
	}
	act1, ins1, faults := op.Stats()
	vr.activation, vr.instr = act1-act0, ins1-ins0
	if faults != 0 {
		return nil, fmt.Errorf("OP trapped %d times", faults)
	}
	_, vr.vportDrops, _ = tc.SWC2PIRTE.VirtualPortStats(4)
	vr.pirte, vr.pkg = tc.SWC2PIRTE, opPkg
	r.exact["vehicle.sim_us_per_msg"] = float64(vr.simTotal) / float64(n)
	r.exact["can.frames_per_msg"] = float64(vr.busFrames) / float64(n)
	r.exact["sim.events_per_op"] = float64(vr.events) / float64(n)
	r.exact["vm.instr_per_activation"] = float64(vr.instr) / float64(max(vr.activation, 1))
	return r, nil
}

// computeSrc sums 1..computeLoops in a VM loop, adds the message value
// and reduces the result into the type III port's 16-bit range, so the
// value on the SW-C port can be compared with the closed form.
var computeSrc = fmt.Sprintf(`
.plugin sum 1.0
.port n required
.port out provided
.globals 2
on_message n:
	PUSH %d
	STG 0
	PUSH 0
	STG 1
loop:
	LDG 0
	JZ done
	LDG 1
	LDG 0
	ADD
	STG 1
	LDG 0
	PUSH 1
	SUB
	STG 0
	JMP loop
done:
	LDG 1
	ARG
	ADD
	PUSH %d
	MOD
	PWR out
	RET
`, computeLoops, computeMod)

const computeMod = 20011

// optimizedPackage assembles src and runs it through the upload gate's
// certified optimizer, the form a plug-in reaches a vehicle in.
func optimizedPackage(src string, ctx core.Context) (plugin.Package, error) {
	prog, err := vm.Assemble(src)
	if err != nil {
		return plugin.Package{}, err
	}
	prog, _, err = verify.OptimizeProgram(prog)
	if err != nil {
		return plugin.Package{}, err
	}
	bin, err := plugin.FromProgram(prog, plugin.Manifest{Developer: "bench"})
	if err != nil {
		return plugin.Package{}, err
	}
	pkg := plugin.Package{Binary: bin, Context: ctx}
	return pkg, pkg.Validate()
}

// runPluginCompute is one repetition of plugin_compute: a standalone
// SW-C2 PIRTE, the sum-loop plug-in linked to the monitored type III
// port WheelsReq, and the bench as the SW-C port's reader.
func runPluginCompute(rc *runCtx, tr *tracer) (*rep, error) {
	rng := newRng(rc.seed)
	n := rc.scaled(computeMessages, 400)
	r := &rep{vehicle: &vehicleRep{}, exact: map[string]float64{}}
	var got int64
	var writes int
	var pkg plugin.Package
	type swc struct {
		eng *sim.Engine
		p   *pirte.PIRTE
	}
	st, setup, err := timedSetup(carSetupRounds, func() (swc, error) {
		eng := sim.NewEngine()
		p, err := pirte.New(eng, vehicle.SWC2Config())
		if err != nil {
			return swc{}, err
		}
		p.SetSWCWriter(func(port core.SWCPortID, data []byte) error {
			if port == 4 && len(data) >= 2 {
				got = int64(int16(uint16(data[0])<<8 | uint16(data[1])))
				writes++
			}
			return nil
		})
		if err := p.AddMonitor(4, &pirte.RangeMonitor{Min: 0, Max: computeMod}); err != nil {
			return swc{}, err
		}
		pkg, err = optimizedPackage(computeSrc, core.Context{
			PIC: core.PIC{{Name: "n", ID: 0}, {Name: "out", ID: 1}},
			PLC: core.PLC{{Kind: core.LinkNone, Plugin: 0}, {Kind: core.LinkVirtual, Plugin: 1, Virtual: 4}},
		})
		if err != nil {
			return swc{}, err
		}
		return swc{eng, p}, p.Install(pkg)
	}, func(swc) error { return nil })
	if err != nil {
		return nil, err
	}
	r.setup = setup
	eng, p := st.eng, st.p
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(rng.Intn(10000))
	}

	const closedForm = computeLoops * (computeLoops + 1) / 2
	r.lat = make([]float64, 0, n/latencyEvery+1)
	phaseStart, cpuStart := time.Now(), cpuTime()
	for i, v := range vals {
		sample := i%latencyEvery == 0
		var t0 time.Time
		if sample {
			t0 = time.Now()
		}
		before := writes
		if err := p.DeliverToPlugin(0, int64(v)); err != nil {
			return nil, fmt.Errorf("activation %d: %w", i, err)
		}
		if sample {
			r.lat = append(r.lat, us(time.Since(t0)))
		}
		r.attempted++
		if want := (closedForm + int64(v)) % computeMod; writes != before+1 || got != want {
			r.failed++
			r.errs = append(r.errs, fmt.Errorf("activation %d (%d): port holds %d after %d writes, want %d", i, v, got, writes-before, want))
			return r, nil
		}
		r.ops++
	}
	r.endPhase(phaseStart, cpuStart)
	if tr != nil {
		tr.virtualSpan("pirte", "activations", 0, eng.Now())
	}

	ip, _ := p.Plugin("sum")
	vr := r.vehicle
	var faults uint64
	vr.activation, vr.instr, faults = ip.Stats()
	if faults != 0 {
		return nil, fmt.Errorf("sum trapped %d times", faults)
	}
	_, vr.vportDrops, _ = p.VirtualPortStats(4)
	vr.pirte, vr.pkg = p, pkg
	r.exact["vm.instr_per_activation"] = float64(vr.instr) / float64(max(vr.activation, 1))
	return r, nil
}

// lifecycleSrc is the counter plug-in of the lifecycle workload: every
// poke increments its one global and reports it, times `gain`. The
// padding constants carry the seed's bytes and make the package the
// size of a real plug-in on the wire.
func lifecycleSrc(version string, gain int, pad []string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ".plugin Counter %s\n.port Poke required\n.port Report provided\n.globals 1\n", version)
	for i, c := range pad {
		fmt.Fprintf(&sb, ".const pad%d %q\n", i, c)
	}
	fmt.Fprintf(&sb, "on_message Poke:\n\tLDG 0\n\tPUSH 1\n\tADD\n\tSTG 0\n\tLDG 0\n\tPUSH %d\n\tMUL\n\tPWR Report\n\tRET\n", gain)
	return sb.String()
}

const (
	lifecyclePoke   core.PluginPortID = 10
	lifecycleReport core.PluginPortID = 11
	lifecycleGainV2                   = 100
)

// lifecycleCtx leaves both ports unlinked, so the report is readable
// through DirectRead.
var lifecycleCtx = core.Context{
	PIC: core.PIC{{Name: "Poke", ID: lifecyclePoke}, {Name: "Report", ID: lifecycleReport}},
	PLC: core.PLC{{Kind: core.LinkNone, Plugin: lifecyclePoke}, {Kind: core.LinkNone, Plugin: lifecycleReport}},
}

// lifecyclePackages builds the two versions with seed-drawn padding.
func lifecyclePackages(rng *rand.Rand) (v1, v2 plugin.Package, err error) {
	const chunk = 250
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	var pad []string
	for n := 0; n < lifecyclePadBytes; n += chunk {
		b := make([]byte, chunk)
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		pad = append(pad, string(b))
	}
	if v1, err = optimizedPackage(lifecycleSrc("1.0", 1, pad), lifecycleCtx); err != nil {
		return v1, v2, err
	}
	v2, err = optimizedPackage(lifecycleSrc("2.0", lifecycleGainV2, pad), lifecycleCtx)
	return v1, v2, err
}

// runVehicleLifecycle is one repetition of vehicle_lifecycle on one
// model car: install on ECU2 through the ECM → traffic → live upgrade
// with traffic inside the quiesce window → probe commit → uninstall.
func runVehicleLifecycle(rc *runCtx, tr *tracer) (_ *rep, err error) {
	rng := newRng(rc.seed)
	cycles := rc.scaled(lifecycleCycles, 100)
	r := &rep{vehicle: &vehicleRep{}, exact: map[string]float64{}}
	// Set-up is the car (two ECUs on a bus, the ECM connected) and the
	// plug-in pair assembled, optimised and packaged with the seed's
	// padding, as an upload would.
	var v1 plugin.Package
	var raw1, raw2 []byte
	tc, setup, err := timedSetup(carSetupRounds, func() (*testCar, error) {
		tc, err := newTestCar()
		if err != nil {
			return nil, err
		}
		var v2 plugin.Package
		if v1, v2, err = lifecyclePackages(rng); err != nil {
			return nil, err
		}
		if raw1, err = v1.MarshalBinary(); err != nil {
			return nil, err
		}
		if raw2, err = v2.MarshalBinary(); err != nil {
			return nil, err
		}
		tc.eng.RunFor(100 * sim.Millisecond)
		return tc, nil
	}, (*testCar).close)
	if err != nil {
		return nil, err
	}
	defer tc.close()
	r.setup = setup
	tap := tapBus(tc.Bus)

	p2 := tc.SWC2PIRTE
	vr := r.vehicle
	const name core.PluginName = "Counter"
	target := core.Message{Plugin: name, ECU: vehicle.ECU2, SWC: vehicle.SWC2}
	poke := func(n int) error {
		for i := 0; i < n; i++ {
			if err := p2.DeliverToPlugin(lifecyclePoke, 1); err != nil {
				return err
			}
		}
		return nil
	}
	report := func(want int64, when string) error {
		// Queued activations run as simulation events.
		return tc.stepUntil(when, func() (bool, error) {
			v, ok := p2.DirectRead(lifecycleReport)
			return ok && v == want, nil
		})
	}
	tc.events = 0
	loadStart, simStart := tc.Bus.Stats(), tc.eng.Now()
	phaseStart, cpuStart := time.Now(), cpuTime()
	for c := 0; c < cycles; c++ {
		r.attempted++
		t0 := time.Now()
		fail := func(err error) (*rep, error) {
			r.failed++
			r.errs = append(r.errs, fmt.Errorf("cycle %d: %w", c, err))
			return r, nil
		}

		tap.reset()
		v0 := tc.eng.Now()
		install := target
		install.Type, install.Payload = core.MsgInstall, raw1
		if err := tc.send(install); err != nil {
			return fail(err)
		}
		vr.installSim += sim.Duration(tc.eng.Now() - v0)
		vr.installHost += time.Since(t0)
		vr.installTP += tap.busy
		vr.tpFrames += tap.frames
		vr.installCount++
		if tr != nil {
			tr.virtualSpan("ecm", "install", v0, tc.eng.Now())
			tr.virtualSpan("com", "transfer", tap.first, tap.last)
		}

		if err := poke(lifecycleMessages); err != nil {
			return fail(err)
		}
		if err := report(lifecycleMessages, "count after install"); err != nil {
			return fail(err)
		}

		upgrade := target
		upgrade.Type, upgrade.Payload = core.MsgUpgrade, raw2
		tc.seq++
		upgrade.Seq = tc.seq
		u0 := tc.eng.Now()
		tc.ECM.HandleServerMessage(upgrade)
		if err := tc.stepUntil("upgrade reaching the quiesce window", func() (bool, error) {
			return p2.Upgrading(name), nil
		}); err != nil {
			return fail(err)
		}
		if err := poke(lifecycleMessages); err != nil {
			return fail(err)
		}
		if err := tc.stepUntil("upgrade ack", func() (bool, error) { return tc.link.takeAck(upgrade.Seq) }); err != nil {
			return fail(err)
		}
		if tr != nil {
			tr.virtualSpan("ecm", "upgrade", u0, tc.eng.Now())
		}
		// The counter crossed the swap: 64 before, 64 replayed after,
		// reported with the new version's gain.
		if err := report(2*lifecycleMessages*lifecycleGainV2, "count after upgrade"); err != nil {
			return fail(err)
		}
		if ip, ok := p2.Plugin(name); !ok || ip.Pkg.Binary.Manifest.Version != "2.0" {
			return fail(errors.New("plug-in is not at 2.0 after the upgrade"))
		}

		uninstall := target
		uninstall.Type = core.MsgUninstall
		if err := tc.send(uninstall); err != nil {
			return fail(err)
		}
		if _, ok := p2.Plugin(name); ok {
			return fail(errors.New("plug-in still installed after the uninstall ack"))
		}
		r.lat = append(r.lat, us(time.Since(t0)))
		r.ops++
	}
	r.endPhase(phaseStart, cpuStart)

	vr.events = tc.events
	vr.simTotal = sim.Duration(tc.eng.Now() - simStart)
	vr.busLoad = float64(tc.Bus.Stats().BusyTime-loadStart.BusyTime) / float64(max(vr.simTotal, 1))
	if p2.UpgradeRollbacks != 0 || p2.Upgrades != uint64(cycles) {
		return nil, fmt.Errorf("%d upgrades committed and %d rolled back in %d cycles", p2.Upgrades, p2.UpgradeRollbacks, cycles)
	}
	vr.pirte, vr.pkg = p2, v1
	r.exact["vehicle.sim_ms_per_install"] = float64(vr.installSim) / float64(vr.installCount) / 1000
	r.exact["com.tp_frames_per_install"] = float64(vr.tpFrames) / float64(vr.installCount)
	r.exact["sim.events_per_op"] = float64(vr.events) / float64(cycles)
	return r, nil
}
