package server

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/plugin"
	"dynautosar/internal/vehicle"
	"dynautosar/internal/vm"
)

// pairApp builds a two-plug-in app (P1, P2, no links) with both plug-ins
// on ECU2/SW-C2, so every kind — restore of ECU2 included — puts two
// frames on the wire.
func pairApp(t *testing.T, name core.AppName) App {
	t.Helper()
	app := App{Name: name, Confs: []SWConf{{Model: "modelcar-v1"}}}
	for _, p := range []core.PluginName{"P1", "P2"} {
		prog, err := vm.Assemble(fmt.Sprintf(".plugin %s 1.0\n.port in required\non_message in:\n\tRET\n", p))
		if err != nil {
			t.Fatal(err)
		}
		bin, err := plugin.FromProgram(prog, plugin.Manifest{})
		if err != nil {
			t.Fatal(err)
		}
		app.Binaries = append(app.Binaries, bin)
		app.Confs[0].Deployments = append(app.Confs[0].Deployments,
			Deployment{Plugin: p, ECU: vehicle.ECU2, SWC: vehicle.SWC2})
	}
	return app
}

// opCode settles the result of an entry point into one error code: the
// synchronous rejection's, or the terminal operation's ("" when it
// succeeded or failed on nacks alone).
func opCode(t *testing.T, c *api.Client, op api.Operation, err error) (api.Operation, api.ErrorCode) {
	t.Helper()
	if err != nil {
		return op, api.CodeOf(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := c.WaitOperation(ctx, op.ID, 0)
	if err != nil {
		t.Fatalf("operation %s never settled: %v", op.ID, err)
	}
	if final.Error != nil {
		return final, final.Error.Code
	}
	return final, ""
}

// rowSummary renders a vehicle's installed rows as "app:acked/total".
func rowSummary(s *Server, vin core.VehicleID) []string {
	var out []string
	for _, row := range s.Store().InstalledApps(vin) {
		acked := 0
		for _, p := range row.Plugins {
			if p.Acked {
				acked++
			}
		}
		out = append(out, fmt.Sprintf("%s:%d/%d", row.App, acked, len(row.Plugins)))
	}
	sort.Strings(out)
	return out
}

// TestVerifiedIsPushed: the steps POST /v1/verify reports are, in
// order, the frames the live operation then puts on the wire — the
// verified plan is the executed plan.
func TestVerifiedIsPushed(t *testing.T) {
	const vin = "VIN-VP"
	s := newServerWithVehicle(t, vin)
	for _, app := range []App{paperApp(t), paperAppNamed(t, "RemoteControl-v2")} {
		if err := s.Store().UploadApp(app); err != nil {
			t.Fatal(err)
		}
	}
	v := connectScriptedVehicle(t, s, vin, ackAll)
	c := newV1Client(t, s)
	ctx := context.Background()

	cases := []struct {
		verify api.VerifyRequest
		start  func() (api.Operation, error)
	}{
		{api.VerifyRequest{Kind: api.OpDeploy, App: "RemoteControl"}, func() (api.Operation, error) {
			return c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: vin, App: "RemoteControl"})
		}},
		{api.VerifyRequest{Kind: api.OpUpgrade, App: "RemoteControl", To: "RemoteControl-v2"}, func() (api.Operation, error) {
			return c.Upgrade(ctx, api.UpgradeRequest{User: "alice", Vehicle: vin, From: "RemoteControl", To: "RemoteControl-v2"})
		}},
		{api.VerifyRequest{Kind: api.OpRestore, ECU: vehicle.ECU2}, func() (api.Operation, error) {
			return c.Restore(ctx, api.RestoreRequest{User: "alice", Vehicle: vin, ECU: vehicle.ECU2})
		}},
		{api.VerifyRequest{Kind: api.OpUninstall, App: "RemoteControl-v2"}, func() (api.Operation, error) {
			return c.Uninstall(ctx, api.UninstallRequest{User: "alice", Vehicle: vin, App: "RemoteControl-v2"})
		}},
	}
	for _, tc := range cases {
		tc.verify.User, tc.verify.Vehicle = "alice", vin
		report, err := c.Verify(ctx, tc.verify)
		if err != nil || !report.OK {
			t.Fatalf("verify %s = %+v, %v", tc.verify.Kind, report, err)
		}
		mark := len(v.messages())
		op, err := tc.start()
		if final, code := opCode(t, c, op, err); final.State != api.StateSucceeded {
			t.Fatalf("%s = %+v (%s)", tc.verify.Kind, final, code)
		}
		var wire []string
		for _, m := range v.messages()[mark:] {
			switch m.Type {
			case core.MsgInstall:
				wire = append(wire, fmt.Sprintf("install %s on %s/%s", m.Plugin, m.ECU, m.SWC))
			case core.MsgUninstall:
				wire = append(wire, fmt.Sprintf("remove %s from %s/%s", m.Plugin, m.ECU, m.SWC))
			case core.MsgUpgrade:
				wire = append(wire, fmt.Sprintf("swap %s", m.Plugin))
			}
		}
		if len(wire) == 0 || !slices.Equal(wire, report.Steps) {
			t.Errorf("%s: verified %v, pushed %v", tc.verify.Kind, report.Steps, wire)
		}
	}
}

// TestKindMatrix runs every operation kind through the same five
// faults and checks what the one engine promises for all of them: the
// terminal state and code, the rows left behind, and that the claim
// table and the pending-push table are empty afterwards.
func TestKindMatrix(t *testing.T) {
	const vin = "VIN-KM"
	ctx := context.Background()
	type kindRow struct {
		name string
		// installed: the kind acts on an installed Pair app.
		installed bool
		start     func(c *api.Client) (api.Operation, error)
		// other is a different kind aimed at the same app.
		other func(c *api.Client) (api.Operation, error)
		// Rows left by: a refused second push, a nack of the first frame,
		// both frames lost with the link, success.
		pushFailRows, nackRows, lostRows, doneRows []string
		// nackCode/lostCode: the terminal code when the vehicle nacks
		// ("rollback: …") or the link drops; kinds that settle ack by ack
		// fail on the recorded failures alone ("").
		nackCode, lostCode api.ErrorCode
	}
	uninstall := func(c *api.Client) (api.Operation, error) {
		return c.Uninstall(ctx, api.UninstallRequest{User: "alice", Vehicle: vin, App: "Pair"})
	}
	upgrade := func(c *api.Client) (api.Operation, error) {
		return c.Upgrade(ctx, api.UpgradeRequest{User: "alice", Vehicle: vin, From: "Pair", To: "Pair-v2"})
	}
	kindRows := []kindRow{
		{
			name: "deploy",
			start: func(c *api.Client) (api.Operation, error) {
				return c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: vin, App: "Pair"})
			},
			other:        uninstall,
			pushFailRows: nil, nackRows: []string{"Pair:1/2"}, lostRows: []string{"Pair:0/2"}, doneRows: []string{"Pair:2/2"},
		},
		{
			name: "uninstall", installed: true, start: uninstall, other: upgrade,
			pushFailRows: []string{"Pair:2/2"}, nackRows: []string{"Pair:1/1"}, lostRows: []string{"Pair:2/2"}, doneRows: nil,
		},
		{
			name: "upgrade", installed: true, start: upgrade, other: uninstall,
			pushFailRows: []string{"Pair:2/2"}, nackRows: []string{"Pair:2/2"}, lostRows: []string{"Pair:2/2"}, doneRows: []string{"Pair-v2:2/2"},
			nackCode: api.CodeRolledBack, lostCode: api.CodeUnavailable,
		},
		{
			name: "restore", installed: true,
			start: func(c *api.Client) (api.Operation, error) {
				return c.Restore(ctx, api.RestoreRequest{User: "alice", Vehicle: vin, ECU: vehicle.ECU2})
			},
			other:        uninstall,
			pushFailRows: []string{"Pair:2/2"}, nackRows: []string{"Pair:2/2"}, lostRows: []string{"Pair:2/2"}, doneRows: []string{"Pair:2/2"},
		},
	}
	faults := []string{"push fails mid-plan", "nack", "link drops before ack", "concurrent duplicate", "concurrent other kind"}

	for _, k := range kindRows {
		for _, fault := range faults {
			t.Run(k.name+"/"+fault, func(t *testing.T) {
				s := newServerWithVehicle(t, vin)
				t.Cleanup(func() { s.Close() })
				for _, name := range []core.AppName{"Pair", "Pair-v2"} {
					if err := s.Store().UploadApp(pairApp(t, name)); err != nil {
						t.Fatal(err)
					}
				}
				// armed switches the vehicle from acknowledging everything
				// (set-up) to the fault, which acts on the first frame of
				// the operation under test.
				var (
					mu     sync.Mutex
					armed  bool
					frames int
					gate   = make(chan struct{})
					v      *upgradeVehicle
				)
				script := func(_ int, msg core.Message) *core.Message {
					mu.Lock()
					nth, link := 0, v
					if armed {
						frames++
						nth = frames
					}
					mu.Unlock()
					reply := msg.Ack()
					switch {
					case nth == 0: // set-up traffic
					case fault == "link drops before ack":
						return nil
					case nth > 1: // only the first frame is faulted
					case fault == "push fails mid-plan":
						link.conn.Close()
						return nil
					case fault == "nack":
						reply = msg.Nack("rollback: probe fault")
					default:
						<-gate
					}
					return &reply
				}
				mu.Lock()
				v = connectScriptedVehicle(t, s, vin, script)
				mu.Unlock()
				c := api.NewLocalClient(NewService(s))
				if k.installed {
					op, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: vin, App: "Pair"})
					if final, code := opCode(t, c, op, err); final.State != api.StateSucceeded {
						t.Fatalf("set-up deploy = %+v (%s)", final, code)
					}
				}
				mu.Lock()
				armed = true
				mu.Unlock()
				seen := func(n int) func() bool {
					return func() bool { mu.Lock(); defer mu.Unlock(); return frames >= n }
				}

				op, err := k.start(c)
				if err != nil {
					t.Fatal(err)
				}
				wantState, wantCode, wantRows := api.StateFailed, api.ErrorCode(""), k.doneRows
				switch fault {
				case "push fails mid-plan":
					wantCode, wantRows = api.CodeUnavailable, k.pushFailRows
				case "nack":
					wantCode, wantRows = k.nackCode, k.nackRows
				case "link drops before ack":
					waitFor(t, seen(2))
					v.conn.Close()
					wantCode, wantRows = k.lostCode, k.lostRows
				default:
					// The first frame is held on the vehicle, so the operation
					// is mid-launch and owns its claim: a duplicate and a
					// different kind on the same app both get the one
					// claim-conflict answer, and push nothing.
					waitFor(t, seen(1))
					second := k.start
					if fault == "concurrent other kind" {
						second = k.other
					}
					sop, serr := second(c)
					if _, code := opCode(t, c, sop, serr); code != api.CodeAlreadyExists {
						t.Errorf("second operation: code %q, want %q", code, api.CodeAlreadyExists)
					}
					close(gate)
					wantState = api.StateSucceeded
				}
				final, code := opCode(t, c, op, nil)
				if final.State != wantState || code != wantCode {
					t.Errorf("final = %+v, want state %s code %q", final, wantState, wantCode)
				}
				waitFor(t, func() bool {
					s.mu.Lock()
					defer s.mu.Unlock()
					return len(s.claims) == 0 && len(s.pending) == 0
				})
				if got := rowSummary(s, vin); !slices.Equal(got, wantRows) {
					t.Errorf("rows = %v, want %v", got, wantRows)
				}
				if mu.Lock(); wantState == api.StateSucceeded && frames != 2 {
					t.Errorf("%d frames on the wire, want the operation's own 2", frames)
				}
				mu.Unlock()
			})
		}
	}
}

// TestRestoreRefusedDuringOpenUpgrade: a restore issued while an upgrade
// of an app with a plug-in on that ECU is open must not push old-version
// install frames into a plug-in that is mid-swap.
func TestRestoreRefusedDuringOpenUpgrade(t *testing.T) {
	const vin = "VIN-RU"
	s := newServerWithVehicle(t, vin)
	t.Cleanup(func() { s.Close() })
	uploadCounterPair(t, s)
	release := make(chan struct{})
	swapping := make(chan struct{})
	v := connectScriptedVehicle(t, s, vin, func(_ int, msg core.Message) *core.Message {
		if msg.Type == core.MsgUpgrade {
			close(swapping)
			<-release
		}
		r := msg.Ack()
		return &r
	})
	c := api.NewLocalClient(NewService(s))
	ctx := context.Background()
	deployCounterV1(t, s, vin, c)
	mark := len(v.messages())

	uop, err := c.Upgrade(ctx, api.UpgradeRequest{User: "alice", Vehicle: vin, From: "Counter-v1", To: "Counter-v2"})
	if err != nil {
		t.Fatal(err)
	}
	<-swapping
	rop, err := c.Restore(ctx, api.RestoreRequest{User: "alice", Vehicle: vin, ECU: vehicle.ECU2})
	if final, code := opCode(t, c, rop, err); code != api.CodeAlreadyExists {
		t.Errorf("restore during the open upgrade = %+v, code %q, want %q", final, code, api.CodeAlreadyExists)
	}
	close(release)
	if final, code := opCode(t, c, uop, nil); final.State != api.StateSucceeded {
		t.Fatalf("upgrade = %+v (%s)", final, code)
	}
	for _, m := range v.messages()[mark:] {
		if m.Type == core.MsgInstall {
			t.Errorf("vehicle saw %v of %s during the upgrade", m.Type, m.Plugin)
		}
	}
}

// TestRestoreRepairsSurvivorDependency: a plug-in on a surviving ECU
// that requires one on the replaced ECU does not make the restore path
// unsafe, whichever plug-in is re-installed first — the dependency is
// broken before the restore starts and whole again when it ends.
func TestRestoreRepairsSurvivorDependency(t *testing.T) {
	const vin = "VIN-SR"
	s := newServerWithVehicle(t, vin)
	app := App{Name: "Trio", Confs: []SWConf{{Model: "modelcar-v1"}}}
	for _, p := range []struct {
		name core.PluginName
		ecu  core.ECUID
		swc  core.SWCID
		req  []core.PluginName
	}{{"C", vehicle.ECU2, vehicle.SWC2, nil}, {"B", vehicle.ECU2, vehicle.SWC2, nil}, {"A", vehicle.ECU1, vehicle.SWC1, []core.PluginName{"B"}}} {
		prog, err := vm.Assemble(fmt.Sprintf(".plugin %s 1.0\n.port in required\non_message in:\n\tRET\n", p.name))
		if err != nil {
			t.Fatal(err)
		}
		bin, err := plugin.FromProgram(prog, plugin.Manifest{Requires: p.req})
		if err != nil {
			t.Fatal(err)
		}
		app.Binaries = append(app.Binaries, bin)
		app.Confs[0].Deployments = append(app.Confs[0].Deployments, Deployment{Plugin: p.name, ECU: p.ecu, SWC: p.swc})
	}
	if err := s.Store().UploadApp(app); err != nil {
		t.Fatal(err)
	}
	connectScriptedVehicle(t, s, vin, ackAll)
	c := api.NewLocalClient(NewService(s))
	op, err := s.Deploy(api.DeployRequest{User: "alice", Vehicle: vin, App: "Trio"})
	if final, code := opCode(t, c, op, err); final.State != api.StateSucceeded {
		t.Fatalf("deploy = %+v (%s)", final, code)
	}
	op, err = s.Restore(api.RestoreRequest{User: "alice", Vehicle: vin, ECU: vehicle.ECU2})
	if final, code := opCode(t, c, op, err); final.State != api.StateSucceeded {
		t.Fatalf("restore = %+v (%s)", final, code)
	}
}

// TestRestoreUnknownECU: an ECU the vehicle does not have is refused at
// POST time instead of "succeeding" with nothing restored.
func TestRestoreUnknownECU(t *testing.T) {
	s := newServerWithVehicle(t, "VIN-NE")
	_, err := s.Restore(api.RestoreRequest{User: "alice", Vehicle: "VIN-NE", ECU: "ECU9"})
	wantCode(t, err, api.CodeNotFound)
	if ids := s.OperationIDs(); len(ids) != 0 {
		t.Fatalf("refused restore created operations %v", ids)
	}
}

// TestCloseStopsFleetRollback: Close during a fleet rollback whose
// vehicle is permanently disconnected does not leave the retry loop
// running against the closed server.
func TestCloseStopsFleetRollback(t *testing.T) {
	baseline := runtime.NumGoroutine()
	fleet := bucketFleet([]core.VehicleID{"VIN-CR-A", "VIN-CR-B"})
	canary, second := fleet[0], fleet[1]
	s := newServerWithFleet(t, fleet)
	uploadCounterPair(t, s)
	cv := connectScriptedVehicle(t, s, canary, ackAll)
	connectScriptedVehicle(t, s, second, func(_ int, msg core.Message) *core.Message {
		r := msg.Ack()
		if msg.Type == core.MsgUpgrade {
			// The canary is upgraded and promoted; it vanishes for good,
			// then this wave trips the gate: the rollback has a downgrade
			// it can never push.
			cv.conn.Close()
			for deadline := time.Now().Add(5 * time.Second); s.Pusher().Connected(canary); {
				if time.Now().After(deadline) {
					t.Error("canary link never dropped")
					break
				}
				time.Sleep(time.Millisecond)
			}
			r = msg.Nack("rollback: injected probe failure")
		}
		return &r
	})
	c := api.NewLocalClient(NewService(s))
	ctx := context.Background()
	deployCounterFleet(t, s, c, fleet)
	st, err := c.StartRollout(ctx, api.RolloutRequest{
		User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v2",
		Waves: []api.RolloutWave{{Count: 1}, {Fraction: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		got, _ := s.Rollout(st.ID)
		return got.State == api.RolloutRollingBack
	})
	s.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after Close, %d before the test", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEvictionKeepsClaimHolder: an operation that went terminal with a
// frame still unsettled (an upgrade whose connected vehicle stays
// silent) keeps its claim until that frame settles, and must survive
// registry eviction until then — only its record can release the claim,
// so evicting it would refuse the (vehicle, app) pair forever.
func TestEvictionKeepsClaimHolder(t *testing.T) {
	oldRetention, oldTimeout := opRetention, upgradeAckTimeout
	opRetention, upgradeAckTimeout = 4, 50*time.Millisecond
	// A cleanup registered before the server's: it runs after Close has
	// waited for the pipelines that read the timeout.
	t.Cleanup(func() { opRetention, upgradeAckTimeout = oldRetention, oldTimeout })
	const vin, offline = "VIN-EV", "VIN-EV-OFF"
	s := newServerWithFleet(t, []core.VehicleID{vin, offline})
	uploadCounterPair(t, s)
	v := connectScriptedVehicle(t, s, vin, func(_ int, msg core.Message) *core.Message {
		if msg.Type != core.MsgInstall {
			return nil // connected, but silent to every swap
		}
		r := msg.Ack()
		return &r
	})
	c := api.NewLocalClient(NewService(s))
	ctx := context.Background()
	deployCounterV1(t, s, vin, c)

	op, err := c.Upgrade(ctx, api.UpgradeRequest{User: "alice", Vehicle: vin, From: "Counter-v1", To: "Counter-v2"})
	if final, code := opCode(t, c, op, err); final.State != api.StateFailed || code != api.CodeUnavailable {
		t.Fatalf("upgrade of the silent vehicle = %+v (%s)", final, code)
	}
	// Push the registry well past its retention with operations that
	// fail at launch (their vehicle never connected).
	for i := 0; i < 3*opRetention; i++ {
		dop, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: offline, App: "Counter-v1"})
		if _, code := opCode(t, c, dop, err); code != api.CodeUnavailable {
			t.Fatalf("deploy to the offline vehicle: code %q", code)
		}
	}
	if _, ok := s.Operation(op.ID); !ok {
		t.Errorf("%s evicted while its swap frame is unsettled", op.ID)
	}
	if err := s.claimedByOther("", vin, "Counter-v1"); api.CodeOf(err) != api.CodeAlreadyExists {
		t.Errorf("claim on Counter-v1 while the frame is unsettled: %v", err)
	}
	v.conn.Close()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.claims) == 0 && len(s.pending) == 0
	})
}

// TestRolloutHealthWindowExcludesInflightWait: a wave child's latency
// sample is the upgrade itself — not the time it queued for one of the
// batch's inflight slots, which would let a large healthy wave trip the
// ack-p99 gate.
func TestRolloutHealthWindowExcludesInflightWait(t *testing.T) {
	oldInflight := batchInflight
	batchInflight = 1
	t.Cleanup(func() { batchInflight = oldInflight })
	const ackDelay = 100 * time.Millisecond
	fleet := []core.VehicleID{"VIN-HW1", "VIN-HW2", "VIN-HW3"}
	s := newServerWithFleet(t, fleet)
	uploadCounterPair(t, s)
	for _, id := range fleet {
		connectScriptedVehicle(t, s, id, func(_ int, msg core.Message) *core.Message {
			if msg.Type == core.MsgUpgrade {
				time.Sleep(ackDelay)
			}
			r := msg.Ack()
			return &r
		})
	}
	c := api.NewLocalClient(NewService(s))
	deployCounterFleet(t, s, c, fleet)
	// One slot: the three upgrades run one after another, so the last
	// child queues for two ack delays before its own begins.
	ws := s.runRolloutWave("ro-none", 0, "alice", "Counter-v1", "Counter-v2", fleet)
	if ws.Succeeded != len(fleet) {
		t.Fatalf("wave = %+v", ws)
	}
	if limit := float64(2 * ackDelay / time.Millisecond); ws.AckP99Millis >= limit {
		t.Errorf("ack p99 = %.0f ms for %v upgrades: the wait for an inflight slot was counted", ws.AckP99Millis, ackDelay)
	}
}
