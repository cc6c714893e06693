package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/plugin"
	"dynautosar/internal/vehicle"
	"dynautosar/internal/vm"
)

// connectAckVehicle attaches a fake vehicle that identifies itself and
// acknowledges every install/uninstall push instantly — the server-side
// stand-in for a healthy fleet member (no full model car needed).
func connectAckVehicle(t *testing.T, s *Server, id core.VehicleID) (closeConn func()) {
	t.Helper()
	vehicleSide, serverSide := net.Pipe()
	go s.Pusher().ServeConn(serverSide)
	if err := core.WriteMessage(vehicleSide, core.Message{Type: core.MsgHello, Payload: []byte(id)}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			msg, err := core.ReadMessage(vehicleSide)
			if err != nil {
				return
			}
			if msg.Type == core.MsgInstall || msg.Type == core.MsgUninstall || msg.Type == core.MsgUpgrade {
				if core.WriteMessage(vehicleSide, core.Message{Type: core.MsgAck, Seq: msg.Seq}) != nil {
					return
				}
			}
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for !s.Pusher().Connected(id) {
		if time.Now().After(deadline) {
			t.Fatal("ack vehicle never registered")
		}
		time.Sleep(time.Millisecond)
	}
	return func() { vehicleSide.Close() }
}

// newBatchFleet builds a server with alice owning n model cars named
// VIN-B-000..; connect marks which of them get a live acking link.
func newBatchFleet(t *testing.T, n int, connect bool) (*Server, []core.VehicleID) {
	t.Helper()
	s := New()
	if err := s.Store().AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().UploadApp(paperApp(t)); err != nil {
		t.Fatal(err)
	}
	ids := make([]core.VehicleID, n)
	for i := range ids {
		ids[i] = core.VehicleID(fmt.Sprintf("VIN-B-%03d", i))
		if err := s.Store().BindVehicle("alice", modelCarConf(ids[i])); err != nil {
			t.Fatal(err)
		}
		if connect {
			t.Cleanup(connectAckVehicle(t, s, ids[i]))
		}
	}
	return s, ids
}

// TestBatchDeployFleet64 is the acceptance scenario: one batch over 64
// simulated vehicles through the HTTP wire, one parent operation whose
// children report per-vehicle success.
func TestBatchDeployFleet64(t *testing.T) {
	s, ids := newBatchFleet(t, 64, true)
	c := newV1Client(t, s)
	ctx := context.Background()

	op, err := c.BatchDeploy(ctx, api.BatchDeployRequest{
		User: "alice", Selector: &api.FleetSelector{Model: "modelcar-v1"}, App: "RemoteControl",
	})
	if err != nil {
		t.Fatal(err)
	}
	if op.Kind != api.OpBatchDeploy || len(op.Vehicles) != 64 || len(op.Children) != 64 || op.Done {
		t.Fatalf("parent at launch = %+v", op)
	}
	final, err := c.WaitOperation(ctx, op.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateSucceeded || final.VehiclesSucceeded != 64 || final.VehiclesFailed != 0 {
		t.Fatalf("parent final = %+v", final)
	}
	// Two plug-ins per vehicle, all acknowledged, aggregated on the parent.
	if final.Total != 128 || final.Acked != 128 || len(final.Failures) != 0 {
		t.Fatalf("parent aggregate = total %d acked %d failures %v", final.Total, final.Acked, final.Failures)
	}
	// Every child is terminal, successful and points back at the parent.
	for i, cid := range final.Children {
		child, err := c.GetOperation(ctx, cid)
		if err != nil {
			t.Fatal(err)
		}
		if child.State != api.StateSucceeded || child.Parent != op.ID || child.Vehicle != final.Vehicles[i] {
			t.Fatalf("child %s = %+v", cid, child)
		}
	}
	for _, id := range ids {
		row, ok := s.Store().InstalledApp(id, "RemoteControl")
		if !ok || !row.Complete() {
			t.Fatalf("vehicle %s: row %+v ok=%v", id, row, ok)
		}
	}
}

// TestBatchUninstallFleet round-trips a deploy + uninstall batch over
// explicit vehicle ids.
func TestBatchUninstallFleet(t *testing.T) {
	s, ids := newBatchFleet(t, 8, true)
	c := newV1Client(t, s)
	ctx := context.Background()

	dop, err := c.BatchDeploy(ctx, api.BatchDeployRequest{User: "alice", Vehicles: ids, App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.WaitOperation(ctx, dop.ID, 0); err != nil || final.State != api.StateSucceeded {
		t.Fatalf("batch deploy = %+v, %v", final, err)
	}
	uop, err := c.BatchUninstall(ctx, api.BatchUninstallRequest{User: "alice", Vehicles: ids, App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitOperation(ctx, uop.ID, 0)
	if err != nil || final.State != api.StateSucceeded || final.VehiclesSucceeded != 8 {
		t.Fatalf("batch uninstall = %+v, %v", final, err)
	}
	for _, id := range ids {
		if _, ok := s.Store().InstalledApp(id, "RemoteControl"); ok {
			t.Fatalf("vehicle %s: row survived batch uninstall", id)
		}
	}
}

// TestBatchDeployPartialFailure mixes healthy, offline and foreign
// vehicles in one explicit list: the healthy ones succeed, the rest
// fail individually, and the parent reports the split.
func TestBatchDeployPartialFailure(t *testing.T) {
	s, ids := newBatchFleet(t, 3, true) // three healthy, connected
	// A bound but offline vehicle.
	if err := s.Store().BindVehicle("alice", modelCarConf("VIN-OFF")); err != nil {
		t.Fatal(err)
	}
	// A vehicle owned by somebody else.
	if err := s.Store().AddUser("bob"); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().BindVehicle("bob", modelCarConf("VIN-BOB")); err != nil {
		t.Fatal(err)
	}
	c := newV1Client(t, s)
	ctx := context.Background()

	targets := append(append([]core.VehicleID(nil), ids...), "VIN-OFF", "VIN-BOB", "VIN-GHOST")
	op, err := c.BatchDeploy(ctx, api.BatchDeployRequest{User: "alice", Vehicles: targets, App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitOperation(ctx, op.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateFailed || final.VehiclesSucceeded != 3 || final.VehiclesFailed != 3 {
		t.Fatalf("parent final = %+v", final)
	}
	// The partial-failure report names each broken vehicle.
	wantCodes := map[core.VehicleID]api.ErrorCode{
		"VIN-OFF":   api.CodeUnavailable,
		"VIN-BOB":   api.CodePermissionDenied,
		"VIN-GHOST": api.CodeNotFound,
	}
	for i, cid := range final.Children {
		child, err := c.GetOperation(ctx, cid)
		if err != nil {
			t.Fatal(err)
		}
		if want, broken := wantCodes[final.Vehicles[i]]; broken {
			if child.State != api.StateFailed || child.Error == nil || child.Error.Code != want {
				t.Fatalf("child for %s = %+v, want code %s", final.Vehicles[i], child, want)
			}
		} else if child.State != api.StateSucceeded {
			t.Fatalf("healthy child for %s = %+v", final.Vehicles[i], child)
		}
	}
	if len(final.Failures) != 3 {
		t.Fatalf("parent failures = %v, want one line per broken vehicle", final.Failures)
	}
}

// TestBatchValidation pins the request-shape error codes.
func TestBatchValidation(t *testing.T) {
	s, ids := newBatchFleet(t, 1, false)
	c := newV1Client(t, s)
	ctx := context.Background()

	_, err := c.BatchDeploy(ctx, api.BatchDeployRequest{User: "alice", App: "RemoteControl"})
	wantCode(t, err, api.CodeInvalidArgument) // neither vehicles nor selector
	_, err = c.BatchDeploy(ctx, api.BatchDeployRequest{
		User: "alice", Vehicles: ids, Selector: &api.FleetSelector{}, App: "RemoteControl",
	})
	wantCode(t, err, api.CodeInvalidArgument) // both
	_, err = c.BatchDeploy(ctx, api.BatchDeployRequest{
		User: "alice", Vehicles: []core.VehicleID{""}, App: "RemoteControl",
	})
	wantCode(t, err, api.CodeInvalidArgument) // empty id
	_, err = c.BatchDeploy(ctx, api.BatchDeployRequest{User: "alice", Vehicles: ids, App: "Nope"})
	wantCode(t, err, api.CodeNotFound) // unknown app
	_, err = c.BatchDeploy(ctx, api.BatchDeployRequest{
		User: "alice", Selector: &api.FleetSelector{Model: "hovercraft"}, App: "RemoteControl",
	})
	wantCode(t, err, api.CodeFailedPrecondition) // selector matches nothing
	_, err = c.BatchDeploy(ctx, api.BatchDeployRequest{
		User: "alice", Selector: &api.FleetSelector{Owner: "bob"}, App: "RemoteControl",
	})
	wantCode(t, err, api.CodePermissionDenied) // foreign fleet
	_, err = c.BatchUninstall(ctx, api.BatchUninstallRequest{User: "alice", App: "RemoteControl"})
	wantCode(t, err, api.CodeInvalidArgument)
	_, err = c.BatchUninstall(ctx, api.BatchUninstallRequest{User: "alice", Vehicles: ids, App: "Nope"})
	wantCode(t, err, api.CodeNotFound) // unknown app, caught before fan-out
}

// TestBatchDuplicateBatches races two identical batches over one fleet:
// per vehicle exactly one of the two children may install (the atomic
// check-and-record), and both parents settle.
func TestBatchDuplicateBatches(t *testing.T) {
	s, ids := newBatchFleet(t, 16, true)
	c := api.NewLocalClient(NewService(s))
	ctx := context.Background()

	var wg sync.WaitGroup
	ops := make([]api.Operation, 2)
	errs := make([]error, 2)
	for i := range ops {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ops[i], errs[i] = c.BatchDeploy(ctx, api.BatchDeployRequest{
				User: "alice", Vehicles: ids, App: "RemoteControl",
			})
		}(i)
	}
	wg.Wait()
	succeeded := 0
	for i := range ops {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		final, err := c.WaitOperation(ctx, ops[i].ID, 0)
		if err != nil || !final.Done {
			t.Fatalf("batch %d never settled: %+v, %v", i, final, err)
		}
		succeeded += final.VehiclesSucceeded
	}
	// Each vehicle was installed by exactly one of the two batches.
	if succeeded != len(ids) {
		t.Fatalf("%d children succeeded across both batches, want %d", succeeded, len(ids))
	}
	for _, id := range ids {
		row, ok := s.Store().InstalledApp(id, "RemoteControl")
		if !ok || len(row.Plugins) != 2 || !row.Complete() {
			t.Fatalf("vehicle %s after duplicate batches: %+v ok=%v", id, row, ok)
		}
	}
}

// TestBatchOverlappingVehicleSets races two batches whose fleets
// overlap: contested vehicles go to exactly one batch, disjoint ones to
// their own, and every vehicle ends up installed once.
func TestBatchOverlappingVehicleSets(t *testing.T) {
	s, ids := newBatchFleet(t, 9, true)
	c := api.NewLocalClient(NewService(s))
	ctx := context.Background()

	setA, setB := ids[:6], ids[3:] // ids[3:6] contested
	var wg sync.WaitGroup
	ops := make([]api.Operation, 2)
	for i, set := range [][]core.VehicleID{setA, setB} {
		wg.Add(1)
		go func(i int, set []core.VehicleID) {
			defer wg.Done()
			op, err := c.BatchDeploy(ctx, api.BatchDeployRequest{User: "alice", Vehicles: set, App: "RemoteControl"})
			if err != nil {
				t.Error(err)
				return
			}
			ops[i] = op
		}(i, set)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	succeeded := 0
	for i := range ops {
		final, err := c.WaitOperation(ctx, ops[i].ID, 0)
		if err != nil || !final.Done {
			t.Fatalf("batch %d never settled: %+v, %v", i, final, err)
		}
		succeeded += final.VehiclesSucceeded
	}
	if succeeded != len(ids) {
		t.Fatalf("%d successful children, want %d (each vehicle exactly once)", succeeded, len(ids))
	}
	for _, id := range ids {
		if row, ok := s.Store().InstalledApp(id, "RemoteControl"); !ok || !row.Complete() {
			t.Fatalf("vehicle %s not cleanly installed", id)
		}
	}
}

// TestBatchMidBatchDisconnect: vehicles dying mid-batch fail their own
// children without dragging healthy vehicles down, and the parent's
// report reflects the split.
func TestBatchMidBatchDisconnect(t *testing.T) {
	s, ids := newBatchFleet(t, 2, true) // two healthy vehicles
	// Two mute vehicles: connected, never acknowledge.
	for _, id := range []core.VehicleID{"VIN-MUTE-1", "VIN-MUTE-2"} {
		if err := s.Store().BindVehicle("alice", modelCarConf(id)); err != nil {
			t.Fatal(err)
		}
	}
	closeMute1 := connectMuteVehicle(t, s, "VIN-MUTE-1")
	closeMute2 := connectMuteVehicle(t, s, "VIN-MUTE-2")
	defer closeMute2()
	c := api.NewLocalClient(NewService(s))
	ctx := context.Background()

	targets := append(append([]core.VehicleID(nil), ids...), "VIN-MUTE-1", "VIN-MUTE-2")
	op, err := c.BatchDeploy(ctx, api.BatchDeployRequest{User: "alice", Vehicles: targets, App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	// The healthy children finish, the mute ones hold the batch open.
	waitFor(t, func() bool {
		got, err := c.GetOperation(ctx, op.ID)
		return err == nil && got.VehiclesSucceeded == 2
	})
	if got, _ := c.GetOperation(ctx, op.ID); got.Done {
		t.Fatalf("parent done while mute children in flight: %+v", got)
	}
	// First mute vehicle dies: its child fails, the batch stays open on
	// the second.
	closeMute1()
	waitFor(t, func() bool {
		got, err := c.GetOperation(ctx, op.ID)
		return err == nil && got.VehiclesFailed == 1
	})
	if got, _ := c.GetOperation(ctx, op.ID); got.Done {
		t.Fatalf("parent done with one mute child still in flight: %+v", got)
	}
	// Second one dies: the batch settles as a partial failure.
	closeMute2()
	final, err := c.WaitOperation(ctx, op.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateFailed || final.VehiclesSucceeded != 2 || final.VehiclesFailed != 2 {
		t.Fatalf("parent final = %+v", final)
	}
	if len(final.Failures) == 0 {
		t.Fatal("disconnect losses missing from the parent report")
	}
}

// TestBatchPlanReuse pins the package-once/push-many path: across a
// same-model fleet the plan is computed once and every other vehicle
// reuses it, while a vehicle with history plans individually.
func TestBatchPlanReuse(t *testing.T) {
	s, ids := newBatchFleet(t, 4, true)
	app, _ := s.Store().App("RemoteControl")

	cache := &planCache{}
	for i, id := range ids {
		opRec := s.newOperation(api.OpDeploy, "alice", id, "RemoteControl", "", "", "")
		if err := s.run(deployKind, opRec.op.ID, target{user: "alice", vehicle: id, app: "RemoteControl"}, cache); err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
	}
	if cache.misses != 1 || cache.hits != 3 {
		t.Fatalf("plan cache hits=%d misses=%d, want 3/1", cache.hits, cache.misses)
	}

	// A vehicle that already has an app installed must not reuse the
	// fleet plan (its port-id space differs).
	if err := s.Store().BindVehicle("alice", modelCarConf("VIN-USED")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(connectAckVehicle(t, s, "VIN-USED"))
	s.Store().tryRecordInstallation(&api.InstalledApp{App: "Other", Vehicle: "VIN-USED",
		Plugins: []api.InstalledPlugin{{Plugin: "X", ECU: app.Confs[0].Deployments[1].ECU,
			SWC: app.Confs[0].Deployments[1].SWC, PIC: core.PIC{{Name: "a", ID: 0}}, Acked: true}}})
	opRec := s.newOperation(api.OpDeploy, "alice", "VIN-USED", "RemoteControl", "", "", "")
	if err := s.run(deployKind, opRec.op.ID, target{user: "alice", vehicle: "VIN-USED", app: "RemoteControl"}, cache); err != nil {
		t.Fatal(err)
	}
	if cache.hits != 3 {
		t.Fatalf("used vehicle hit the fleet plan (hits=%d)", cache.hits)
	}
	row, ok := s.Store().InstalledApp("VIN-USED", "RemoteControl")
	if !ok {
		t.Fatal("row missing on used vehicle")
	}
	for _, p := range row.Plugins {
		if p.Plugin == "OP" {
			if id, _ := p.PIC.Lookup("WheelsIn"); id != 1 {
				t.Fatalf("OP WheelsIn on used vehicle = P%d, want P1 (P0 taken)", id)
			}
		}
	}
}

// miniApp builds a one-plug-in app (two ports) deployed on SW-C2.
func miniApp(t *testing.T, name string) api.App {
	t.Helper()
	src := fmt.Sprintf(".plugin %s 1.0\n.port in required\n.port out provided\non_message in:\n\tRET\n", name)
	prog, err := vm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := plugin.FromProgram(prog, plugin.Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	return api.App{Name: core.AppName(name), Binaries: []plugin.Binary{bin},
		Confs: []api.SWConf{{Model: "modelcar-v1", Deployments: []api.Deployment{
			{Plugin: core.PluginName(name), ECU: vehicle.ECU2, SWC: vehicle.SWC2},
		}}}}
}

// TestBatchCrossAppPortIDsUnique: concurrent deploys of two *different*
// apps to the same vehicle must not both plan against the same free
// port-id space — the per-vehicle deploy stripe serializes plan +
// check-and-record, so the SW-C's port ids stay unique.
func TestBatchCrossAppPortIDsUnique(t *testing.T) {
	s := New()
	if err := s.Store().AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"AppA", "AppB"} {
		if err := s.Store().UploadApp(miniApp(t, name)); err != nil {
			t.Fatal(err)
		}
	}
	c := api.NewLocalClient(NewService(s))
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		id := core.VehicleID(fmt.Sprintf("VIN-X-%d", i))
		if err := s.Store().BindVehicle("alice", modelCarConf(id)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(connectAckVehicle(t, s, id))
		var wg sync.WaitGroup
		ops := make([]api.Operation, 2)
		for j, app := range []core.AppName{"AppA", "AppB"} {
			wg.Add(1)
			go func(j int, app core.AppName) {
				defer wg.Done()
				op, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: id, App: app})
				if err != nil {
					t.Error(err)
					return
				}
				ops[j] = op
			}(j, app)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for _, op := range ops {
			if final, err := c.WaitOperation(ctx, op.ID, 0); err != nil || final.State != api.StateSucceeded {
				t.Fatalf("deploy %+v never succeeded: %+v, %v", op, final, err)
			}
		}
		seen := make(map[core.PluginPortID]core.PluginName)
		for _, p := range s.Store().InstalledPlugins(id) {
			if p.ECU != vehicle.ECU2 || p.SWC != vehicle.SWC2 {
				continue
			}
			for _, e := range p.PIC {
				if other, dup := seen[e.ID]; dup {
					t.Fatalf("vehicle %s: port id %d assigned to both %s and %s", id, e.ID, other, p.Plugin)
				}
				seen[e.ID] = p.Plugin
			}
		}
	}
}

// TestBatchChildrenSurviveRetention: completed children of a
// still-running batch are exempt from registry pruning, so a client
// walking the live parent's Children finds no holes.
func TestBatchChildrenSurviveRetention(t *testing.T) {
	old := opRetention
	opRetention = 4
	defer func() { opRetention = old }()

	s, _ := newBatchFleet(t, 0, false)
	// Five offline vehicles (children fail fast) plus one mute vehicle
	// that keeps the batch open.
	var targets []core.VehicleID
	for i := 0; i < 5; i++ {
		id := core.VehicleID(fmt.Sprintf("VIN-RETB-%d", i))
		if err := s.Store().BindVehicle("alice", modelCarConf(id)); err != nil {
			t.Fatal(err)
		}
		targets = append(targets, id)
	}
	if err := s.Store().BindVehicle("alice", modelCarConf("VIN-RETB-MUTE")); err != nil {
		t.Fatal(err)
	}
	closeMute := connectMuteVehicle(t, s, "VIN-RETB-MUTE")
	defer closeMute()
	targets = append(targets, "VIN-RETB-MUTE")
	c := api.NewLocalClient(NewService(s))
	ctx := context.Background()

	op, err := c.BatchDeploy(ctx, api.BatchDeployRequest{User: "alice", Vehicles: targets, App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		got, _ := c.GetOperation(ctx, op.ID)
		return got.VehiclesFailed == 5
	})
	// Churn the registry well past retention with throwaway operations.
	if err := s.Store().BindVehicle("alice", modelCarConf("VIN-RETB-OFF")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		throwaway, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: "VIN-RETB-OFF", App: "RemoteControl"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitOperation(ctx, throwaway.ID, 0); err != nil {
			t.Fatal(err)
		}
		s.Store().RemoveInstallation("VIN-RETB-OFF", "RemoteControl")
	}
	// The live batch and every one of its children survived the churn.
	for _, cid := range append([]string{op.ID}, op.Children...) {
		if _, err := c.GetOperation(ctx, cid); err != nil {
			t.Fatalf("operation %s evicted under a live batch: %v", cid, err)
		}
	}
	// Once the batch settles, its children become evictable again.
	closeMute()
	if _, err := c.WaitOperation(ctx, op.ID, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		throwaway, _ := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: "VIN-RETB-OFF", App: "RemoteControl"})
		if _, err := c.WaitOperation(ctx, throwaway.ID, 0); err != nil {
			t.Fatal(err)
		}
		s.Store().RemoveInstallation("VIN-RETB-OFF", "RemoteControl")
	}
	if ops := s.Operations(); len(ops) > opRetention {
		t.Fatalf("registry holds %d ops after batch settled, want <= %d", len(ops), opRetention)
	}
}

// TestBatchConfsEqual covers the plan-transfer guard.
func TestBatchConfsEqual(t *testing.T) {
	a := modelCarConf("A")
	b := modelCarConf("B")
	if !confsEqual(a, b) {
		t.Fatal("identical confs (different ids) not equal")
	}
	b.Model = "other"
	if confsEqual(a, b) {
		t.Fatal("different model equal")
	}
	b = modelCarConf("B")
	b.SWCs[1].MemoryQuota++
	if confsEqual(a, b) {
		t.Fatal("different quota equal")
	}
	b = modelCarConf("B")
	b.SWCs[1].VirtualPorts[0].ID++
	if confsEqual(a, b) {
		t.Fatal("different virtual port id equal")
	}
}
