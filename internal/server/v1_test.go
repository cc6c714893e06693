package server

import (
	"context"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
)

// newV1Client serves the full Handler and returns a typed
// HTTP client against it.
func newV1Client(t *testing.T, s *Server) *api.Client {
	t.Helper()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return api.NewClient(srv.URL, nil)
}

func wantCode(t *testing.T, err error, code api.ErrorCode) {
	t.Helper()
	if got := api.CodeOf(err); got != code {
		t.Fatalf("error code = %q (%v), want %q", got, err, code)
	}
}

func TestV1UserAndVehicleRoundTrip(t *testing.T) {
	s := New()
	c := newV1Client(t, s)
	ctx := context.Background()

	u, err := c.CreateUser(ctx, api.CreateUserRequest{ID: "alice"})
	if err != nil || u.ID != "alice" {
		t.Fatalf("CreateUser = %+v, %v", u, err)
	}
	_, err = c.CreateUser(ctx, api.CreateUserRequest{ID: "alice"})
	wantCode(t, err, api.CodeAlreadyExists)
	_, err = c.CreateUser(ctx, api.CreateUserRequest{})
	wantCode(t, err, api.CodeInvalidArgument)
	_, err = c.GetUser(ctx, "nobody")
	wantCode(t, err, api.CodeNotFound)

	vr, err := c.BindVehicle(ctx, api.BindVehicleRequest{Owner: "alice", Conf: modelCarConf("VIN-V1")})
	if err != nil || vr.ID != "VIN-V1" || vr.Owner != "alice" {
		t.Fatalf("BindVehicle = %+v, %v", vr, err)
	}
	_, err = c.BindVehicle(ctx, api.BindVehicleRequest{Owner: "ghost", Conf: modelCarConf("VIN-V2")})
	wantCode(t, err, api.CodeNotFound)

	// The bound vehicle appears on the user and in the detail view, and
	// the conf survives the round trip.
	u, err = c.GetUser(ctx, "alice")
	if err != nil || len(u.Vehicles) != 1 || u.Vehicles[0] != "VIN-V1" {
		t.Fatalf("GetUser = %+v, %v", u, err)
	}
	vd, err := c.GetVehicle(ctx, "VIN-V1")
	if err != nil || vd.Conf.Model != "modelcar-v1" || len(vd.Conf.SWCs) != 2 {
		t.Fatalf("GetVehicle = %+v, %v", vd, err)
	}
	swc2, ok := vd.Conf.SWC("ECU2", "SW-C2")
	if !ok {
		t.Fatal("SW-C2 missing after round trip")
	}
	if vp, ok := swc2.VirtualPort("WheelsReq"); !ok || vp.ID != 4 || vp.Format != "i16be" {
		t.Fatalf("WheelsReq after round trip = %+v", vp)
	}
	_, err = c.GetVehicle(ctx, "NOPE")
	wantCode(t, err, api.CodeNotFound)
}

func TestV1AppUploadAndGet(t *testing.T) {
	s := New()
	c := newV1Client(t, s)
	ctx := context.Background()
	app := paperApp(t)

	ref, err := c.UploadApp(ctx, app)
	if err != nil || ref.Name != "RemoteControl" {
		t.Fatalf("UploadApp = %+v, %v", ref, err)
	}
	_, err = c.UploadApp(ctx, app)
	wantCode(t, err, api.CodeAlreadyExists)
	_, err = c.UploadApp(ctx, api.App{Name: ""})
	wantCode(t, err, api.CodeInvalidArgument)

	// The stored binaries survived the HTTP round trip bit-exactly.
	got, err := c.GetApp(ctx, "RemoteControl")
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got.Binaries {
		if err := b.Validate(); err != nil {
			t.Fatalf("binary %d corrupted by round trip: %v", i, err)
		}
	}
	_, err = c.GetApp(ctx, "Nope")
	wantCode(t, err, api.CodeNotFound)

	list, err := c.ListApps(ctx, api.Page{})
	if err != nil || len(list.Apps) != 1 || list.Apps[0] != "RemoteControl" {
		t.Fatalf("ListApps = %+v, %v", list, err)
	}
}

func TestV1ListPagination(t *testing.T) {
	s := New()
	c := newV1Client(t, s)
	ctx := context.Background()
	if _, err := c.CreateUser(ctx, api.CreateUserRequest{ID: "fleet"}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []core.VehicleID{"VIN-A", "VIN-B", "VIN-C"} {
		if _, err := c.BindVehicle(ctx, api.BindVehicleRequest{Owner: "fleet", Conf: modelCarConf(id)}); err != nil {
			t.Fatal(err)
		}
	}

	page1, err := c.ListVehicles(ctx, api.Page{Size: 2})
	if err != nil || len(page1.Vehicles) != 2 || page1.NextPageToken == "" {
		t.Fatalf("page 1 = %+v, %v", page1, err)
	}
	if page1.Vehicles[0].ID != "VIN-A" || page1.Vehicles[1].ID != "VIN-B" {
		t.Fatalf("page 1 order = %+v", page1.Vehicles)
	}
	page2, err := c.ListVehicles(ctx, api.Page{Size: 2, Token: page1.NextPageToken})
	if err != nil || len(page2.Vehicles) != 1 || page2.Vehicles[0].ID != "VIN-C" || page2.NextPageToken != "" {
		t.Fatalf("page 2 = %+v, %v", page2, err)
	}
}

func TestV1AsyncDeployLifecycle(t *testing.T) {
	s := newServerWithVehicle(t, "VIN-V1A")
	if err := s.Store().UploadApp(paperApp(t)); err != nil {
		t.Fatal(err)
	}
	car, eng := connectCar(t, s, "VIN-V1A")
	c := newV1Client(t, s)
	ctx := context.Background()

	// Deploy returns an operation immediately, without blocking on acks.
	op, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: "VIN-V1A", App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	if op.ID == "" || op.Done || op.Kind != api.OpDeploy {
		t.Fatalf("deploy operation = %+v", op)
	}

	// Poll it to completion while pumping the vehicle simulation.
	pumpUntil(t, eng, func() bool {
		got, err := c.GetOperation(ctx, op.ID)
		if err != nil {
			t.Fatal(err)
		}
		return got.Done
	})
	final, err := c.GetOperation(ctx, op.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateSucceeded || final.Acked != 2 || final.Total != 2 || len(final.Failures) != 0 {
		t.Fatalf("final operation = %+v", final)
	}
	st, err := c.Status(ctx, "VIN-V1A", "RemoteControl")
	if err != nil || !st.Complete() {
		t.Fatalf("status = %+v, %v", st, err)
	}
	if _, ok := car.ECM.Plugin("COM"); !ok {
		t.Fatal("COM missing after v1 deploy")
	}

	// Restore after "replacing" ECU2, driven through the client.
	if err := car.SWC2PIRTE.Uninstall("OP"); err != nil {
		t.Fatal(err)
	}
	rop, err := c.Restore(ctx, api.RestoreRequest{User: "alice", Vehicle: "VIN-V1A", ECU: "ECU2"})
	if err != nil {
		t.Fatal(err)
	}
	pumpUntil(t, eng, func() bool {
		got, _ := c.GetOperation(ctx, rop.ID)
		return got.Done
	})
	if got, _ := c.GetOperation(ctx, rop.ID); got.State != api.StateSucceeded || got.Total != 1 {
		t.Fatalf("restore operation = %+v", got)
	}

	// Uninstall through the client removes the row.
	uop, err := c.Uninstall(ctx, api.UninstallRequest{User: "alice", Vehicle: "VIN-V1A", App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	pumpUntil(t, eng, func() bool {
		got, _ := c.GetOperation(ctx, uop.ID)
		return got.Done
	})
	if _, ok := s.Store().InstalledApp("VIN-V1A", "RemoteControl"); ok {
		t.Fatal("row survived v1 uninstall")
	}

	// The operations listing pages through all three, oldest first.
	list, err := c.ListOperations(ctx, api.Page{Size: 2})
	if err != nil || len(list.Operations) != 2 || list.NextPageToken == "" {
		t.Fatalf("operations page 1 = %+v, %v", list, err)
	}
	if list.Operations[0].ID != op.ID {
		t.Fatalf("operations order = %+v", list.Operations)
	}
	rest, err := c.ListOperations(ctx, api.Page{Size: 2, Token: list.NextPageToken})
	if err != nil || len(rest.Operations) != 1 || rest.Operations[0].ID != uop.ID {
		t.Fatalf("operations page 2 = %+v, %v", rest, err)
	}
}

func TestV1DeployErrorCodes(t *testing.T) {
	s := newServerWithVehicle(t, "VIN-V1E")
	if err := s.Store().UploadApp(paperApp(t)); err != nil {
		t.Fatal(err)
	}
	c := newV1Client(t, s)
	ctx := context.Background()

	_, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: "VIN-V1E", App: "Nope"})
	wantCode(t, err, api.CodeNotFound)
	_, err = c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: "NoVehicle", App: "RemoteControl"})
	wantCode(t, err, api.CodeNotFound)
	_, err = c.Deploy(ctx, api.DeployRequest{User: "mallory", Vehicle: "VIN-V1E", App: "RemoteControl"})
	wantCode(t, err, api.CodePermissionDenied)
	_, err = c.Uninstall(ctx, api.UninstallRequest{User: "alice", Vehicle: "VIN-V1E", App: "RemoteControl"})
	wantCode(t, err, api.CodeNotFound)
	_, err = c.Status(ctx, "NoVehicle", "RemoteControl")
	wantCode(t, err, api.CodeNotFound)
	_, err = c.GetOperation(ctx, "op-nope")
	wantCode(t, err, api.CodeNotFound)

	// The vehicle exists but is offline: the precheck passes, the
	// operation is created, and the launch failure lands in it with the
	// unavailable code.
	op, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: "VIN-V1E", App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitOperation(ctx, op.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateFailed || final.Error == nil || final.Error.Code != api.CodeUnavailable {
		t.Fatalf("offline deploy operation = %+v", final)
	}
	if _, ok := s.Store().InstalledApp("VIN-V1E", "RemoteControl"); ok {
		t.Fatal("failed async deploy left a row")
	}
}

// TestV1ConcurrentDeploys hammers deploy/status/operations from many
// goroutines (run under -race): exactly one deploy of the app must win,
// the losers must fail with already_exists, and no read may tear.
func TestV1ConcurrentDeploys(t *testing.T) {
	s := newServerWithVehicle(t, "VIN-CC")
	if err := s.Store().UploadApp(paperApp(t)); err != nil {
		t.Fatal(err)
	}
	_, eng := connectCar(t, s, "VIN-CC")
	c := newV1Client(t, s)
	ctx := context.Background()

	const attempts = 8
	ops := make([]api.Operation, attempts)
	errs := make([]error, attempts)
	var wg sync.WaitGroup
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ops[i], errs[i] = c.Deploy(ctx, api.DeployRequest{
				User: "alice", Vehicle: "VIN-CC", App: "RemoteControl",
			})
		}(i)
		// Readers race the writers.
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = c.Status(ctx, "VIN-CC", "RemoteControl")
			_, _ = c.ListOperations(ctx, api.Page{})
			_, _ = c.GetVehicle(ctx, "VIN-CC")
		}()
	}
	wg.Wait()

	// Wait for every accepted operation to settle while pumping the car.
	pumpUntil(t, eng, func() bool {
		for i := range ops {
			if errs[i] != nil || ops[i].ID == "" {
				continue
			}
			got, err := c.GetOperation(ctx, ops[i].ID)
			if err != nil || !got.Done {
				return false
			}
		}
		return true
	})

	succeeded := 0
	for i := range ops {
		if errs[i] != nil {
			wantCode(t, errs[i], api.CodeAlreadyExists)
			continue
		}
		got, err := c.GetOperation(ctx, ops[i].ID)
		if err != nil {
			t.Fatal(err)
		}
		switch got.State {
		case api.StateSucceeded:
			succeeded++
		case api.StateFailed:
			// A loser fails at the atomic record (already_exists) or,
			// if the winner's row landed first, at the compatibility
			// check (failed_precondition).
			code := api.ErrorCode("")
			if got.Error != nil {
				code = got.Error.Code
			}
			if code != api.CodeAlreadyExists && code != api.CodeFailedPrecondition {
				t.Fatalf("loser failed oddly: %+v", got)
			}
		default:
			t.Fatalf("unsettled operation %+v", got)
		}
	}
	if succeeded != 1 {
		t.Fatalf("%d deploys succeeded, want exactly 1", succeeded)
	}
	st, err := c.Status(ctx, "VIN-CC", "RemoteControl")
	if err != nil || !st.Complete() {
		t.Fatalf("final status = %+v, %v", st, err)
	}
}

// TestV1ConcurrentUninstalls: only one of several simultaneous
// uninstalls of the same app may push MsgUninstall frames; the rest
// fail with already_exists instead of double-uninstalling.
func TestV1ConcurrentUninstalls(t *testing.T) {
	s := newServerWithVehicle(t, "VIN-CU")
	if err := s.Store().UploadApp(paperApp(t)); err != nil {
		t.Fatal(err)
	}
	_, eng := connectCar(t, s, "VIN-CU")
	c := newV1Client(t, s)
	ctx := context.Background()

	op, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: "VIN-CU", App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	pumpUntil(t, eng, func() bool {
		got, _ := c.GetOperation(ctx, op.ID)
		return got.Done
	})

	const attempts = 6
	ops := make([]api.Operation, attempts)
	errs := make([]error, attempts)
	var wg sync.WaitGroup
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ops[i], errs[i] = c.Uninstall(ctx, api.UninstallRequest{
				User: "alice", Vehicle: "VIN-CU", App: "RemoteControl",
			})
		}(i)
	}
	wg.Wait()
	pumpUntil(t, eng, func() bool {
		for i := range ops {
			if errs[i] != nil {
				continue
			}
			got, err := c.GetOperation(ctx, ops[i].ID)
			if err != nil || !got.Done {
				return false
			}
		}
		return true
	})

	succeeded := 0
	for i := range ops {
		if errs[i] != nil {
			// Late entrants are rejected at precheck once the row is gone.
			wantCode(t, errs[i], api.CodeNotFound)
			continue
		}
		got, _ := c.GetOperation(ctx, ops[i].ID)
		switch got.State {
		case api.StateSucceeded:
			succeeded++
		case api.StateFailed:
			code := api.ErrorCode("")
			if got.Error != nil {
				code = got.Error.Code
			}
			if code != api.CodeAlreadyExists && code != api.CodeNotFound {
				t.Fatalf("loser failed oddly: %+v", got)
			}
		default:
			t.Fatalf("unsettled operation %+v", got)
		}
	}
	if succeeded != 1 {
		t.Fatalf("%d uninstalls succeeded, want exactly 1", succeeded)
	}
	if _, ok := s.Store().InstalledApp("VIN-CU", "RemoteControl"); ok {
		t.Fatal("row survived uninstall")
	}
	// The claim is released after completion: a fresh uninstall is
	// rejected for the right reason (nothing installed), not as
	// "in progress".
	_, err = c.Uninstall(ctx, api.UninstallRequest{User: "alice", Vehicle: "VIN-CU", App: "RemoteControl"})
	wantCode(t, err, api.CodeNotFound)
}

// connectMuteVehicle attaches a fake vehicle that identifies itself and
// swallows every push without ever acknowledging.
func connectMuteVehicle(t *testing.T, s *Server, id core.VehicleID) (closeConn func()) {
	t.Helper()
	vehicleSide, serverSide := net.Pipe()
	go s.Pusher().ServeConn(serverSide)
	if err := core.WriteMessage(vehicleSide, core.Message{Type: core.MsgHello, Payload: []byte(id)}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, err := core.ReadMessage(vehicleSide); err != nil {
				return
			}
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for !s.Pusher().Connected(id) {
		if time.Now().After(deadline) {
			t.Fatal("mute vehicle never registered")
		}
		time.Sleep(time.Millisecond)
	}
	return func() { vehicleSide.Close() }
}

// TestDisconnectFailsInFlightOpsAndReleasesClaim: losing the vehicle
// link terminates operations whose acks can never arrive, and frees the
// uninstall claim so a retry is possible.
func TestDisconnectFailsInFlightOpsAndReleasesClaim(t *testing.T) {
	s := newServerWithVehicle(t, "VIN-DC")
	if err := s.Store().UploadApp(paperApp(t)); err != nil {
		t.Fatal(err)
	}
	closeConn := connectMuteVehicle(t, s, "VIN-DC")
	c := api.NewLocalClient(NewService(s))
	ctx := context.Background()

	dop, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: "VIN-DC", App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	// Give the launch goroutine time to push; the mute vehicle never acks.
	waitFor(t, func() bool {
		got, _ := c.GetOperation(ctx, dop.ID)
		return got.State == api.StateRunning
	})
	uop, err := c.Uninstall(ctx, api.UninstallRequest{User: "alice", Vehicle: "VIN-DC", App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		got, _ := c.GetOperation(ctx, uop.ID)
		return got.State == api.StateRunning
	})
	// A second uninstall is blocked by the in-flight claim; the claim
	// error is the launch outcome recorded on its operation.
	_, err = launch(t, s)(s.Uninstall(api.UninstallRequest{User: "alice", Vehicle: "VIN-DC", App: "RemoteControl"}))
	wantCode(t, err, api.CodeAlreadyExists)

	// The vehicle vanishes: both operations terminate with the loss
	// recorded, and the claim is released.
	closeConn()
	for _, id := range []string{dop.ID, uop.ID} {
		final, err := c.WaitOperation(ctx, id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != api.StateFailed || len(final.Failures) == 0 {
			t.Fatalf("operation %s after disconnect = %+v", id, final)
		}
	}
	// Retrying now fails on the dead link (unavailable), not on a stale
	// "already in progress" claim.
	_, err = launch(t, s)(s.Uninstall(api.UninstallRequest{User: "alice", Vehicle: "VIN-DC", App: "RemoteControl"}))
	wantCode(t, err, api.CodeUnavailable)
	// The losses are visible on the per-app progress surface too, so the
	// two status views agree.
	if st := s.Status("VIN-DC", "RemoteControl"); len(st.Failures) == 0 {
		t.Fatalf("status after disconnect shows no failures: %+v", st)
	}
}

// TestReconnectSweepsOnlyOldPushes: a vehicle replacing its link fails
// the pushes stranded on the old connection, but never the ones made on
// the successor.
func TestReconnectSweepsOnlyOldPushes(t *testing.T) {
	s := newServerWithVehicle(t, "VIN-RC")
	if err := s.Store().UploadApp(paperApp(t)); err != nil {
		t.Fatal(err)
	}
	closeOld := connectMuteVehicle(t, s, "VIN-RC")
	defer closeOld()
	c := api.NewLocalClient(NewService(s))
	ctx := context.Background()

	op1, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: "VIN-RC", App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		got, _ := c.GetOperation(ctx, op1.ID)
		return got.State == api.StateRunning
	})

	// The vehicle reconnects: the stranded deploy fails...
	closeNew := connectMuteVehicle(t, s, "VIN-RC")
	defer closeNew()
	final, err := c.WaitOperation(ctx, op1.ID, 0)
	if err != nil || final.State != api.StateFailed {
		t.Fatalf("stranded deploy after reconnect = %+v, %v", final, err)
	}
	// ...the replacement sweep also rolled nothing fresh back: a deploy
	// on the new link stays running (the mute vehicle never acks), it
	// is NOT failed by the old link's teardown.
	s.Store().RemoveInstallation("VIN-RC", "RemoteControl")
	op2, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: "VIN-RC", App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		got, _ := c.GetOperation(ctx, op2.ID)
		return got.State == api.StateRunning
	})
	time.Sleep(50 * time.Millisecond)
	if got, _ := c.GetOperation(ctx, op2.ID); got.Done {
		t.Fatalf("fresh deploy killed by old link teardown: %+v", got)
	}
}

// waitFor spins on a condition with a wall-clock deadline (no sim
// engine involved).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOperationRetention: completed operations are evicted once the
// registry exceeds its bound; in-flight state is never lost.
func TestOperationRetention(t *testing.T) {
	old := opRetention
	opRetention = 4
	defer func() { opRetention = old }()

	s := newServerWithVehicle(t, "VIN-RET")
	if err := s.Store().UploadApp(paperApp(t)); err != nil {
		t.Fatal(err)
	}
	c := api.NewLocalClient(NewService(s))
	ctx := context.Background()

	// Each deploy fails terminally (vehicle offline), creating a
	// completed operation.
	var last string
	for i := 0; i < 10; i++ {
		op, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: "VIN-RET", App: "RemoteControl"})
		if err != nil {
			t.Fatal(err)
		}
		final, err := c.WaitOperation(ctx, op.ID, 0)
		if err != nil || !final.Done {
			t.Fatalf("operation %s never settled: %+v, %v", op.ID, final, err)
		}
		last = op.ID
	}
	ops := s.Operations()
	if len(ops) > 4 {
		t.Fatalf("registry holds %d ops, want <= 4", len(ops))
	}
	// The newest operation survives; the oldest were evicted.
	if _, ok := s.Operation(last); !ok {
		t.Fatalf("latest operation %s evicted", last)
	}
	if _, ok := s.Operation("op-00000001"); ok {
		t.Fatal("oldest operation survived past retention")
	}
}

func TestV1RateLimit(t *testing.T) {
	s := New()
	h := api.NewHandler(NewService(s), &api.HandlerOptions{RatePerSecond: 0.001, Burst: 2})
	srv := httptest.NewServer(h)
	defer srv.Close()
	c := api.NewClient(srv.URL, nil)
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := c.ListApps(ctx, api.Page{}); err != nil {
			t.Fatalf("request %d refused: %v", i, err)
		}
	}
	_, err := c.ListApps(ctx, api.Page{})
	wantCode(t, err, api.CodeResourceExhausted)
}

// TestLocalClientMatchesHTTP runs the same flow through the in-process
// transport, pinning the two transports to one behavior.
func TestLocalClientMatchesHTTP(t *testing.T) {
	s := New()
	c := api.NewLocalClient(NewService(s))
	ctx := context.Background()

	if _, err := c.CreateUser(ctx, api.CreateUserRequest{ID: "alice"}); err != nil {
		t.Fatal(err)
	}
	_, err := c.CreateUser(ctx, api.CreateUserRequest{ID: "alice"})
	wantCode(t, err, api.CodeAlreadyExists)
	if _, err := c.BindVehicle(ctx, api.BindVehicleRequest{Owner: "alice", Conf: modelCarConf("VIN-L")}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.UploadApp(ctx, paperApp(t)); err != nil {
		t.Fatal(err)
	}
	vd, err := c.GetVehicle(ctx, "VIN-L")
	if err != nil || vd.ID != "VIN-L" {
		t.Fatalf("GetVehicle = %+v, %v", vd, err)
	}
	// Offline deploy: the operation fails with unavailable, same as HTTP.
	op, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: "VIN-L", App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitOperation(ctx, op.ID, 0)
	if err != nil || final.State != api.StateFailed || final.Error.Code != api.CodeUnavailable {
		t.Fatalf("local offline deploy = %+v, %v", final, err)
	}
}
