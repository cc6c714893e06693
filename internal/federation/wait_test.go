package federation

import (
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/server"
)

// connectSlowAckVehicle attaches a vehicle link that acknowledges every
// push after delay.
func connectSlowAckVehicle(t *testing.T, s *server.Server, id core.VehicleID, delay time.Duration) {
	t.Helper()
	vehicleSide, serverSide := net.Pipe()
	t.Cleanup(func() { vehicleSide.Close() })
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
			time.Sleep(delay)
			if core.WriteMessage(vehicleSide, msg.Ack()) != nil {
				return
			}
		}
	}()
	waitFor(t, func() bool { return s.Pusher().Connected(id) })
}

// countingSvc counts the GetOperation calls a client makes.
type countingSvc struct {
	api.DeploymentService
	gets atomic.Int64
}

func (c *countingSvc) GetOperation(ctx context.Context, id string) (api.Operation, error) {
	c.gets.Add(1)
	return c.DeploymentService.GetOperation(ctx, id)
}

// twoShardFleet binds alice's vehicles through r until both shards own
// some, and uploads the paper app.
func twoShardFleet(t *testing.T, r *Router) []core.VehicleID {
	t.Helper()
	ctx := context.Background()
	if _, err := r.CreateUser(ctx, api.CreateUserRequest{ID: "alice"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.UploadApp(ctx, paperApp(t)); err != nil {
		t.Fatal(err)
	}
	var vins []core.VehicleID
	for i := 0; len(vins) < 8 || len(r.Ring().Partition(vins)) < 2; i++ {
		v := core.VehicleID(fmt.Sprintf("VIN-%03d", i))
		if _, err := r.BindVehicle(ctx, api.BindVehicleRequest{Owner: "alice", Conf: modelCarConf(v)}); err != nil {
			t.Fatal(err)
		}
		vins = append(vins, v)
	}
	return vins
}

// TestWaitOperationThroughRouterHTTP: through the router's /v1 handler,
// waiting on a qualified single-vehicle operation and on a fed- parent
// spanning both shards takes at most two GetOperation calls, where a
// 1ms ticker would have made dozens over the vehicles' 30ms acks.
func TestWaitOperationThroughRouterHTTP(t *testing.T) {
	r, servers := newLocalFederation(t, "s1", "s2")
	vins := twoShardFleet(t, r)
	for _, v := range vins {
		connectSlowAckVehicle(t, servers[r.Ring().Owner(v)], v, 30*time.Millisecond)
	}
	ts := httptest.NewServer(api.NewHandler(r, &api.HandlerOptions{RatePerSecond: -1}))
	t.Cleanup(ts.Close)
	c := api.NewClient(ts.URL, nil)
	counter := &countingSvc{DeploymentService: c.DeploymentService}
	c.DeploymentService = counter
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	single, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: vins[0], App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := c.BatchDeploy(ctx, api.BatchDeployRequest{User: "alice", Vehicles: vins[1:], App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(single.ID, "/") || !strings.HasPrefix(batch.ID, "fed-") {
		t.Fatalf("ids %q and %q, want a qualified id and a fed- parent", single.ID, batch.ID)
	}
	for _, id := range []string{single.ID, batch.ID} {
		before := counter.gets.Load()
		op, err := c.WaitOperation(ctx, id, time.Millisecond)
		if err != nil || op.State != api.StateSucceeded {
			t.Fatalf("WaitOperation(%s) = %+v, %v", id, op, err)
		}
		if n := counter.gets.Load() - before; n > 2 {
			t.Errorf("WaitOperation(%s) made %d GetOperation calls, want at most 2", id, n)
		}
	}
}

// TestFedParentSurvivesChildEviction: once its shards evict the batch
// parents a fed- parent aggregated, the parent still reads settled —
// with its tallies when it was read settled before, and failed with a
// line per forgotten child when it never was.
func TestFedParentSurvivesChildEviction(t *testing.T) {
	r, _ := newLocalFederation(t, "s1", "s2")
	vins := twoShardFleet(t, r) // offline: every child fails at launch
	ctx := context.Background()
	c := api.NewLocalClient(r)
	batch := func() api.Operation {
		op, err := c.BatchDeploy(ctx, api.BatchDeployRequest{User: "alice", Vehicles: vins, App: "RemoteControl"})
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	read := batch().ID
	want, err := c.WaitOperation(ctx, read, 0)
	if err != nil || want.State != api.StateFailed || want.VehiclesFailed != len(vins) {
		t.Fatalf("settled fed parent = %+v, %v", want, err)
	}
	// The second parent settles too, but only its children are read.
	unread := batch()
	for _, cid := range unread.Children {
		if _, err := c.WaitOperation(ctx, cid, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Past each shard's retention (4096 operations) of terminal single
	// deploys, both batches' shard parents are evicted.
	for _, v := range []core.VehicleID{vins[0], vins[len(vins)-1]} {
		for i := 0; i < 4100; i++ {
			op, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: v, App: "RemoteControl"})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.WaitOperation(ctx, op.ID, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, cid := range want.Children {
		if _, err := r.GetOperation(ctx, cid); api.CodeOf(err) != api.CodeNotFound {
			t.Fatalf("shard batch %s still known (%v); retention evicted nothing", cid, err)
		}
	}

	got, err := r.GetOperation(ctx, read)
	if err != nil || !got.Done || got.State != want.State || got.VehiclesFailed != want.VehiclesFailed ||
		len(got.Failures) != len(want.Failures) {
		t.Fatalf("fed parent after eviction = %+v, %v; want the settled %+v", got, err, want)
	}
	got, err = r.GetOperation(ctx, unread.ID)
	if err != nil || !got.Done || got.State != api.StateFailed {
		t.Fatalf("unread fed parent after eviction = %+v, %v; want failed", got, err)
	}
	for _, cid := range got.Children {
		if !strings.Contains(strings.Join(got.Failures, "\n"), cid+": ") {
			t.Errorf("failures %q name no line for the forgotten child %s", got.Failures, cid)
		}
	}
}

// TestFedParentRegistryBounded: the router keeps at most fedRetention
// fed- parents, evicting the oldest terminal ones first; an open one is
// kept even beyond the bound.
func TestFedParentRegistryBounded(t *testing.T) {
	old := fedRetention
	fedRetention = 2
	t.Cleanup(func() { fedRetention = old })
	r, servers := newLocalFederation(t, "s1", "s2")
	vins := twoShardFleet(t, r)
	ctx := context.Background()
	c := api.NewLocalClient(r)
	// The first batch stays open on a mute vehicle; the others settle.
	const mute = core.VehicleID("VIN-MUTE")
	if _, err := r.BindVehicle(ctx, api.BindVehicleRequest{Owner: "alice", Conf: modelCarConf(mute)}); err != nil {
		t.Fatal(err)
	}
	defer connectMuteVehicle(t, servers[r.Ring().Owner(mute)], mute)()
	var ids []string
	for i := 0; i < 5; i++ {
		fleet := vins
		if i == 0 {
			fleet = append([]core.VehicleID{mute}, vins...)
		}
		op, err := c.BatchDeploy(ctx, api.BatchDeployRequest{User: "alice", Vehicles: fleet, App: "RemoteControl"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, op.ID)
		if i > 0 {
			if _, err := c.WaitOperation(ctx, op.ID, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if open, err := r.GetOperation(ctx, ids[0]); err != nil || open.Done {
		t.Fatalf("open fed parent = %+v, %v; want it kept, running", open, err)
	}
	for _, id := range ids[1:4] {
		if _, err := r.GetOperation(ctx, id); api.CodeOf(err) != api.CodeNotFound {
			t.Errorf("old terminal fed parent %s = %v, want evicted", id, err)
		}
	}
	if op, err := r.GetOperation(ctx, ids[4]); err != nil || !op.Done {
		t.Errorf("newest fed parent %s = %+v, %v", ids[4], op, err)
	}
}
