package federation

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/journal"
	"dynautosar/internal/plugin"
	"dynautosar/internal/server"
	"dynautosar/internal/vehicle"
)

func paperApp(t *testing.T) api.App {
	t.Helper()
	com, op, err := vehicle.PaperBinaries()
	if err != nil {
		t.Fatal(err)
	}
	return api.App{
		Name:     "RemoteControl",
		Binaries: []plugin.Binary{com, op},
		Confs: []api.SWConf{{
			Model: "modelcar-v1",
			Deployments: []api.Deployment{
				{
					Plugin: "COM", ECU: vehicle.ECU1, SWC: vehicle.SWC1,
					Connections: []api.PortConnection{
						{Port: "WheelsExt", External: &api.ExternalSpec{Endpoint: vehicle.PhoneEndpoint, MessageID: "Wheels"}},
						{Port: "SpeedExt", External: &api.ExternalSpec{Endpoint: vehicle.PhoneEndpoint, MessageID: "Speed"}},
						{Port: "WheelsFwd", RemotePlugin: "OP", RemotePort: "WheelsIn"},
						{Port: "SpeedFwd", RemotePlugin: "OP", RemotePort: "SpeedIn"},
					},
				},
				{
					Plugin: "OP", ECU: vehicle.ECU2, SWC: vehicle.SWC2,
					Connections: []api.PortConnection{
						{Port: "WheelsOut", Virtual: "WheelsReq"},
						{Port: "SpeedOut", Virtual: "SpeedReq"},
					},
				},
			},
		}},
	}
}

func modelCarConf(id core.VehicleID) core.VehicleConf {
	ecmCfg := vehicle.ECMConfig()
	swc2Cfg := vehicle.SWC2Config()
	return core.VehicleConf{
		Vehicle: id,
		Model:   "modelcar-v1",
		SWCs: []core.SWCConf{
			{ECU: vehicle.ECU1, SWC: vehicle.SWC1, MemoryQuota: ecmCfg.MemoryQuota,
				MaxPlugins: ecmCfg.MaxPlugins, ECM: true, VirtualPorts: ecmCfg.VirtualPorts},
			{ECU: vehicle.ECU2, SWC: vehicle.SWC2, MemoryQuota: swc2Cfg.MemoryQuota,
				MaxPlugins: swc2Cfg.MaxPlugins, VirtualPorts: swc2Cfg.VirtualPorts},
		},
	}
}

// connectMuteVehicle attaches a vehicle link that identifies itself and
// then never acknowledges, keeping pushed operations in flight.
func connectMuteVehicle(t *testing.T, s *server.Server, id core.VehicleID) (closeConn func()) {
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
	waitFor(t, func() bool { return s.Pusher().Connected(id) })
	return func() { vehicleSide.Close() }
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestRingDeterministicAndCovering(t *testing.T) {
	a := NewRing([]string{"s2", "s1", "s3"}, 0)
	b := NewRing([]string{"s3", "s1", "s2", "s1"}, 0) // order + dup must not matter
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		v := core.VehicleID(fmt.Sprintf("VIN-%05d", i))
		oa, ob := a.Owner(v), b.Owner(v)
		if oa != ob {
			t.Fatalf("owner of %s differs: %q vs %q", v, oa, ob)
		}
		counts[oa]++
	}
	for _, s := range a.Shards() {
		if counts[s] < 300 {
			t.Fatalf("shard %s owns only %d of 3000 vehicles: %v", s, counts[s], counts)
		}
	}
	parts := a.Partition([]core.VehicleID{"VIN-00001", "VIN-00002", "VIN-00003"})
	total := 0
	for _, vs := range parts {
		total += len(vs)
	}
	if total != 3 {
		t.Fatalf("partition dropped vehicles: %v", parts)
	}
}

// newLocalFederation builds shards of one in-process server each.
func newLocalFederation(t *testing.T, names ...string) (*Router, map[string]*server.Server) {
	t.Helper()
	servers := make(map[string]*server.Server, len(names))
	shards := make([]Shard, 0, len(names))
	for _, n := range names {
		s := server.New()
		s.SetShard(n)
		t.Cleanup(func() { s.Close() })
		servers[n] = s
		shards = append(shards, Shard{Name: n, Replicas: []Replica{{Name: n + "-a", Svc: server.NewService(s)}}})
	}
	r, err := NewRouter(shards, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return r, servers
}

func TestRouterPartitionsVehicles(t *testing.T) {
	r, servers := newLocalFederation(t, "s1", "s2", "s3")
	ctx := context.Background()
	if _, err := r.CreateUser(ctx, api.CreateUserRequest{ID: "alice"}); err != nil {
		t.Fatal(err)
	}
	// The fan-out create is idempotent under retry.
	if _, err := r.CreateUser(ctx, api.CreateUserRequest{ID: "alice"}); api.CodeOf(err) != api.CodeAlreadyExists {
		t.Fatalf("second CreateUser = %v, want already_exists", err)
	}
	var vins []core.VehicleID
	for i := 0; i < 30; i++ {
		v := core.VehicleID(fmt.Sprintf("VIN-%03d", i))
		vins = append(vins, v)
		if _, err := r.BindVehicle(ctx, api.BindVehicleRequest{Owner: "alice", Conf: modelCarConf(v)}); err != nil {
			t.Fatalf("BindVehicle %s: %v", v, err)
		}
	}
	// Every vehicle lives on exactly its ring owner.
	for _, v := range vins {
		owner := r.Ring().Owner(v)
		for name, s := range servers {
			_, ok := s.Store().Vehicle(v)
			if ok != (name == owner) {
				t.Fatalf("vehicle %s on shard %s: present=%v, owner=%s", v, name, ok, owner)
			}
		}
	}
	// The other broadcast create answers a duplicate the same way a single
	// server does, and a half-complete fan-out still converges.
	if _, err := r.UploadApp(ctx, paperApp(t)); err != nil {
		t.Fatal(err)
	}
	if ref, err := r.UploadApp(ctx, paperApp(t)); api.CodeOf(err) != api.CodeAlreadyExists {
		t.Fatalf("second UploadApp = %+v, %v, want already_exists", ref, err)
	}
	if err := servers["s3"].Store().AddUser("bob"); err != nil {
		t.Fatal(err)
	}
	if u, err := r.CreateUser(ctx, api.CreateUserRequest{ID: "bob"}); err != nil || u.ID != "bob" {
		t.Fatalf("CreateUser completing a partial fan-out = %+v, %v", u, err)
	}
	// GetUser merges the per-shard vehicle lists.
	u, err := r.GetUser(ctx, "alice")
	if err != nil || len(u.Vehicles) != len(vins) {
		t.Fatalf("GetUser = %d vehicles (%v), want %d", len(u.Vehicles), err, len(vins))
	}
}

// TestStatzReportsJournalBytes: GET /v1/statz carries the two sizes the
// journal's compaction compares — the newest state image and the
// committed part of the current segment — per shard exactly as
// Journal.Stats has them, and the Router sums them over the shards.
func TestStatzReportsJournalBytes(t *testing.T) {
	ctx := context.Background()
	servers := map[string]*server.Server{}
	clients := map[string]api.DeploymentService{}
	var shards []Shard
	for _, n := range []string{"s1", "s2", "s3"} {
		s := server.New()
		s.SetShard(n)
		if err := s.OpenJournal(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		servers[n], clients[n] = s, api.NewClient(ts.URL, nil)
		shards = append(shards, Shard{Name: n, Replicas: []Replica{{Name: n + "-a", Svc: clients[n]}}})
	}
	r, err := NewRouter(shards, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateUser(ctx, api.CreateUserRequest{ID: "alice"}); err != nil {
		t.Fatal(err)
	}
	bind := func(from, n int) {
		for i := from; i < from+n; i++ {
			conf := modelCarConf(core.VehicleID(fmt.Sprintf("VIN-%03d", i)))
			if _, err := r.BindVehicle(ctx, api.BindVehicleRequest{Owner: "alice", Conf: conf}); err != nil {
				t.Fatal(err)
			}
		}
	}
	bind(0, 12)
	// One shard has compacted, the others never have; every shard then
	// grows a segment on top.
	if err := servers["s2"].Journal().Snapshot(); err != nil {
		t.Fatal(err)
	}
	bind(12, 12)

	var image, segment int64
	for n, s := range servers {
		st, err := clients[n].Statz(ctx)
		if err != nil {
			t.Fatal(err)
		}
		js := s.Journal().Stats()
		if st.JournalImageBytes != js.ImageBytes || st.JournalSegmentBytes != js.SegmentBytes || js.SegmentBytes == 0 {
			t.Fatalf("shard %s: statz reports image %d / segment %d bytes, the journal %d / %d",
				n, st.JournalImageBytes, st.JournalSegmentBytes, js.ImageBytes, js.SegmentBytes)
		}
		if (js.ImageBytes > 0) != (n == "s2") {
			t.Fatalf("shard %s: image of %d bytes, only s2 took a snapshot", n, js.ImageBytes)
		}
		image += js.ImageBytes
		segment += js.SegmentBytes
	}
	sum, err := r.Statz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sum.JournalImageBytes != image || sum.JournalSegmentBytes != segment {
		t.Fatalf("router statz reports image %d / segment %d bytes, the shards sum to %d / %d",
			sum.JournalImageBytes, sum.JournalSegmentBytes, image, segment)
	}
}

func TestRouterBatchFanOutAggregates(t *testing.T) {
	r, _ := newLocalFederation(t, "s1", "s2")
	ctx := context.Background()
	if _, err := r.CreateUser(ctx, api.CreateUserRequest{ID: "alice"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.UploadApp(ctx, paperApp(t)); err != nil {
		t.Fatal(err)
	}
	// Enough vehicles that both shards certainly own some.
	var vins []core.VehicleID
	for i := 0; i < 20; i++ {
		v := core.VehicleID(fmt.Sprintf("VIN-%03d", i))
		vins = append(vins, v)
		if _, err := r.BindVehicle(ctx, api.BindVehicleRequest{Owner: "alice", Conf: modelCarConf(v)}); err != nil {
			t.Fatal(err)
		}
	}
	parts := r.Ring().Partition(vins)
	if len(parts) != 2 {
		t.Skipf("hash put all 20 vehicles on one shard: %v", parts)
	}
	op, err := r.BatchDeploy(ctx, api.BatchDeployRequest{User: "alice", Vehicles: vins, App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	if len(op.Children) != 2 || op.ID[:4] != "fed-" {
		t.Fatalf("fan-out parent = %+v", op)
	}
	if len(op.Vehicles) != len(vins) {
		t.Fatalf("parent covers %d vehicles, want %d", len(op.Vehicles), len(vins))
	}
	// The vehicles are offline, so every child settles failed; the fed
	// parent must aggregate to done with the full failure tally.
	var last api.Operation
	waitFor(t, func() bool {
		last, err = r.GetOperation(ctx, op.ID)
		return err == nil && last.Done
	})
	if last.State != api.StateFailed || last.VehiclesFailed != len(vins) {
		t.Fatalf("aggregated parent = state %s, %d failed (want %d)", last.State, last.VehiclesFailed, len(vins))
	}
	// Children resolve through their qualified ids.
	for _, cid := range last.Children {
		child, err := r.GetOperation(ctx, cid)
		if err != nil || !child.Done {
			t.Fatalf("child %s = %+v, %v", cid, child, err)
		}
	}
	// Selector fan-out: matches vehicles on both shards.
	sop, err := r.BatchDeploy(ctx, api.BatchDeployRequest{
		User: "alice", Selector: &api.FleetSelector{Model: "modelcar-v1"}, App: "RemoteControl",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sop.Vehicles) != len(vins) {
		t.Fatalf("selector fan-out resolved %d vehicles, want %d", len(sop.Vehicles), len(vins))
	}
}

func TestRouterSingleShardBatchQualified(t *testing.T) {
	r, _ := newLocalFederation(t, "s1", "s2")
	ctx := context.Background()
	if _, err := r.CreateUser(ctx, api.CreateUserRequest{ID: "alice"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.UploadApp(ctx, paperApp(t)); err != nil {
		t.Fatal(err)
	}
	v := core.VehicleID("VIN-solo")
	if _, err := r.BindVehicle(ctx, api.BindVehicleRequest{Owner: "alice", Conf: modelCarConf(v)}); err != nil {
		t.Fatal(err)
	}
	op, err := r.BatchDeploy(ctx, api.BatchDeployRequest{User: "alice", Vehicles: []core.VehicleID{v}, App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	owner := r.Ring().Owner(v)
	if want := owner + "/"; len(op.ID) < len(want) || op.ID[:len(want)] != want {
		t.Fatalf("single-shard batch id = %q, want prefix %q", op.ID, want)
	}
	if _, err := r.GetOperation(ctx, op.ID); err != nil {
		t.Fatalf("GetOperation(%s): %v", op.ID, err)
	}
}

// TestRouterRolloutOperationQualified: a rollout is an operation, so
// GET /v1/operations/{id} of its qualified id answers through the
// router, with its wave batches qualified like any batch's children.
func TestRouterRolloutOperationQualified(t *testing.T) {
	r, _ := newLocalFederation(t, "s1")
	ctx := context.Background()
	if _, err := r.CreateUser(ctx, api.CreateUserRequest{ID: "alice"}); err != nil {
		t.Fatal(err)
	}
	v2 := paperApp(t)
	v2.Name = "RemoteControl-v2"
	for _, app := range []api.App{paperApp(t), v2} {
		if _, err := r.UploadApp(ctx, app); err != nil {
			t.Fatal(err)
		}
	}
	fleet := []core.VehicleID{"VIN-ro1", "VIN-ro2"}
	for _, v := range fleet {
		if _, err := r.BindVehicle(ctx, api.BindVehicleRequest{Owner: "alice", Conf: modelCarConf(v)}); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing is installed, so the canary wave fails and the rollout
	// settles rolled back — after one wave batch.
	st, err := r.StartRollout(ctx, api.RolloutRequest{User: "alice", Vehicles: fleet, From: "RemoteControl", To: "RemoteControl-v2"})
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	op, err := api.NewLocalClient(r).WaitOperation(wctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if op.ID != st.ID || op.Kind != api.OpRollout || len(op.Children) == 0 {
		t.Fatalf("rollout operation = %+v, want kind rollout with wave batches", op)
	}
	for _, cid := range op.Children {
		if len(cid) < 3 || cid[:3] != "s1/" {
			t.Fatalf("wave batch id %q not qualified", cid)
		}
		if batch, err := r.GetOperation(ctx, cid); err != nil || batch.Parent != st.ID {
			t.Fatalf("wave batch %s = %+v, %v; want parent %s", cid, batch, err, st.ID)
		}
	}
}

// TestRouterListsQualifiedIDs: every shard mints its own op-00000001,
// so a bare id in a listing names no operation in particular. The list
// endpoints must qualify ids exactly like the single-item reads do, down
// to a rollout's wave batch ids.
func TestRouterListsQualifiedIDs(t *testing.T) {
	r, _ := newLocalFederation(t, "s1", "s2")
	ctx := context.Background()
	if _, err := r.CreateUser(ctx, api.CreateUserRequest{ID: "alice"}); err != nil {
		t.Fatal(err)
	}
	v2 := paperApp(t)
	v2.Name = "RemoteControl-v2"
	for _, app := range []api.App{paperApp(t), v2} {
		if _, err := r.UploadApp(ctx, app); err != nil {
			t.Fatal(err)
		}
	}
	created := map[string]core.VehicleID{}
	perShard := map[string][]core.VehicleID{}
	for i := 0; i < 12; i++ {
		v := core.VehicleID(fmt.Sprintf("VIN-L%02d", i))
		if _, err := r.BindVehicle(ctx, api.BindVehicleRequest{Owner: "alice", Conf: modelCarConf(v)}); err != nil {
			t.Fatal(err)
		}
		op, err := r.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: v, App: "RemoteControl"})
		if err != nil {
			t.Fatalf("Deploy %s: %v", v, err)
		}
		created[op.ID] = v
		owner := r.Ring().Owner(v)
		perShard[owner] = append(perShard[owner], v)
	}
	if len(perShard) != 2 {
		t.Fatalf("hash put all 12 vehicles on one shard: %v", perShard)
	}
	qualified := func(id string) bool {
		_, _, ok := r.splitQualified(id)
		return ok
	}

	listed := map[string]bool{}
	for page := (api.Page{Size: 5}); ; {
		l, err := r.ListOperations(ctx, page)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range l.Operations {
			if !qualified(op.ID) {
				t.Fatalf("listed operation id %q carries no shard prefix", op.ID)
			}
			listed[op.ID] = true
			got, err := r.GetOperation(ctx, op.ID)
			if err != nil || got.ID != op.ID || got.Vehicle != op.Vehicle {
				t.Fatalf("GetOperation(%s) = %s on %s, %v; listed on %s", op.ID, got.ID, got.Vehicle, err, op.Vehicle)
			}
		}
		if l.NextPageToken == "" {
			break
		}
		page.Token = l.NextPageToken
	}
	if len(listed) != len(created) {
		t.Fatalf("listed %d operations, created %d", len(listed), len(created))
	}
	for id, v := range created {
		if !listed[id] {
			t.Fatalf("created operation %s (%s) not listed", id, v)
		}
	}

	// A rollout on one shard's vehicles: nothing is installed, so the
	// canary wave's batch fails and the rollout settles after it.
	fleet := perShard["s2"]
	st, err := r.StartRollout(ctx, api.RolloutRequest{User: "alice", Vehicles: fleet, From: "RemoteControl", To: "RemoteControl-v2"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		st, err = r.GetRollout(ctx, st.ID)
		return err == nil && st.Done
	})
	seen := []api.RolloutStatus{st}
	for page := (api.Page{}); ; {
		l, err := r.ListRollouts(ctx, page)
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, l.Rollouts...)
		if l.NextPageToken == "" {
			break
		}
		page.Token = l.NextPageToken
	}
	if len(seen) != 2 {
		t.Fatalf("ListRollouts listed %d rollouts, want the one", len(seen)-1)
	}
	for _, ro := range seen {
		if ro.ID != st.ID || len(ro.Waves) == 0 {
			t.Fatalf("rollout %+v, want %s with waves", ro, st.ID)
		}
		batch := ro.Waves[0].BatchOp
		if !qualified(batch) {
			t.Fatalf("wave batch id %q carries no shard prefix", batch)
		}
		op, err := r.GetOperation(ctx, batch)
		if err != nil || op.ID != batch || op.Parent != st.ID {
			t.Fatalf("wave batch %s = %+v, %v; want parent %s", batch, op, err, st.ID)
		}
	}
}

// rolloutReplica is a replica that counts StartRollout calls and then
// fails them; any other method panics on the nil embedded interface.
type rolloutReplica struct {
	api.DeploymentService
	calls int
	err   error
}

func (f *rolloutReplica) StartRollout(context.Context, api.RolloutRequest) (api.RolloutStatus, error) {
	f.calls++
	return api.RolloutStatus{}, f.err
}

// TestRouterKeylessCreateNotRotated: a rollout has no idempotency key,
// and `unavailable` from the leader may be a response lost after the
// rollout was journaled, so the router must not offer the same request
// to a sibling replica (which, promoted, would start a second rollout).
// `not_leader` is a refusal before anything happened and still rotates.
func TestRouterKeylessCreateNotRotated(t *testing.T) {
	a := &rolloutReplica{err: api.Errorf(api.CodeUnavailable, "api: response lost")}
	b := &rolloutReplica{err: api.Errorf(api.CodeNotLeader, "api: follower")}
	r, err := NewRouter([]Shard{{Name: "s1", Replicas: []Replica{{Name: "a", Svc: a}, {Name: "b", Svc: b}}}},
		RouterOptions{Sleep: func(context.Context, time.Duration) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	req := api.RolloutRequest{User: "alice", Vehicles: []core.VehicleID{"VIN-1", "VIN-2"}, From: "A", To: "B"}
	if _, err := r.StartRollout(context.Background(), req); api.CodeOf(err) != api.CodeUnavailable {
		t.Fatalf("StartRollout = %v, want the ambiguous unavailable surfaced", err)
	}
	if a.calls != 1 || b.calls != 0 {
		t.Fatalf("keyless create sent %d+%d times after an ambiguous failure, want exactly 1+0", a.calls, b.calls)
	}

	// From the follower's refusal the router does move on to the sibling.
	r, err = NewRouter([]Shard{{Name: "s1", Replicas: []Replica{{Name: "b", Svc: b}, {Name: "a", Svc: a}}}},
		RouterOptions{Sleep: func(context.Context, time.Duration) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.StartRollout(context.Background(), req); api.CodeOf(err) != api.CodeUnavailable {
		t.Fatalf("StartRollout = %v, want the leader's unavailable", err)
	}
	if a.calls != 2 || b.calls != 1 {
		t.Fatalf("calls after a not_leader rotation = %d+%d, want 2+1", a.calls, b.calls)
	}

	// The vehicles of an owner-routed request must share a shard.
	three, _ := newLocalFederation(t, "s1", "s2", "s3")
	var spread []core.VehicleID
	for i := 0; i < 30; i++ {
		spread = append(spread, core.VehicleID(fmt.Sprintf("VIN-%03d", i)))
	}
	req.Vehicles = spread
	if _, err := three.StartRollout(context.Background(), req); api.CodeOf(err) != api.CodeInvalidArgument {
		t.Fatalf("rollout spanning shards = %v, want invalid_argument", err)
	}
	req.Vehicles = nil
	if _, err := three.StartRollout(context.Background(), req); api.CodeOf(err) != api.CodeInvalidArgument {
		t.Fatalf("rollout without vehicles = %v, want invalid_argument", err)
	}
}

// TestShardFailoverZeroLoss is the tentpole scenario in miniature over
// real HTTP: a leader replicates synchronously to a follower node, the
// leader dies, the follower is promoted, and the router's clients (a)
// still resolve the acknowledged operation and (b) get the same
// operation back when they retry its idempotency key — nothing lost,
// nothing duplicated.
func TestShardFailoverZeroLoss(t *testing.T) {
	dir := t.TempDir()
	leaderDir := dir + "/leader"
	replicaDir := dir + "/replica"

	// Follower first, so the leader's shipper has somewhere to ship.
	node, err := NewFollowerNode(FollowerOptions{Shard: "s1", Name: "s1-b", Dir: replicaDir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	followerHTTP := httptest.NewServer(node)
	defer followerHTTP.Close()

	leader := server.New()
	leader.SetShard("s1")
	if err := leader.OpenJournal(leaderDir); err != nil {
		t.Fatal(err)
	}
	if err := leader.BecomeLeader("boot"); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.StartReplication([]journal.Follower{
		{Name: "s1-b", T: NewHTTPTransport(followerHTTP.URL, 0)},
	}, journal.ShipperOptions{Synchronous: true, Logf: t.Logf}); err != nil {
		t.Fatal(err)
	}
	leaderHTTP := httptest.NewServer(leader.Handler())

	router, err := NewRouter([]Shard{{Name: "s1", Replicas: []Replica{
		{Name: "s1-a", Svc: api.NewClient(leaderHTTP.URL, nil)},
		{Name: "s1-b", Svc: api.NewClient(followerHTTP.URL, nil)},
	}}}, RouterOptions{Sleep: func(context.Context, time.Duration) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if _, err := router.CreateUser(ctx, api.CreateUserRequest{ID: "alice"}); err != nil {
		t.Fatal(err)
	}
	if _, err := router.UploadApp(ctx, paperApp(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := router.BindVehicle(ctx, api.BindVehicleRequest{Owner: "alice", Conf: modelCarConf("VIN-1")}); err != nil {
		t.Fatal(err)
	}
	// A mute vehicle keeps the deploy in flight — packages pushed and the
	// install row recorded, acknowledgements never arriving — so the
	// leader dies mid-operation, the scenario failover must not lose.
	closeVehicle := connectMuteVehicle(t, leader, "VIN-1")
	defer closeVehicle()
	op, err := router.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: "VIN-1", App: "RemoteControl", IdempotencyKey: "key-1"})
	if err != nil {
		t.Fatal(err)
	}
	// Packages are pushed only after the install row and the operation
	// record are durable (and, through the synchronous shipper, on the
	// follower); waiting for Total > 0 pins the crash point cleanly
	// after the acknowledged journal state.
	waitFor(t, func() bool {
		got, err := router.GetOperation(ctx, op.ID)
		return err == nil && got.Total > 0
	})
	if got := leader.Store().InstalledApps("VIN-1"); len(got) != 1 {
		t.Fatalf("leader install rows = %+v", got)
	}
	// Zero loss is guaranteed for in-sync followers; wait until the
	// follower has confirmed every durable byte (healthz surfaces exactly
	// this) so the crash below tests failover, not an unfinished resync.
	waitFor(t, func() bool {
		repl := leader.Health().Replication
		return len(repl) == 1 && repl[0].LagBytes == 0 && repl[0].LastError == ""
	})

	// While the leader is alive, client traffic through the follower
	// replica must answer `not_leader` (the router hides this; verify the
	// raw surface once).
	_, err = api.NewClient(followerHTTP.URL, nil).GetUser(ctx, "alice")
	if api.CodeOf(err) != api.CodeNotLeader {
		t.Fatalf("follower GetUser = %v, want not_leader", err)
	}

	// Kill the leader. No clean Close here — that would sweep the
	// in-flight operation and compensate the install row before a final
	// snapshot, which is a drain, not a death. Crash() freezes the
	// journal exactly as SIGKILL would; every durable byte has already
	// reached the follower through the synchronous shipper.
	leaderHTTP.Close()
	leader.Journal().Crash()

	if _, err := node.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	promoted := node.Server()
	if promoted == nil {
		t.Fatal("no server after promotion")
	}
	shard, role, epoch := promoted.ShardInfo()
	if shard != "s1" || role != "leader" || epoch < 2 {
		t.Fatalf("promoted identity = %s/%s epoch %d, want s1/leader epoch ≥2", shard, role, epoch)
	}

	// (a) The in-flight operation survived the failover: recovery on the
	// promoted follower settles it (its acks can never arrive here) but
	// its identity and binding are intact.
	got, err := router.GetOperation(ctx, op.ID)
	if err != nil || got.ID != op.ID || !got.Done {
		t.Fatalf("GetOperation after failover = %+v, %v", got, err)
	}
	// (b) Retrying the create with its idempotency key returns the same
	// operation instead of a duplicate.
	again, err := router.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: "VIN-1", App: "RemoteControl", IdempotencyKey: "key-1"})
	if err != nil {
		t.Fatalf("idempotent re-deploy after failover: %v", err)
	}
	if again.ID != op.ID {
		t.Fatalf("idempotency key re-bound to %s, want %s — duplicate operation created", again.ID, op.ID)
	}
	// And the installed state arrived: the install row recorded before
	// the crash replicated with the journal and exists exactly once — no
	// row lost, none duplicated.
	apps := promoted.Store().InstalledApps("VIN-1")
	if len(apps) != 1 || apps[0].App != "RemoteControl" {
		t.Fatalf("installed rows after failover = %+v, want exactly one RemoteControl", apps)
	}

	// The promoted node's health reports its new role.
	h := promoted.Health()
	if h.Role != "leader" || h.Shard != "s1" {
		t.Fatalf("promoted health = %+v", h)
	}
}

// TestHTTPTransportGapTriggersResync checks the wire mapping of the
// replication gap: a chunk that does not extend the replica's tail
// must come back as *journal.GapError so the shipper resyncs.
func TestHTTPTransportGapTriggersResync(t *testing.T) {
	node, err := NewFollowerNode(FollowerOptions{Shard: "s1", Name: "f", Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv := httptest.NewServer(node)
	defer srv.Close()
	tr := NewHTTPTransport(srv.URL, 0)
	err = tr.ShipSegment(1, 4096, []byte("beyond the tail"), false)
	var gap *journal.GapError
	if !errors.As(err, &gap) {
		t.Fatalf("ShipSegment past tail = %v, want GapError", err)
	}
	if st, err := tr.State(); err != nil || st.Size != 0 {
		t.Fatalf("State = %+v, %v", st, err)
	}
}
