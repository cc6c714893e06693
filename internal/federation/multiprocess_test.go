package federation

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
)

// TestMultiProcessShardFailover is the tentpole acceptance run against
// real processes: three shards, each a trusted-server leader replicating
// synchronously to a follower process, a thousand vehicles acking over
// TCP, and a fleet-wide batch deploy in flight when one shard's leader
// is SIGKILLed. The follower is promoted and the batch must converge to
// exact terminal accounting — every operation resolvable with
// succeeded+failed covering every vehicle, the same idempotency key
// re-binding to the same per-shard parents, and at most one install row
// per vehicle. Opt-in (builds binaries, opens real sockets):
//
//	SHARD_FAILOVER_IT=1 go test -run TestMultiProcessShardFailover ./internal/federation
func TestMultiProcessShardFailover(t *testing.T) {
	if os.Getenv("SHARD_FAILOVER_IT") == "" {
		t.Skip("multi-process failover: enable with SHARD_FAILOVER_IT=1")
	}
	const (
		nShards   = 3
		nVehicles = 1000
		victim    = "s1" // shard whose leader dies mid-batch
	)

	bin := filepath.Join(t.TempDir(), "trusted-server")
	build := exec.Command("go", "build", "-o", bin, "dynautosar/cmd/trusted-server")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building trusted-server: %v\n%s", err, out)
	}

	type shardProcs struct {
		name                 string
		leader               *exec.Cmd
		leaderURL, leaderPsh string
		follower             *exec.Cmd
		followerURL, fwPush  string
	}
	dataRoot := t.TempDir()
	shards := make([]*shardProcs, nShards)
	spawn := func(args ...string) *exec.Cmd {
		cmd := exec.Command(bin, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %v: %v", args, err)
		}
		t.Cleanup(func() {
			if cmd.Process != nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
		})
		return cmd
	}
	for i := range shards {
		name := fmt.Sprintf("s%d", i)
		sp := &shardProcs{name: name}
		lHTTP, lPush := freeAddr(t), freeAddr(t)
		fHTTP, fPush := freeAddr(t), freeAddr(t)
		sp.leaderURL, sp.leaderPsh = "http://"+lHTTP, lPush
		sp.followerURL, sp.fwPush = "http://"+fHTTP, fPush
		// Follower first so the leader's boot-time shipper has a target.
		sp.follower = spawn("-role", "follower", "-shard", name, "-http", fHTTP,
			"-push", fPush, "-data-dir", filepath.Join(dataRoot, name, "follower"))
		waitHTTP(t, sp.followerURL+"/v1/healthz")
		sp.leader = spawn("-role", "leader", "-shard", name, "-http", lHTTP,
			"-push", lPush, "-data-dir", filepath.Join(dataRoot, name, "leader"),
			"-peers", name+"-follower="+sp.followerURL)
		waitHTTP(t, sp.leaderURL+"/v1/healthz")
		shards[i] = sp
	}

	routerShards := make([]Shard, nShards)
	for i, sp := range shards {
		routerShards[i] = Shard{Name: sp.name, Replicas: []Replica{
			{Name: sp.name + "-leader", Svc: api.NewClient(sp.leaderURL, nil)},
			{Name: sp.name + "-follower", Svc: api.NewClient(sp.followerURL, nil)},
		}}
	}
	router, err := NewRouter(routerShards, RouterOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	// The retry transport rides on top: a call that lands in the promote
	// window retries rather than surfacing `unavailable` to the test.
	client := api.NewRetryClient(router, api.RetryOptions{Attempts: 30, Logf: t.Logf})

	ctx := context.Background()
	if _, err := client.CreateUser(ctx, api.CreateUserRequest{ID: "alice"}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.UploadApp(ctx, paperApp(t)); err != nil {
		t.Fatal(err)
	}
	vins := make([]core.VehicleID, nVehicles)
	for i := range vins {
		vins[i] = core.VehicleID(fmt.Sprintf("VIN-%05d", i))
		if _, err := client.BindVehicle(ctx, api.BindVehicleRequest{Owner: "alice", Conf: modelCarConf(vins[i])}); err != nil {
			t.Fatalf("BindVehicle %s: %v", vins[i], err)
		}
	}

	// Vehicles dial their owning shard's pushers — leader first, the
	// follower's address once a promotion opens it — and ack every push
	// after a small think time. Every other victim-shard vehicle holds
	// its acks until the leader is dead, so the kill below always lands
	// mid-flight: a batch that settled first would keep no children
	// across recovery, by design.
	pushAddrs := make(map[string][]string, nShards)
	for _, sp := range shards {
		pushAddrs[sp.name] = []string{sp.leaderPsh, sp.fwPush}
	}
	stop, hold := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	var connected atomic.Int64
	for i, id := range vins {
		owner := router.Ring().Owner(id)
		var gate <-chan struct{}
		if owner == victim && i%2 == 0 {
			gate = hold
		}
		wg.Add(1)
		go func(id core.VehicleID) {
			defer wg.Done()
			runAckingVehicle(id, pushAddrs[owner], gate, stop, &connected)
		}(id)
	}
	defer func() { close(stop); wg.Wait() }()
	waitCond(t, 60*time.Second, func() bool { return connected.Load() == nVehicles })

	op, err := client.BatchDeploy(ctx, api.BatchDeployRequest{
		User: "alice", Vehicles: vins, App: "RemoteControl", IdempotencyKey: "batch-key-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(op.Children) != nShards {
		t.Fatalf("fan-out children = %v, want one per shard", op.Children)
	}
	var victimChild string
	var victimProcs *shardProcs
	for _, cid := range op.Children {
		if strings.HasPrefix(cid, victim+"/") {
			victimChild = cid
		}
	}
	for _, sp := range shards {
		if sp.name == victim {
			victimProcs = sp
		}
	}
	if victimChild == "" || victimProcs == nil {
		t.Fatalf("shard %s missing from fan-out %v", victim, op.Children)
	}

	// Mid-batch: the victim's batch parent has durably placed its
	// per-vehicle children and settled some, but cannot have finished
	// while half its vehicles hold their acks — SIGKILL its leader now,
	// then promote the follower.
	waitCond(t, 60*time.Second, func() bool {
		child, err := client.GetOperation(ctx, victimChild)
		return err == nil && child.Total > 0 && child.VehiclesSucceeded > 0 && !child.Done
	})
	if err := victimProcs.leader.Process.Kill(); err != nil {
		t.Fatalf("killing %s leader: %v", victim, err)
	}
	victimProcs.leader.Wait()
	close(hold)
	res, err := http.Post(victimProcs.followerURL+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("promote returned %d", res.StatusCode)
	}

	// Convergence: the fan-out parent reaches a terminal state — the
	// surviving shards' children succeed, the victim's recovers from the
	// replicated journal and settles every child it had in flight.
	var final api.Operation
	waitCond(t, 120*time.Second, func() bool {
		final, err = client.GetOperation(ctx, op.ID)
		return err == nil && final.Done
	})

	// Zero lost, zero duplicated operations: each shard parent's children
	// cover its vehicles exactly, and the terminal tallies account for
	// every child once.
	totalChildren, totalSucceeded, totalFailed := 0, 0, 0
	succeededBy := make(map[core.VehicleID]bool, nVehicles)
	for _, cid := range final.Children {
		parent, err := client.GetOperation(ctx, cid)
		if err != nil {
			t.Fatalf("child parent %s after failover: %v", cid, err)
		}
		if !parent.Done {
			t.Fatalf("shard parent %s not terminal: %+v", cid, parent)
		}
		if len(parent.Children) != len(parent.Vehicles) {
			t.Errorf("shard parent %s has %d children for %d vehicles", cid, len(parent.Children), len(parent.Vehicles))
		}
		if parent.VehiclesSucceeded+parent.VehiclesFailed != len(parent.Children) {
			t.Errorf("shard parent %s accounting leak: %d + %d != %d children",
				cid, parent.VehiclesSucceeded, parent.VehiclesFailed, len(parent.Children))
		}
		totalChildren += len(parent.Children)
		totalSucceeded += parent.VehiclesSucceeded
		totalFailed += parent.VehiclesFailed
		// A qualified parent comes back with qualified children. Paced
		// under the per-client rate limit (200/s steady per shard).
		for _, ccid := range parent.Children {
			time.Sleep(3 * time.Millisecond)
			child, err := client.GetOperation(ctx, ccid)
			if err != nil {
				t.Fatalf("child %s lost across failover: %v", ccid, err)
			}
			if !child.Done {
				t.Errorf("child %s not terminal after convergence: %+v", ccid, child)
			}
			if child.State == api.StateSucceeded {
				succeededBy[child.Vehicle] = true
			}
		}
	}
	if totalChildren != nVehicles {
		t.Errorf("%d children across shards, want %d — operations lost or duplicated", totalChildren, nVehicles)
	}
	if totalSucceeded+totalFailed != nVehicles {
		t.Errorf("tallies %d + %d != %d vehicles", totalSucceeded, totalFailed, nVehicles)
	}

	// Re-issuing the batch under its idempotency key must re-bind to the
	// SAME per-shard parents — on the promoted leader too, which recovered
	// the binding from the replicated journal — never create duplicates.
	again, err := client.BatchDeploy(ctx, api.BatchDeployRequest{
		User: "alice", Vehicles: vins, App: "RemoteControl", IdempotencyKey: "batch-key-1",
	})
	if err != nil {
		t.Fatalf("idempotent batch re-issue after failover: %v", err)
	}
	if got, want := fmt.Sprint(again.Children), fmt.Sprint(final.Children); got != want {
		t.Errorf("idempotency key re-bound to %s, want %s — duplicate batch created", got, want)
	}

	// Zero lost, zero duplicated install rows: every vehicle holds at
	// most one row for the app, and exactly one wherever its child
	// succeeded. (A vehicle whose child was interrupted may legitimately
	// hold a partial row — its acks died with the leader.)
	for _, id := range vins {
		time.Sleep(3 * time.Millisecond) // stay under the per-client rate limit
		detail, err := client.GetVehicle(ctx, id)
		if err != nil {
			t.Fatalf("GetVehicle %s: %v", id, err)
		}
		rows := 0
		for _, row := range detail.Installed {
			if row.App == "RemoteControl" {
				rows++
			}
		}
		if rows > 1 {
			t.Errorf("vehicle %s holds %d RemoteControl rows — duplicated install", id, rows)
		}
		if succeededBy[id] && rows != 1 {
			t.Errorf("vehicle %s: deploy succeeded but %d install rows survive the failover", id, rows)
		}
	}

	// The promoted follower answers as the shard's leader with a bumped
	// epoch, and a fresh deploy through the router lands on it.
	h, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("federated health after failover = %q: %s", h.Status, h.JournalError)
	}
	var victimVehicle core.VehicleID
	for _, id := range vins {
		if router.Ring().Owner(id) == victim && succeededBy[id] {
			victimVehicle = id
			break
		}
	}
	if victimVehicle != "" {
		fresh, err := client.Uninstall(ctx, api.UninstallRequest{User: "alice", Vehicle: victimVehicle, App: "RemoteControl"})
		if err != nil {
			t.Fatalf("post-failover operation on shard %s: %v", victim, err)
		}
		waitCond(t, 60*time.Second, func() bool {
			got, err := client.GetOperation(ctx, fresh.ID)
			return err == nil && got.Done
		})
	}
	t.Logf("converged: %d succeeded, %d interrupted across %d shards; shard %s failover transparent",
		totalSucceeded, totalFailed, nShards, victim)
}

// runAckingVehicle speaks the ECM wire protocol against the shard's
// pusher addresses, acking every push after a small think time and, when
// gate is non-nil, not before gate closes. It rotates addresses on
// failure, so a promoted follower's listener is found without
// coordination.
func runAckingVehicle(id core.VehicleID, addrs []string, gate, stop <-chan struct{}, connected *atomic.Int64) {
	first := true
	for attempt := 0; ; attempt++ {
		select {
		case <-stop:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", addrs[attempt%len(addrs)], 2*time.Second)
		if err != nil {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		if err := core.WriteMessage(conn, core.Message{Type: core.MsgHello, Payload: []byte(id)}); err != nil {
			conn.Close()
			continue
		}
		if first {
			connected.Add(1)
			first = false
		}
		// Unblock the blocking read when the test tears down.
		done := make(chan struct{})
		go func() {
			select {
			case <-stop:
				conn.Close()
			case <-done:
			}
		}()
	readLoop:
		for {
			msg, err := core.ReadMessage(conn)
			if err != nil {
				break
			}
			switch msg.Type {
			case core.MsgInstall, core.MsgUpgrade, core.MsgUninstall:
				time.Sleep(10 * time.Millisecond) // think time keeps a batch in flight
				if gate != nil {
					select {
					case <-gate:
					case <-stop:
						break readLoop
					}
				}
				if core.WriteMessage(conn, msg.Ack()) != nil {
					break readLoop
				}
			}
		}
		conn.Close()
		close(done)
	}
}

// freeAddr reserves a listening address and releases it for a child
// process to claim.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// waitHTTP polls a URL until it answers 200.
func waitHTTP(t *testing.T, url string) {
	t.Helper()
	waitCond(t, 30*time.Second, func() bool {
		res, err := http.Get(url)
		if err != nil {
			return false
		}
		res.Body.Close()
		return res.StatusCode == http.StatusOK
	})
}

// waitCond is waitFor with a caller-chosen deadline (process spawns and
// thousand-vehicle convergence outlast the default).
func waitCond(t *testing.T, limit time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
