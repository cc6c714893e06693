package server

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/journal"
)

// Disk-fault durability policy: when the journal's disk fails (full or
// erroring), the server refuses new durable mutations, health degrades
// so orchestrators route away, and a crash in that state recovers
// cleanly — exactly the acknowledged prefix, no torn tail.

// TestRecoveryCrashWhileDiskFull: mutations acknowledged before the
// disk filled survive the crash; the mutation the full disk rejected is
// gone; the reopened server is healthy and writable again.
func TestRecoveryCrashWhileDiskFull(t *testing.T) {
	dir := t.TempDir()
	a := openRecovered(t, dir)
	if err := a.Store().AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	a.Journal().SetFault(&journal.FaultInjection{
		WriteErr: func(int) error { return errors.New("write: no space left on device") },
	})
	if err := a.Store().AddUser("bob"); err == nil {
		t.Fatal("durable mutation acknowledged on a full disk")
	}
	if h := a.Health(); h.Status != "degraded" || h.JournalError == "" {
		t.Fatalf("health with a full disk = %+v, want degraded", h)
	}
	a.Journal().Crash()

	b := openRecovered(t, dir)
	defer b.Close()
	st := b.RecoveryStats()
	if st.TornTail {
		t.Fatalf("disk-full crash left a torn tail: %+v", st)
	}
	if _, ok := b.Store().User("alice"); !ok {
		t.Fatal("acknowledged user lost")
	}
	if _, ok := b.Store().User("bob"); ok {
		t.Fatal("rejected mutation resurrected by recovery")
	}
	if h := b.Health(); h.Status != "ok" {
		t.Fatalf("recovered health = %+v", h)
	}
	if err := b.Store().AddUser("carol"); err != nil {
		t.Fatalf("recovered server refuses writes: %v", err)
	}
}

// TestRolloutStartRefusedOnFullDisk: a rollout whose write-ahead
// rollout_started record cannot commit must not launch — the registry
// keeps no trace of it.
func TestRolloutStartRefusedOnFullDisk(t *testing.T) {
	fleet := []core.VehicleID{"VIN-DF1", "VIN-DF2"}
	dir := t.TempDir()
	s := openFleetServer(t, dir, fleet)
	for _, id := range fleet {
		connectScriptedVehicle(t, s, id, ackAll)
	}
	c := newV1Client(t, s)
	deployCounterFleet(t, s, c, fleet)

	s.Journal().SetFault(&journal.FaultInjection{
		WriteErr: func(int) error { return errors.New("write: no space left on device") },
	})
	_, err := s.StartRollout(api.RolloutRequest{
		User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v2",
	})
	if err == nil {
		t.Fatal("rollout started without a durable rollout_started record")
	}
	for _, op := range s.Operations() {
		if op.Kind == api.OpRollout {
			t.Fatalf("failed rollout left a registry entry: %+v", op)
		}
	}
	wantApp(t, s, fleet, "Counter-v1", "Counter-v2")
}

// TestStageCommitFailureInStatus: a deploy whose stage record cannot
// commit staged, so it owns the app's Status, and the commit failure is
// reported there — the deploy does not read as complete.
func TestStageCommitFailureInStatus(t *testing.T) {
	fleet := []core.VehicleID{"VIN-SF"}
	s := openFleetServer(t, t.TempDir(), fleet)
	connectScriptedVehicle(t, s, fleet[0], ackAll)
	c := newV1Client(t, s)
	s.Journal().SetFault(&journal.FaultInjection{
		WriteErr: func(int) error { return errors.New("write: no space left on device") },
	})
	ctx := context.Background()
	op, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: fleet[0], App: "Counter-v1"})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.WaitOperation(ctx, op.ID, 0); err != nil || final.State != api.StateFailed {
		t.Fatalf("deploy on a full disk = %+v, %v", final, err)
	}
	st := s.Status(fleet[0], "Counter-v1")
	if st.Complete() || len(st.Failures) != 1 || !strings.Contains(st.Failures[0], "no space left") {
		t.Fatalf("status after the failed stage commit = %+v", st)
	}
}

// TestFailedCommitNotPromotable: the synchronous follower applies a
// commit's chunk beside the leader's own sync, so when that sync fails
// the follower already holds bytes whose tickets report an error. The
// shipper rewrites the follower from the leader's durable prefix, and a
// promotion of the replica directory recovers exactly the acknowledged
// mutations — the rejected one does not come back on the new leader.
func TestFailedCommitNotPromotable(t *testing.T) {
	ldir, rdir := t.TempDir(), t.TempDir()
	a := openRecovered(t, ldir)
	r, err := journal.OpenReplica(rdir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sh, err := a.StartReplication([]journal.Follower{{Name: "f1", T: journal.LocalTransport{R: r}}},
		journal.ShipperOptions{Synchronous: true})
	if err != nil {
		t.Fatal(err)
	}
	inSync := func() bool {
		repl := a.Health().Replication
		return len(repl) == 1 && repl[0].LagBytes == 0 && repl[0].LastError == ""
	}
	waitFor(t, inSync)
	for _, u := range []core.UserID{"alice", "bob"} {
		if err := a.Store().AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, inSync)
	acked := r.State().Size
	resyncs := sh.Status()[0].Resyncs

	// The leader's sync fails only once the follower has the chunk.
	var ahead atomic.Bool
	a.Journal().SetFault(&journal.FaultInjection{SyncErr: func() error {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if r.State().Size > acked {
				ahead.Store(true)
				break
			}
		}
		return errors.New("fsync: input/output error")
	}})
	if err := a.Store().AddUser("mallory"); err == nil {
		t.Fatal("mutation acknowledged although its commit failed")
	}
	if !ahead.Load() {
		t.Fatal("the follower never held the chunk while the leader's sync was pending: nothing to heal")
	}
	if h := a.Health(); h.Status != "degraded" {
		t.Fatalf("health after a failed commit = %+v, want degraded", h)
	}
	waitFor(t, func() bool { return sh.Status()[0].Resyncs > resyncs && r.State().Size == acked })
	// What the shipper counts is what healthz and statz report.
	if n, h, z := sh.Status()[0].AsyncCommits, a.Health().Replication[0].AsyncCommits, a.Statz().ReplAsyncCommits; h != n || z != n {
		t.Fatalf("async commits: shipper %d, healthz %d, statz %d", n, h, z)
	}
	a.Journal().Crash()
	sh.Close()

	b := openRecovered(t, rdir)
	defer b.Close()
	if st := b.RecoveryStats(); st.TornTail {
		t.Fatalf("promoted replica has a torn tail: %+v", st)
	}
	for _, u := range []core.UserID{"alice", "bob"} {
		if _, ok := b.Store().User(u); !ok {
			t.Fatalf("acknowledged user %s lost on the promoted replica", u)
		}
	}
	if _, ok := b.Store().User("mallory"); ok {
		t.Fatal("the failed commit's record survived on the promoted replica")
	}
}
