package server

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
)

// Crash/recovery matrix of the rollout state machine. Each test builds
// a journaled server, drives a rollout to a precise point, kills it
// hard (Journal().Crash()), and reopens on the same directory with the
// fleet reconnected. The reopened server must resume the state machine
// from its durable records: forward from a clean wave boundary,
// rollback of a wave that died with partial upgrades committed, and
// rollback-to-completion when the crash interrupted the rollback
// itself.

// openFleetServer builds a journaled server on dir with the fleet
// bound and the Counter pair uploaded. The caller connects vehicles.
func openFleetServer(t *testing.T, dir string, ids []core.VehicleID) *Server {
	t.Helper()
	s := openRecovered(t, dir)
	t.Cleanup(func() { s.Close() })
	if err := s.Store().AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	uploadCounterPair(t, s)
	for _, id := range ids {
		if err := s.Store().BindVehicle("alice", modelCarConf(id)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// reopenWithFleet reopens dir with every vehicle already connected and
// acking, so a rollout resumed during journal replay finds its fleet
// reachable the moment its goroutine launches.
func reopenWithFleet(t *testing.T, dir string, ids []core.VehicleID) *Server {
	t.Helper()
	s := New()
	t.Cleanup(func() { s.Close() })
	for _, id := range ids {
		connectScriptedVehicle(t, s, id, ackAll)
	}
	if err := s.OpenJournal(dir); err != nil {
		t.Fatal(err)
	}
	return s
}

// waitRolloutDone polls the in-process registry until the rollout
// closes.
func waitRolloutDone(t *testing.T, s *Server, id string) api.RolloutStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, ok := s.Rollout(id)
		if !ok {
			t.Fatalf("rollout %s lost", id)
		}
		if st.Done {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("rollout %s never closed: %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRolloutRecoveryResumesCleanBoundary: the server dies while wave 2
// is in flight but before any of its upgrades committed. The promoted
// wave-1 boundary is durable and clean, so recovery resumes the rollout
// forward and it completes.
func TestRolloutRecoveryResumesCleanBoundary(t *testing.T) {
	fleet := []core.VehicleID{"VIN-RC1", "VIN-RC2", "VIN-RC3"}
	dir := t.TempDir()
	a := openFleetServer(t, dir, fleet)
	ordered := bucketFleet(fleet)
	canary := ordered[0]

	var mu sync.Mutex
	pushed := make(map[core.VehicleID]bool)
	bothPushed := make(chan struct{})
	for _, id := range fleet {
		id := id
		script := ackAll
		if id != canary {
			// Wave-2 vehicles: the swap frame arrives but is never
			// acknowledged, so no upgrade commits before the kill.
			script = func(_ int, msg core.Message) *core.Message {
				switch msg.Type {
				case core.MsgInstall:
					r := msg.Ack()
					return &r
				case core.MsgUpgrade:
					mu.Lock()
					pushed[id] = true
					if len(pushed) == 2 {
						close(bothPushed)
					}
					mu.Unlock()
				}
				return nil
			}
		}
		connectScriptedVehicle(t, a, id, script)
	}
	c := newV1Client(t, a)

	deployCounterFleet(t, a, c, fleet)

	st, err := a.StartRollout(api.RolloutRequest{
		User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v2",
		Waves: []api.RolloutWave{{Count: 1}, {Fraction: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both wave-2 pushes on the wire means the wave-1 promotion record
	// is durable (it gates the wave-2 launch).
	<-bothPushed
	a.Journal().Crash()

	b := reopenWithFleet(t, dir, fleet)
	final := waitRolloutDone(t, b, st.ID)
	if final.State != api.RolloutSucceeded {
		t.Fatalf("resumed rollout = %+v", final)
	}
	if !final.Waves[0].Promoted || !final.Waves[1].Promoted {
		t.Fatalf("waves after resume = %+v", final.Waves)
	}
	// The re-run wave accounts exactly for its two targets (I2).
	op, ok := b.Operation(final.Waves[1].BatchOp)
	if !ok || op.VehiclesSucceeded != 2 || op.VehiclesFailed != 0 {
		t.Fatalf("resumed wave-2 batch op = %+v ok=%v", op, ok)
	}
	wantApp(t, b, fleet, "Counter-v2", "Counter-v1")
}

// TestRolloutRecoveryRollsBackDirtyWave: the server dies mid-wave-2
// with one of the wave's upgrades already committed. That wave's health
// window died with the process, so recovery must not resume forward: it
// rolls the whole fleet back to the old version.
func TestRolloutRecoveryRollsBackDirtyWave(t *testing.T) {
	restoreDelay := rolloutRetryDelay
	rolloutRetryDelay = 10 * time.Millisecond
	// A cleanup, not a defer: it must run after the servers' Close (also
	// cleanups, registered later) has waited for their rollback
	// goroutines, which read the delay.
	t.Cleanup(func() { rolloutRetryDelay = restoreDelay })

	fleet := []core.VehicleID{"VIN-RD1", "VIN-RD2", "VIN-RD3"}
	dir := t.TempDir()
	a := openFleetServer(t, dir, fleet)
	ordered := bucketFleet(fleet)
	canary, committer, staller := ordered[0], ordered[1], ordered[2]

	for _, id := range fleet {
		script := ackAll
		if id == staller {
			// Its swap frame is never acknowledged, pinning wave 2 open.
			script = func(_ int, msg core.Message) *core.Message {
				if msg.Type == core.MsgInstall {
					r := msg.Ack()
					return &r
				}
				return nil
			}
		}
		connectScriptedVehicle(t, a, id, script)
	}
	c := newV1Client(t, a)

	deployCounterFleet(t, a, c, fleet)

	st, err := a.StartRollout(api.RolloutRequest{
		User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v2",
		Waves: []api.RolloutWave{{Count: 1}, {Fraction: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the committer's upgrade to commit, then a durable
	// barrier: the FIFO journal now holds the commit record on disk.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := a.Store().InstalledApp(committer, "Counter-v2"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never committed Counter-v2", committer)
		}
		time.Sleep(2 * time.Millisecond)
	}
	barrier(t, a, "sentinel")
	a.Journal().Crash()
	_ = canary

	b := reopenWithFleet(t, dir, fleet)
	final := waitRolloutDone(t, b, st.ID)
	if final.State != api.RolloutRolledBack {
		t.Fatalf("recovered rollout = %+v", final)
	}
	if final.Error == nil || final.Error.Code != api.CodeRolloutUnhealthy {
		t.Fatalf("error = %+v, want %s", final.Error, api.CodeRolloutUnhealthy)
	}
	if !strings.Contains(final.GateReason, "interrupted wave 2") {
		t.Fatalf("gate reason = %q, want the interrupted-wave diagnosis", final.GateReason)
	}
	wantApp(t, b, fleet, "Counter-v1", "Counter-v2")
}

// TestRolloutRecoveryResumesRollback is the acceptance shape: the gate
// trips, the fleet rollback starts, and the server dies while the
// canary's downgrade is still unacknowledged. The durable
// rollout_rolled_back pivot makes recovery finish the rollback, and the
// fleet converges all-old (I5) despite the crash-restart.
func TestRolloutRecoveryResumesRollback(t *testing.T) {
	restoreDelay := rolloutRetryDelay
	rolloutRetryDelay = 10 * time.Millisecond
	// A cleanup, not a defer: it must run after the servers' Close (also
	// cleanups, registered later) has waited for their rollback
	// goroutines, which read the delay.
	t.Cleanup(func() { rolloutRetryDelay = restoreDelay })

	fleet := []core.VehicleID{"VIN-RR1", "VIN-RR2", "VIN-RR3"}
	dir := t.TempDir()
	a := openFleetServer(t, dir, fleet)
	ordered := bucketFleet(fleet)
	canary, prober := ordered[0], ordered[1]

	downgradeSeen := make(chan struct{})
	var once sync.Once
	for _, id := range fleet {
		script := ackAll
		switch id {
		case canary:
			upgrades := 0
			script = func(_ int, msg core.Message) *core.Message {
				switch msg.Type {
				case core.MsgInstall:
					r := msg.Ack()
					return &r
				case core.MsgUpgrade:
					upgrades++
					if upgrades == 1 {
						// Forward swap to v2: acknowledge.
						r := msg.Ack()
						return &r
					}
					// The rollback's downgrade: stall it so the crash
					// lands mid-rollback.
					once.Do(func() { close(downgradeSeen) })
					return nil
				}
				return nil
			}
		case prober:
			script = func(_ int, msg core.Message) *core.Message {
				switch msg.Type {
				case core.MsgInstall:
					r := msg.Ack()
					return &r
				case core.MsgUpgrade:
					r := msg.Nack("rollback: injected probe failure")
					return &r
				}
				return nil
			}
		}
		connectScriptedVehicle(t, a, id, script)
	}
	c := newV1Client(t, a)

	deployCounterFleet(t, a, c, fleet)

	st, err := a.StartRollout(api.RolloutRequest{
		User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v2",
		Waves: []api.RolloutWave{{Count: 1}, {Count: 2}, {Fraction: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The canary's downgrade frame is on the wire, so the pivot record
	// is durable (rollbackRollout journals it before pushing).
	<-downgradeSeen
	a.Journal().Crash()

	b := reopenWithFleet(t, dir, fleet)
	final := waitRolloutDone(t, b, st.ID)
	if final.State != api.RolloutRolledBack {
		t.Fatalf("recovered rollout = %+v", final)
	}
	if final.Error == nil || final.Error.Code != api.CodeRolloutUnhealthy {
		t.Fatalf("error = %+v, want %s", final.Error, api.CodeRolloutUnhealthy)
	}
	if !strings.Contains(final.GateReason, "probe") && !strings.Contains(final.GateReason, "failure rate") {
		t.Fatalf("gate reason = %q, want the original trip preserved across the crash", final.GateReason)
	}
	// Zero vehicles on the new version after the crash-interrupted
	// rollback finished.
	wantApp(t, b, fleet, "Counter-v1", "Counter-v2")
}

// TestRolloutRecoveryTerminalStateSurvives: a rollout that already
// closed before the crash reopens closed with the same outcome, and a
// new rollout on the recovered server gets a fresh id.
func TestRolloutRecoveryTerminalStateSurvives(t *testing.T) {
	fleet := []core.VehicleID{"VIN-RT1", "VIN-RT2"}
	dir := t.TempDir()
	a := openFleetServer(t, dir, fleet)
	for _, id := range fleet {
		connectScriptedVehicle(t, a, id, ackAll)
	}
	c := newV1Client(t, a)
	ctx := context.Background()
	deployCounterFleet(t, a, c, fleet)

	st, err := a.StartRollout(api.RolloutRequest{
		User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v2",
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if final, err := waitRollout(wctx, newV1Client(t, a), st.ID); err != nil || final.State != api.RolloutSucceeded {
		t.Fatalf("rollout = %+v, %v", final, err)
	}
	barrier(t, a, "sentinel")
	a.Journal().Crash()

	b := reopenWithFleet(t, dir, fleet)
	got, ok := b.Rollout(st.ID)
	if !ok || got.State != api.RolloutSucceeded || !got.Done {
		t.Fatalf("terminal rollout after recovery = %+v ok=%v", got, ok)
	}
	for i, w := range got.Waves {
		if !w.Promoted {
			t.Fatalf("wave %d lost its promotion: %+v", i+1, w)
		}
	}
	// The id sequence continues past the recovered rollout.
	st2, err := b.StartRollout(api.RolloutRequest{
		User: "alice", Vehicles: fleet, From: "Counter-v2", To: "Counter-v1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID == st.ID {
		t.Fatalf("recovered server reused rollout id %s", st2.ID)
	}
}

// TestRolloutCloseLeavesVerdictToRecovery: a graceful Close while a
// rollout is mid-wave or mid-rollback fails the children in flight —
// because the server is going away, not because the fleet is unhealthy
// or the rollback finished. Close waits for the state machine with the
// journal still open, so the machine must stop without journaling a
// verdict: the reopened server finds the rollout open and resumes it by
// the recovery rules, forward from the clean boundary or on with the
// rollback, until the whole fleet is on one version.
func TestRolloutCloseLeavesVerdictToRecovery(t *testing.T) {
	restoreDelay := rolloutRetryDelay
	rolloutRetryDelay = 10 * time.Millisecond
	t.Cleanup(func() { rolloutRetryDelay = restoreDelay })

	for _, tc := range []struct {
		name string
		// The second wave's vehicle nacks its upgrade (tripping the gate)
		// or not; the frame that stalls until Close is upgrade number
		// stallOn of vehicle stallVehicle (in wave order).
		nackSecond            bool
		stallVehicle, stallOn int
		closed, final         api.RolloutState
		present, absent       core.AppName
	}{
		{"mid-wave", false, 1, 1, api.RolloutRunning, api.RolloutSucceeded, "Counter-v2", "Counter-v1"},
		{"mid-rollback", true, 0, 2, api.RolloutRollingBack, api.RolloutRolledBack, "Counter-v1", "Counter-v2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleet := bucketFleet([]core.VehicleID{"VIN-CL1", "VIN-CL2", "VIN-CL3"})
			dir := t.TempDir()
			a := openFleetServer(t, dir, fleet)
			stalled := make(chan struct{})
			for i, id := range fleet {
				upgrades := 0
				connectScriptedVehicle(t, a, id, func(_ int, msg core.Message) *core.Message {
					r := msg.Ack()
					if msg.Type == core.MsgUpgrade {
						upgrades++
						switch {
						case i == tc.stallVehicle && upgrades == tc.stallOn:
							close(stalled)
							return nil
						case i == 1 && tc.nackSecond:
							r = msg.Nack("rollback: injected probe failure")
						}
					}
					return &r
				})
			}
			deployCounterFleet(t, a, newV1Client(t, a), fleet)
			st, err := a.StartRollout(api.RolloutRequest{
				User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v2",
				Waves: []api.RolloutWave{{Count: 1}, {Count: 2}, {Fraction: 1}},
			})
			if err != nil {
				t.Fatal(err)
			}
			<-stalled
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if got, _ := a.Rollout(st.ID); got.Done || got.State != tc.closed {
				t.Fatalf("rollout after Close = %+v, want it open and %s", got, tc.closed)
			}

			b := reopenWithFleet(t, dir, fleet)
			if final := waitRolloutDone(t, b, st.ID); final.State != tc.final {
				t.Fatalf("resumed rollout = %+v, want %s", final, tc.final)
			}
			wantApp(t, b, fleet, tc.present, tc.absent)
		})
	}
}
