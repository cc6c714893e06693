package server

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/journal"
)

// A rollout is an operation: one registry, one id space, one retention
// rule. These tests pin the operation view of a rollout against its
// wave view, the retention of its wave batches, the id space across a
// restart, and recovery of data directories whose rollouts still carry
// the "ro-" ids an older server minted.

// checkRolloutViews fetches both views of a rollout and fails unless
// they agree on every field they share.
func checkRolloutViews(t *testing.T, s *Server, id string) (api.Operation, api.RolloutStatus) {
	t.Helper()
	op, ok := s.Operation(id)
	st, err := s.GetRollout(id)
	if !ok || err != nil {
		t.Fatalf("rollout %s: operation found=%v, wave view %v", id, ok, err)
	}
	state := map[api.RolloutState]api.OperationState{
		api.RolloutRunning:     api.StateRunning,
		api.RolloutRollingBack: api.StateRunning,
		api.RolloutSucceeded:   api.StateSucceeded,
		api.RolloutRolledBack:  api.StateFailed,
	}[st.State]
	if op.Kind != api.OpRollout || op.ID != st.ID || op.User != st.User || op.App != st.From ||
		op.ToApp != st.To || op.State != state || op.Done != st.Done ||
		!slices.Equal(op.Vehicles, st.Vehicles) || !reflect.DeepEqual(op.Error, st.Error) {
		t.Fatalf("operation view %+v disagrees with wave view %+v", op, st)
	}
	return op, st
}

// waveBatches lists a rollout's wave batches in launch order: the
// forward batch of every started wave, then the rollback batches in
// reverse wave order.
func waveBatches(st api.RolloutStatus) []string {
	var ids []string
	for _, w := range st.Waves {
		if w.BatchOp != "" {
			ids = append(ids, w.BatchOp)
		}
	}
	for i := len(st.Waves) - 1; i >= 0; i-- {
		if id := st.Waves[i].RollbackOp; id != "" {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestRolloutKeepsWaveBatches: with a registry retention far below the
// rollout's size, every wave batch and every one of its children is
// still there when the rollout reports done — they are the rollout's
// descendants, and a running rollout's descendants are not evicted.
func TestRolloutKeepsWaveBatches(t *testing.T) {
	oldRetention := opRetention
	opRetention = 4
	t.Cleanup(func() { opRetention = oldRetention })
	fleet := []core.VehicleID{"VIN-KW1", "VIN-KW2", "VIN-KW3", "VIN-KW4"}
	s := newServerWithFleet(t, fleet)
	uploadCounterPair(t, s)
	for _, id := range fleet {
		connectScriptedVehicle(t, s, id, ackAll)
	}
	c := newV1Client(t, s)
	ctx := context.Background()
	deployCounterFleet(t, s, c, fleet)

	st, err := c.StartRollout(ctx, api.RolloutRequest{
		User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v2",
		Waves: []api.RolloutWave{{Count: 1}, {Count: 2}, {Fraction: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	final, err := waitRollout(wctx, c, st.ID)
	if err != nil || final.State != api.RolloutSucceeded {
		t.Fatalf("rollout = %+v, %v", final, err)
	}
	for i, w := range final.Waves {
		batch, ok := s.Operation(w.BatchOp)
		if !ok {
			t.Errorf("wave %d batch %s evicted before its rollout settled", i+1, w.BatchOp)
			continue
		}
		for _, cid := range batch.Children {
			if _, ok := s.Operation(cid); !ok {
				t.Errorf("wave %d child %s evicted before its rollout settled", i+1, cid)
			}
		}
	}
}

// TestRolloutOperationView: GET /v1/operations/{id} answers for a
// rollout — kind rollout, the fleet in bucket order, the wave batches as
// Children — and agrees with the wave view while it runs, once it
// settled (succeeded, or failed with the rollout_* code) and after a
// crash and reopen. Statz counts it like any other operation.
func TestRolloutOperationView(t *testing.T) {
	restoreDelay := rolloutRetryDelay
	rolloutRetryDelay = 10 * time.Millisecond
	t.Cleanup(func() { rolloutRetryDelay = restoreDelay })

	for _, tc := range []struct {
		name              string
		nackCanary, abort bool
		state             api.RolloutState
		code              api.ErrorCode
	}{
		{"succeeded", false, false, api.RolloutSucceeded, ""},
		{"unhealthy", true, false, api.RolloutRolledBack, api.CodeRolloutUnhealthy},
		{"aborted", false, true, api.RolloutRolledBack, api.CodeRolloutAborted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleet := bucketFleet([]core.VehicleID{"VIN-OV1", "VIN-OV2", "VIN-OV3"})
			dir := t.TempDir()
			s := openFleetServer(t, dir, fleet)
			seen, release := make(chan struct{}), make(chan struct{})
			for i, id := range fleet {
				upgrades := 0
				connectScriptedVehicle(t, s, id, func(_ int, msg core.Message) *core.Message {
					r := msg.Ack()
					if msg.Type == core.MsgUpgrade && i == 0 {
						upgrades++
						if upgrades == 1 {
							// Hold the canary's forward swap: the rollout is
							// observably running, and an abort lands mid-wave.
							close(seen)
							<-release
							if tc.nackCanary {
								r = msg.Nack("rollback: injected probe failure")
							}
						}
					}
					return &r
				})
			}
			deployCounterFleet(t, s, newV1Client(t, s), fleet)

			st, err := s.StartRollout(api.RolloutRequest{
				User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v2",
				Waves: []api.RolloutWave{{Count: 1}, {Fraction: 1}},
			})
			if err != nil {
				t.Fatal(err)
			}
			<-seen
			if op, _ := checkRolloutViews(t, s, st.ID); op.State != api.StateRunning || !slices.Equal(op.Vehicles, fleet) {
				t.Fatalf("started rollout operation = %+v, want running over %v", op, fleet)
			}
			if tc.abort {
				if _, err := s.AbortRollout(st.ID); err != nil {
					t.Fatal(err)
				}
			}
			close(release)
			waitRolloutDone(t, s, st.ID)

			op, final := checkRolloutViews(t, s, st.ID)
			if final.State != tc.state {
				t.Fatalf("final = %+v, want %s", final, tc.state)
			}
			var code api.ErrorCode
			if op.Error != nil {
				code = op.Error.Code
			}
			if code != tc.code {
				t.Fatalf("operation error = %+v, want code %q", op.Error, tc.code)
			}
			if len(op.Children) == 0 || !slices.Equal(op.Children, waveBatches(final)) {
				t.Fatalf("children = %v, want the wave batches %v", op.Children, waveBatches(final))
			}
			sz := s.Statz()
			var settled uint64
			for _, n := range sz.OpsSettled {
				settled += n
			}
			if sz.OpsCreated != settled || sz.OpsOpen != 0 {
				t.Fatalf("statz after the rollout settled: %d created, %d settled, %d open", sz.OpsCreated, settled, sz.OpsOpen)
			}

			barrier(t, s, "sentinel")
			s.Journal().Crash()
			b := reopenWithFleet(t, dir, fleet)
			if got, _ := checkRolloutViews(t, b, st.ID); !reflect.DeepEqual(got, op) {
				t.Fatalf("recovered rollout operation = %+v, want %+v", got, op)
			}
		})
	}
}

// TestListRolloutsOverMixedRegistry: ListRollouts pages over exactly the
// rollouts of a registry that interleaves them with batches (theirs and
// plain ones), oldest first, at any page size.
func TestListRolloutsOverMixedRegistry(t *testing.T) {
	fleet := []core.VehicleID{"VIN-LR1", "VIN-LR2"}
	s := newServerWithFleet(t, fleet)
	uploadCounterPair(t, s)
	for _, id := range fleet {
		connectScriptedVehicle(t, s, id, ackAll)
	}
	c := newV1Client(t, s)
	ctx := context.Background()
	deployCounterFleet(t, s, c, fleet)

	var want []string
	for i := 0; i < 3; i++ {
		st, err := s.StartRollout(api.RolloutRequest{User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v2"})
		if err != nil {
			t.Fatal(err)
		}
		if final := waitRolloutDone(t, s, st.ID); final.State != api.RolloutSucceeded {
			t.Fatalf("rollout %d = %+v", i+1, final)
		}
		want = append(want, st.ID)
		op, err := c.BatchUpgrade(ctx, api.BatchUpgradeRequest{User: "alice", Vehicles: fleet, From: "Counter-v2", To: "Counter-v1"})
		if err != nil {
			t.Fatal(err)
		}
		if final, err := c.WaitOperation(ctx, op.ID, 0); err != nil || final.State != api.StateSucceeded {
			t.Fatalf("batch back to Counter-v1 = %+v, %v", final, err)
		}
	}
	for _, size := range []int{1, 2} {
		var got []string
		for page := (api.Page{Size: size}); ; {
			list, err := c.ListRollouts(ctx, page)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range list.Rollouts {
				got = append(got, st.ID)
			}
			if list.NextPageToken == "" {
				break
			}
			page.Token = list.NextPageToken
		}
		if !slices.Equal(got, want) {
			t.Errorf("page size %d: listed %v, want %v", size, got, want)
		}
	}
}

// seedFleetDir writes a data directory holding alice, the fleet plus
// bystander (bound, not deployed to), the Counter pair, Counter-v1
// deployed on the fleet and upgraded to Counter-v2 on the vehicles in
// upgraded; the server is then killed. It returns the id the next
// operation of that server would have taken.
func seedFleetDir(t *testing.T, fleet []core.VehicleID, bystander core.VehicleID, upgraded ...core.VehicleID) (dir, nextID string) {
	t.Helper()
	dir = t.TempDir()
	a := openFleetServer(t, dir, append([]core.VehicleID{bystander}, fleet...))
	for _, id := range fleet {
		connectScriptedVehicle(t, a, id, ackAll)
	}
	c := newV1Client(t, a)
	ctx := context.Background()
	deployCounterFleet(t, a, c, fleet)
	for _, id := range upgraded {
		op, err := c.Upgrade(ctx, api.UpgradeRequest{User: "alice", Vehicle: id, From: "Counter-v1", To: "Counter-v2"})
		if err != nil {
			t.Fatal(err)
		}
		if final, err := c.WaitOperation(ctx, op.ID, 0); err != nil || final.State != api.StateSucceeded {
			t.Fatalf("upgrade of %s = %+v, %v", id, final, err)
		}
	}
	barrier(t, a, "seeded")
	nextID = fmt.Sprintf("op-%08d", len(a.OperationIDs())+1)
	a.Journal().Crash()
	return dir, nextID
}

// appendRecords appends records to a data directory's log, as the server
// that wrote it would have before it died.
func appendRecords(t *testing.T, dir string, recs ...journal.Record) {
	t.Helper()
	j, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := waitDurable(j.Append(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryRaisesOpSeqPastRollouts: a rollout has no op_created
// record, so recovery must raise the sequence past its id by its own
// records. Here the log ends at rollout_started — the crash landed
// before the first wave batch existed — and the first operation of the
// reopened server must not take the open rollout's id; the rollout
// resumes and completes.
func TestRecoveryRaisesOpSeqPastRollouts(t *testing.T) {
	fleet := bucketFleet([]core.VehicleID{"VIN-SQ1", "VIN-SQ2"})
	const bystander = "VIN-SQ-X"
	dir, id := seedFleetDir(t, fleet, bystander)
	appendRecords(t, dir, journal.RolloutStartedRec(id, "alice", "Counter-v1", "Counter-v2", fleet, []int{1, 2}, nil))

	b := reopenWithFleet(t, dir, fleet)
	op, err := b.Deploy(api.DeployRequest{User: "alice", Vehicle: bystander, App: "Counter-v1"})
	if err != nil {
		t.Fatal(err)
	}
	if op.ID == id {
		t.Fatalf("the first operation after the restart took the open rollout's id %s", id)
	}
	if final := waitRolloutDone(t, b, id); final.State != api.RolloutSucceeded {
		t.Fatalf("resumed rollout = %+v", final)
	}
	wantApp(t, b, fleet, "Counter-v2", "Counter-v1")
}

// TestRolloutRecoveryReadsOlderDataDirectory: a data directory written
// by a server that minted rollout ids of its own ("ro-%08d") still
// opens, and its rollout resumes by the same boundary matrix under its
// old id. A snapshot taken with the foreign id in the registry, and one
// more reopen, keep every operation.
func TestRolloutRecoveryReadsOlderDataDirectory(t *testing.T) {
	restoreDelay := rolloutRetryDelay
	rolloutRetryDelay = 10 * time.Millisecond
	t.Cleanup(func() { rolloutRetryDelay = restoreDelay })
	const legacy = "ro-00000001"

	for _, tc := range []struct {
		name  string
		tail  []journal.Record
		state api.RolloutState
		// present/absent: the version every vehicle converges on; "" for
		// a terminal rollout, which moves nothing.
		present, absent core.AppName
	}{
		{"clean boundary resumes forward", nil, api.RolloutSucceeded, "Counter-v2", "Counter-v1"},
		{"rolled back resumes the rollback", []journal.Record{journal.RolloutRolledBackRec(legacy, "operator abort")},
			api.RolloutRolledBack, "Counter-v1", "Counter-v2"},
		{"done is terminal", []journal.Record{journal.RolloutDoneRec(legacy, "succeeded")}, api.RolloutSucceeded, "", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleet := bucketFleet([]core.VehicleID{"VIN-LG1", "VIN-LG2", "VIN-LG3"})
			dir, _ := seedFleetDir(t, fleet, "VIN-LG-X", fleet[0])
			appendRecords(t, dir, append([]journal.Record{
				journal.RolloutStartedRec(legacy, "alice", "Counter-v1", "Counter-v2", fleet, []int{1, 3}, nil),
				journal.WavePromotedRec(legacy, 1),
			}, tc.tail...)...)

			b := reopenWithFleet(t, dir, fleet)
			final := waitRolloutDone(t, b, legacy)
			if final.State != tc.state {
				t.Fatalf("recovered rollout = %+v, want %s", final, tc.state)
			}
			op, _ := checkRolloutViews(t, b, legacy)
			for _, cid := range op.Children {
				if opSeqOf(cid) == 0 {
					t.Fatalf("resumed rollout minted the foreign id %s", cid)
				}
			}
			if tc.present != "" {
				wantApp(t, b, fleet, tc.present, tc.absent)
			}

			if err := b.Journal().Snapshot(); err != nil {
				t.Fatal(err)
			}
			before := b.Operations()
			b.Journal().Crash()
			c := reopenWithFleet(t, dir, fleet)
			for _, want := range before {
				if want.Kind == api.OpRollout {
					continue // terminal rollouts are history to a snapshot
				}
				if got, ok := c.Operation(want.ID); !ok || got.State != want.State {
					t.Errorf("%s after snapshot and reopen = %+v (found %v), want %s", want.ID, got, ok, want.State)
				}
			}
		})
	}
}
