package server

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/journal"
)

// A rollout is an operation: one registry, one id space, one retention
// rule, one resource that carries its waves. These tests pin the
// operation a rollout is, the retention of its wave batches, the id
// space across a restart, the rollout across compaction, the order of
// its records and its state changes, and recovery of data directories
// whose rollouts still carry the "ro-" ids an older server minted.

// rolloutOp fetches a rollout operation and fails unless it is one,
// with its wave progress.
func rolloutOp(t *testing.T, s *Server, id string) api.Operation {
	t.Helper()
	op, ok := s.Operation(id)
	if !ok || op.Kind != api.OpRollout || op.Rollout == nil {
		t.Fatalf("rollout %s = %+v (found %v), want a rollout operation with its waves", id, op, ok)
	}
	return op
}

// waveBatches lists a rollout's wave batches in launch order: the
// forward batch of every started wave, then the rollback batches in
// reverse wave order.
func waveBatches(op api.Operation) []string {
	var ids []string
	waves := op.Rollout.Waves
	for _, w := range waves {
		if w.BatchOp != "" {
			ids = append(ids, w.BatchOp)
		}
	}
	for i := len(waves) - 1; i >= 0; i-- {
		if id := waves[i].RollbackOp; id != "" {
			ids = append(ids, id)
		}
	}
	return ids
}

// journaledView is a rollout operation without its waves and current
// wave: the wave loop keeps most of those in memory only (what the log
// does keep of them, TestRolloutReplayKeepsWaveLoopState pins).
func journaledView(op api.Operation) api.Operation {
	op.Rollout = &api.RolloutProgress{GateReason: op.Rollout.GateReason, RollingBack: op.Rollout.RollingBack}
	return op
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
	if err != nil || final.State != api.StateSucceeded {
		t.Fatalf("rollout = %+v, %v", final, err)
	}
	for i, w := range final.Rollout.Waves {
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
// Children and in its waves — while it runs, once it settled (succeeded,
// or failed with the rollout_* code) and, as far as the log keeps it,
// after a crash and reopen. Statz counts it like any other operation.
func TestRolloutOperationView(t *testing.T) {
	restoreDelay := rolloutRetryDelay
	rolloutRetryDelay = 10 * time.Millisecond
	t.Cleanup(func() { rolloutRetryDelay = restoreDelay })

	for _, tc := range []struct {
		name              string
		nackCanary, abort bool
		state             api.OperationState
		code              api.ErrorCode
	}{
		{"succeeded", false, false, api.StateSucceeded, ""},
		{"unhealthy", true, false, api.StateFailed, api.CodeRolloutUnhealthy},
		{"aborted", false, true, api.StateFailed, api.CodeRolloutAborted},
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
			if op := rolloutOp(t, s, st.ID); op.State != api.StateRunning || !slices.Equal(op.Vehicles, fleet) {
				t.Fatalf("started rollout operation = %+v, want running over %v", op, fleet)
			}
			if tc.abort {
				if _, err := s.AbortRollout(st.ID); err != nil {
					t.Fatal(err)
				}
			}
			close(release)
			waitRolloutDone(t, s, st.ID)

			op := rolloutOp(t, s, st.ID)
			if op.State != tc.state || op.Rollout.RollingBack != (tc.state == api.StateFailed) {
				t.Fatalf("final = %+v, want %s", op, tc.state)
			}
			var code api.ErrorCode
			if op.Error != nil {
				code = op.Error.Code
			}
			if code != tc.code {
				t.Fatalf("operation error = %+v, want code %q", op.Error, tc.code)
			}
			if len(op.Children) == 0 || !slices.Equal(op.Children, waveBatches(op)) {
				t.Fatalf("children = %v, want the wave batches %v", op.Children, waveBatches(op))
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
			if got := rolloutOp(t, b, st.ID); !reflect.DeepEqual(journaledView(got), journaledView(op)) {
				t.Fatalf("recovered rollout operation = %+v, want %+v", got, op)
			}
		})
	}
}

// TestRolloutSurvivesCompaction: a settled rollout is a settled
// operation to a snapshot. After the snapshot, a crash and a reopen the
// recovered rollout is the live one, waves included, its wave batches
// still name it as their parent, and an abort is refused as for any
// terminal rollout.
func TestRolloutSurvivesCompaction(t *testing.T) {
	fleet := []core.VehicleID{"VIN-SC1", "VIN-SC2"}
	dir := t.TempDir()
	a := openFleetServer(t, dir, fleet)
	for _, id := range fleet {
		connectScriptedVehicle(t, a, id, ackAll)
	}
	deployCounterFleet(t, a, newV1Client(t, a), fleet)
	st, err := a.StartRollout(api.RolloutRequest{
		User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v2",
		Waves: []api.RolloutWave{{Count: 1}, {Fraction: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitRolloutDone(t, a, st.ID)
	if err := a.Journal().Snapshot(); err != nil {
		t.Fatal(err)
	}
	live, err := json.Marshal(rolloutOp(t, a, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	a.Journal().Crash()

	b := reopenWithFleet(t, dir, fleet)
	got := rolloutOp(t, b, st.ID)
	if raw, _ := json.Marshal(got); string(raw) != string(live) {
		t.Fatalf("rollout after compaction and reopen:\n got %s\nwant %s", raw, live)
	}
	for _, cid := range waveBatches(got) {
		if batch, ok := b.Operation(cid); !ok || batch.Parent != st.ID {
			t.Errorf("wave batch %s = %+v (found %v), want a child of %s", cid, batch, ok, st.ID)
		}
	}
	if _, err := b.AbortRollout(st.ID); api.CodeOf(err) != api.CodeFailedPrecondition {
		t.Fatalf("abort of the recovered terminal rollout = %v, want failed_precondition", err)
	}
}

// rolloutTap reads the journal's group commits as they are written and,
// beside each, what the registry shows of every rollout at that instant.
type rolloutTap struct {
	s       *Server
	mu      sync.Mutex
	chunks  [][]byte
	showing []map[string]api.Operation
}

func (tp *rolloutTap) Commit(_ uint64, _ int64, chunk []byte) func(error) {
	seen := make(map[string]api.Operation)
	for _, op := range tp.s.Operations() {
		if op.Kind == api.OpRollout {
			seen[op.ID] = op
		}
	}
	tp.mu.Lock()
	tp.chunks = append(tp.chunks, chunk)
	tp.showing = append(tp.showing, seen)
	tp.mu.Unlock()
	return nil
}

func (*rolloutTap) Snapshotted(uint64, []byte) {}

// TestRolloutRecordsFollowTheirStateChange: the wave loop makes each
// state change before it appends the record of it, as every mutation
// does. A group commit carrying wave_promoted n finds the rollout with n
// waves promoted, and one carrying rollout_done finds it done: a
// snapshot rotating between the two steps never images a state older
// than the segment it retires.
func TestRolloutRecordsFollowTheirStateChange(t *testing.T) {
	fleet := []core.VehicleID{"VIN-TO1", "VIN-TO2"}
	dir := t.TempDir()
	s := openFleetServer(t, dir, fleet)
	for _, id := range fleet {
		connectScriptedVehicle(t, s, id, ackAll)
	}
	deployCounterFleet(t, s, newV1Client(t, s), fleet)
	tap := &rolloutTap{s: s}
	s.Journal().SetTap(tap)
	st, err := s.StartRollout(api.RolloutRequest{
		User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v2",
		Waves: []api.RolloutWave{{Count: 1}, {Fraction: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitRolloutDone(t, s, st.ID)
	barrier(t, s, "sentinel")
	s.Journal().SetTap(nil)

	walName := filepath.Base(findWAL(t, dir))
	var records, promotedAt []int
	done := 0
	tap.mu.Lock()
	defer tap.mu.Unlock()
	for i, chunk := range tap.chunks {
		op := tap.showing[i][st.ID]
		for _, r := range walRecords(t, walName, chunk) {
			if r.Rollout == nil || r.Rollout.ID != st.ID {
				continue
			}
			switch r.Type {
			case journal.TypeWavePromoted:
				n := 0
				for _, w := range op.Rollout.Waves {
					if w.Promoted {
						n++
					}
				}
				records, promotedAt = append(records, r.Rollout.Wave), append(promotedAt, n)
			case journal.TypeRolloutDone:
				done++
				if !op.Done {
					t.Errorf("the commit of rollout_done found the rollout open: %+v", op)
				}
			}
		}
	}
	if !slices.Equal(records, []int{1, 2}) || !slices.Equal(promotedAt, records) || done != 1 {
		t.Fatalf("wave_promoted commits %v found %v waves promoted, %d rollout_done commits; want [1 2] promoted at [1 2] and one done",
			records, promotedAt, done)
	}
}

// TestListOperationsOverMixedRegistry: ListOperations pages over a
// registry that interleaves rollouts with batches (theirs and plain
// ones) in creation order at any page size, and a rollout recovered
// under the "ro-" id an older server minted pages first.
func TestListOperationsOverMixedRegistry(t *testing.T) {
	fleet := bucketFleet([]core.VehicleID{"VIN-LR1", "VIN-LR2"})
	const legacy = "ro-00000001"
	dir, _ := seedFleetDir(t, fleet, "VIN-LR-X")
	appendRecords(t, dir, journal.RolloutStartedRec(legacy, "alice", "Counter-v1", "Counter-v2", fleet, []int{1, 2}, nil))
	s := reopenWithFleet(t, dir, fleet)
	if final := waitRolloutDone(t, s, legacy); final.State != api.StateSucceeded {
		t.Fatalf("recovered rollout = %+v", final)
	}
	c := newV1Client(t, s)
	ctx := context.Background()

	want := []string{legacy}
	for i := 0; i < 2; i++ {
		op, err := c.BatchUpgrade(ctx, api.BatchUpgradeRequest{User: "alice", Vehicles: fleet, From: "Counter-v2", To: "Counter-v1"})
		if err != nil {
			t.Fatal(err)
		}
		if final, err := c.WaitOperation(ctx, op.ID, 0); err != nil || final.State != api.StateSucceeded {
			t.Fatalf("batch back to Counter-v1 = %+v, %v", final, err)
		}
		st, err := s.StartRollout(api.RolloutRequest{User: "alice", Vehicles: fleet, From: "Counter-v1", To: "Counter-v2"})
		if err != nil {
			t.Fatal(err)
		}
		if final := waitRolloutDone(t, s, st.ID); final.State != api.StateSucceeded {
			t.Fatalf("rollout %d = %+v", i+1, final)
		}
		want = append(want, st.ID)
	}
	for _, size := range []int{1, 2, 3} {
		var all, rollouts []string
		for page := (api.Page{Size: size}); ; {
			list, err := c.ListOperations(ctx, page)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range list.Operations {
				all = append(all, op.ID)
				if op.Kind == api.OpRollout {
					rollouts = append(rollouts, op.ID)
				}
			}
			if list.NextPageToken == "" {
				break
			}
			page.Token = list.NextPageToken
		}
		if ids := s.OperationIDs(); !slices.Equal(all, ids) || all[0] != legacy {
			t.Errorf("page size %d: listed %v, want the registry %v with %s first", size, all, ids, legacy)
		}
		if !slices.Equal(rollouts, want) {
			t.Errorf("page size %d: listed rollouts %v, want %v", size, rollouts, want)
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
	if final := waitRolloutDone(t, b, id); final.State != api.StateSucceeded {
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
		state api.OperationState
		// present/absent: the version every vehicle converges on; "" for
		// a terminal rollout, which moves nothing.
		present, absent core.AppName
	}{
		{"clean boundary resumes forward", nil, api.StateSucceeded, "Counter-v2", "Counter-v1"},
		{"rolled back resumes the rollback", []journal.Record{journal.RolloutRolledBackRec(legacy, "operator abort")},
			api.StateFailed, "Counter-v1", "Counter-v2"},
		{"done is terminal", []journal.Record{journal.RolloutDoneRec(legacy, "succeeded")}, api.StateSucceeded, "", ""},
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
			op := rolloutOp(t, b, legacy)
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
				if got, ok := c.Operation(want.ID); !ok || got.State != want.State {
					t.Errorf("%s after snapshot and reopen = %+v (found %v), want %s", want.ID, got, ok, want.State)
				}
			}
		})
	}
}
