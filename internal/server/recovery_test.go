package server

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/journal"
)

// Crash-recovery coverage: the server is built on a data dir, killed
// hard (Journal().Crash() drops everything the last group commit did
// not make durable — the moral equivalent of kill -9), and reopened on
// the same directory. The reopened state must equal the journal-implied
// state: durable store mutations survive, operations in flight at the
// kill report the stable INTERRUPTED error code, and the torn-tail /
// corrupted-checksum shapes a real crash leaves behind are tolerated.

// openRecovered builds a journaled server on dir.
func openRecovered(t *testing.T, dir string) *Server {
	t.Helper()
	s := New()
	if err := s.OpenJournal(dir); err != nil {
		t.Fatal(err)
	}
	return s
}

// barrier performs one durable mutation: because the journal's write
// buffer is FIFO and a batch fsync covers everything enqueued before
// it, waiting on this append guarantees every earlier record —
// including the fire-and-forget operation settlements — is on disk.
func barrier(t *testing.T, s *Server, id string) {
	t.Helper()
	if err := s.Store().AddUser(core.UserID(id)); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryRoundTrip: a full control-plane history (user, vehicles,
// app, completed deploy) survives a hard kill; the reopened server is
// immediately writable and a graceful Close compacts so the next start
// replays an empty tail.
func TestRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := openRecovered(t, dir)
	if err := a.Store().AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	if err := a.Store().UploadApp(paperApp(t)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []core.VehicleID{"VIN-R1", "VIN-R2"} {
		if err := a.Store().BindVehicle("alice", modelCarConf(id)); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(connectAckVehicle(t, a, "VIN-R1"))
	c := api.NewLocalClient(NewService(a))
	ctx := context.Background()
	op, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: "VIN-R1", App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.WaitOperation(ctx, op.ID, 0); err != nil || final.State != api.StateSucceeded {
		t.Fatalf("deploy = %+v, %v", final, err)
	}
	barrier(t, a, "sentinel")
	a.Journal().Crash()

	b := openRecovered(t, dir)
	st := b.RecoveryStats()
	if !st.Journaled || st.Records == 0 || st.TornTail || st.Interrupted != 0 {
		t.Fatalf("recovery stats = %+v", st)
	}
	u, ok := b.Store().User("alice")
	if !ok || len(u.Vehicles) != 2 {
		t.Fatalf("alice after recovery = %+v ok=%v", u, ok)
	}
	if _, ok := b.Store().User("sentinel"); !ok {
		t.Fatal("sentinel user lost")
	}
	app, ok := b.Store().App("RemoteControl")
	if !ok || len(app.Binaries) != 2 || len(app.Confs) != 1 {
		t.Fatalf("app after recovery = %+v ok=%v", app, ok)
	}
	row, ok := b.Store().InstalledApp("VIN-R1", "RemoteControl")
	if !ok || !row.Complete() {
		t.Fatalf("VIN-R1 row after recovery = %+v ok=%v", row, ok)
	}
	if _, ok := b.Store().InstalledApp("VIN-R2", "RemoteControl"); ok {
		t.Fatal("VIN-R2 grew a phantom row")
	}
	// The completed operation survived with its real outcome.
	got, ok := b.Operation(op.ID)
	if !ok || got.State != api.StateSucceeded || !got.Done {
		t.Fatalf("operation after recovery = %+v ok=%v", got, ok)
	}

	// The recovered server keeps journaling: deploy to the second
	// vehicle, shut down cleanly, and reopen onto an empty tail.
	t.Cleanup(connectAckVehicle(t, b, "VIN-R2"))
	cb := api.NewLocalClient(NewService(b))
	op2, err := cb.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: "VIN-R2", App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := cb.WaitOperation(ctx, op2.ID, 0); err != nil || final.State != api.StateSucceeded {
		t.Fatalf("post-recovery deploy = %+v, %v", final, err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	cc := openRecovered(t, dir)
	defer cc.Close()
	if st := cc.RecoveryStats(); st.Records != 0 || st.SnapshotTime.IsZero() {
		t.Fatalf("post-graceful-close stats = %+v (want snapshot, empty tail)", st)
	}
	for _, id := range []core.VehicleID{"VIN-R1", "VIN-R2"} {
		if row, ok := cc.Store().InstalledApp(id, "RemoteControl"); !ok || !row.Complete() {
			t.Fatalf("%s row after snapshot restart = %+v ok=%v", id, row, ok)
		}
	}
}

// TestReplayReproducesLiveState: replay runs the appliers the live
// mutations ran, so a reopened server holds exactly the store and the
// operations the crashed one had — replayed from the log alone, and
// from a snapshot image with a log tail on top.
func TestReplayReproducesLiveState(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		t.Run(fmt.Sprintf("snapshot=%v", snapshot), func(t *testing.T) {
			dir := t.TempDir()
			a := openRecovered(t, dir)
			for _, u := range []core.UserID{"alice", "bob"} {
				if err := a.Store().AddUser(u); err != nil {
					t.Fatal(err)
				}
			}
			// Bound out of id order: a user's vehicles keep bind order.
			owners := map[core.VehicleID]core.UserID{"VIN-RP3": "alice", "VIN-RP2": "bob", "VIN-RP1": "alice"}
			for _, v := range []core.VehicleID{"VIN-RP3", "VIN-RP2", "VIN-RP1"} {
				if err := a.Store().BindVehicle(owners[v], modelCarConf(v)); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(connectAckVehicle(t, a, v))
			}
			if err := a.Store().UploadApp(paperApp(t)); err != nil {
				t.Fatal(err)
			}
			c := api.NewLocalClient(NewService(a))
			ctx := context.Background()
			run := func(op api.Operation, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				if final, err := c.WaitOperation(ctx, op.ID, 0); err != nil || final.State != api.StateSucceeded {
					t.Fatalf("operation = %+v, %v", final, err)
				}
			}
			for i, v := range []core.VehicleID{"VIN-RP3", "VIN-RP2", "VIN-RP1"} {
				run(c.Deploy(ctx, api.DeployRequest{User: owners[v], Vehicle: v, App: "RemoteControl"}))
				if i == 0 && snapshot {
					if err := a.Journal().Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}
			run(c.Uninstall(ctx, api.UninstallRequest{User: "alice", Vehicle: "VIN-RP1", App: "RemoteControl"}))
			barrier(t, a, "sentinel")

			storeJSON := func(s *Server) string {
				t.Helper()
				img := s.stateImage()
				img.TakenUnix = 0
				raw, err := json.Marshal(journal.StateImage{
					Users: img.Users, Vehicles: img.Vehicles, Apps: img.Apps, Installed: img.Installed,
				})
				if err != nil {
					t.Fatal(err)
				}
				return string(raw)
			}
			opsJSON := func(s *Server, ids []string) []string {
				t.Helper()
				out := make([]string, len(ids))
				for i, id := range ids {
					op, ok := s.Operation(id)
					if !ok {
						t.Fatalf("operation %s missing", id)
					}
					raw, err := json.Marshal(op)
					if err != nil {
						t.Fatal(err)
					}
					out[i] = string(raw)
				}
				return out
			}
			ids := a.OperationIDs()
			liveStore, liveOps := storeJSON(a), opsJSON(a, ids)
			a.Journal().Crash()

			b := openRecovered(t, dir)
			t.Cleanup(func() { b.Close() })
			if st := b.RecoveryStats(); st.SnapshotTime.IsZero() == snapshot || st.Records == 0 {
				t.Fatalf("recovery stats = %+v, want snapshot=%v and a log tail", st, snapshot)
			}
			if got := storeJSON(b); got != liveStore {
				t.Fatalf("replayed store differs from the live one:\n got %s\nwant %s", got, liveStore)
			}
			if u, _ := b.Store().User("alice"); !slices.Equal(u.Vehicles, []core.VehicleID{"VIN-RP3", "VIN-RP1"}) {
				t.Fatalf("alice's vehicles = %v, want bind order", u.Vehicles)
			}
			if got := b.OperationIDs(); !slices.Equal(got, ids) {
				t.Fatalf("replayed operations %v, live %v", got, ids)
			}
			for i, got := range opsJSON(b, ids) {
				if got != liveOps[i] {
					t.Errorf("operation %s:\n got %s\nwant %s", ids[i], got, liveOps[i])
				}
			}
		})
	}
}

// TestRecoveryMidBatchCrash is the acceptance scenario: kill the server
// mid-batch, restart on the same data dir, and the store matches the
// pre-crash acked state while the operations that were in flight report
// INTERRUPTED — surfaced through GET /v1/operations/{id}.
func TestRecoveryMidBatchCrash(t *testing.T) {
	dir := t.TempDir()
	a := openRecovered(t, dir)
	if err := a.Store().AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	if err := a.Store().UploadApp(paperApp(t)); err != nil {
		t.Fatal(err)
	}
	var acked, mute []core.VehicleID
	for i := 0; i < 4; i++ {
		id := core.VehicleID(fmt.Sprintf("VIN-C-%d", i))
		if err := a.Store().BindVehicle("alice", modelCarConf(id)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(connectAckVehicle(t, a, id))
		acked = append(acked, id)
	}
	for i := 0; i < 2; i++ {
		id := core.VehicleID(fmt.Sprintf("VIN-M-%d", i))
		if err := a.Store().BindVehicle("alice", modelCarConf(id)); err != nil {
			t.Fatal(err)
		}
		closeMute := connectMuteVehicle(t, a, id)
		defer closeMute()
		mute = append(mute, id)
	}
	c := api.NewLocalClient(NewService(a))
	ctx := context.Background()
	targets := append(append([]core.VehicleID(nil), acked...), mute...)
	op, err := c.BatchDeploy(ctx, api.BatchDeployRequest{User: "alice", Vehicles: targets, App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	// The healthy children settle; the mute ones hold the batch open —
	// that is the "mid-batch" moment the kill lands in.
	waitFor(t, func() bool {
		got, _ := a.Operation(op.ID)
		return got.VehiclesSucceeded == 4
	})
	barrier(t, a, "pre-crash-barrier")
	a.Journal().Crash()

	b := openRecovered(t, dir)
	defer b.Close()
	// Store contents equal the journal-implied state: acked vehicles
	// fully acknowledged, mute vehicles recorded but unacked.
	for _, id := range acked {
		row, ok := b.Store().InstalledApp(id, "RemoteControl")
		if !ok || !row.Complete() {
			t.Fatalf("acked vehicle %s after crash = %+v ok=%v", id, row, ok)
		}
	}
	for _, id := range mute {
		row, ok := b.Store().InstalledApp(id, "RemoteControl")
		if !ok {
			t.Fatalf("mute vehicle %s lost its recorded row", id)
		}
		if row.Complete() {
			t.Fatalf("mute vehicle %s reports acks it never sent: %+v", id, row)
		}
	}
	// Operation registry through the real /v1 wire: settled children
	// keep their outcome, in-flight children and the parent report the
	// stable INTERRUPTED code.
	cb := newV1Client(t, b)
	parent, err := cb.GetOperation(ctx, op.ID)
	if err != nil {
		t.Fatal(err)
	}
	if parent.State != api.StateFailed || !parent.Done ||
		parent.Error == nil || parent.Error.Code != api.CodeInterrupted {
		t.Fatalf("parent after crash = %+v", parent)
	}
	if parent.VehiclesSucceeded != 4 || parent.VehiclesFailed != 2 {
		t.Fatalf("parent tallies = %d/%d, want 4/2", parent.VehiclesSucceeded, parent.VehiclesFailed)
	}
	muteSet := map[core.VehicleID]bool{}
	for _, id := range mute {
		muteSet[id] = true
	}
	for i, cid := range parent.Children {
		child, err := cb.GetOperation(ctx, cid)
		if err != nil {
			t.Fatal(err)
		}
		if muteSet[parent.Vehicles[i]] {
			if child.State != api.StateFailed || child.Error == nil || child.Error.Code != api.CodeInterrupted {
				t.Fatalf("in-flight child %s = %+v, want INTERRUPTED", cid, child)
			}
		} else if child.State != api.StateSucceeded {
			t.Fatalf("settled child %s = %+v, want succeeded", cid, child)
		}
	}
	// Healthz reflects the recovery: records replayed, three operations
	// interrupted (two children + the parent).
	h, err := cb.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || !h.Journal || h.RecoveredRecords == 0 || h.InterruptedOperations != 3 {
		t.Fatalf("health after crash recovery = %+v", h)
	}
	// New operation ids continue after the journaled ones.
	if seq := opSeqOf(op.ID); b.newOperation(api.OpDeploy, "alice", "VIN-C-0", "RemoteControl", "", "", "").op.ID <= op.ID {
		t.Fatalf("operation ids did not advance past %d", seq)
	}
}

// TestRecoveryTornTail: a crash mid-append leaves a truncated final
// record; recovery drops exactly that record, keeps the prefix and the
// journal stays appendable.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	a := openRecovered(t, dir)
	if err := a.Store().AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	if err := a.Store().BindVehicle("alice", modelCarConf("VIN-T")); err != nil {
		t.Fatal(err)
	}
	barrier(t, a, "last-user")
	a.Journal().Crash()
	tearTail(t, dir, 5)

	b := openRecovered(t, dir)
	if st := b.RecoveryStats(); !st.TornTail {
		t.Fatalf("recovery stats = %+v, want torn tail", st)
	}
	if _, ok := b.Store().User("alice"); !ok {
		t.Fatal("alice lost with the torn tail")
	}
	if _, ok := b.Store().Vehicle("VIN-T"); !ok {
		t.Fatal("vehicle lost with the torn tail")
	}
	if _, ok := b.Store().User("last-user"); ok {
		t.Fatal("torn final record replayed anyway")
	}
	// Appending continues at the truncation point.
	if err := b.Store().AddUser("carol"); err != nil {
		t.Fatal(err)
	}
	b.Journal().Crash()
	c := openRecovered(t, dir)
	defer c.Close()
	if st := c.RecoveryStats(); st.TornTail {
		t.Fatalf("tail still torn after re-append: %+v", st)
	}
	if _, ok := c.Store().User("carol"); !ok {
		t.Fatal("post-recovery append lost")
	}
}

// TestRecoveryCorruptedChecksum: a bit flip in the final record fails
// its CRC; recovery drops it and keeps the valid prefix.
func TestRecoveryCorruptedChecksum(t *testing.T) {
	dir := t.TempDir()
	a := openRecovered(t, dir)
	if err := a.Store().AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	barrier(t, a, "bob")
	a.Journal().Crash()
	wal := findWAL(t, dir)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}

	b := openRecovered(t, dir)
	defer b.Close()
	if st := b.RecoveryStats(); !st.TornTail {
		t.Fatalf("recovery stats = %+v, want torn tail", st)
	}
	if _, ok := b.Store().User("alice"); !ok {
		t.Fatal("alice lost to the corrupted record")
	}
	if _, ok := b.Store().User("bob"); ok {
		t.Fatal("corrupted record replayed anyway")
	}
}

// TestRecoverySnapshotCompaction: state written before a forced
// snapshot is recovered from the image, state after it from the tail,
// and the two compose.
func TestRecoverySnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	a := openRecovered(t, dir)
	if err := a.Store().AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	if err := a.Store().UploadApp(paperApp(t)); err != nil {
		t.Fatal(err)
	}
	if err := a.Store().BindVehicle("alice", modelCarConf("VIN-S1")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(connectAckVehicle(t, a, "VIN-S1"))
	c := api.NewLocalClient(NewService(a))
	ctx := context.Background()
	op, err := c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: "VIN-S1", App: "RemoteControl"})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.WaitOperation(ctx, op.ID, 0); err != nil || final.State != api.StateSucceeded {
		t.Fatalf("deploy = %+v, %v", final, err)
	}
	if err := a.Journal().Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot history lands in the new tail.
	if err := a.Store().BindVehicle("alice", modelCarConf("VIN-S2")); err != nil {
		t.Fatal(err)
	}
	a.Journal().Crash()

	b := openRecovered(t, dir)
	defer b.Close()
	st := b.RecoveryStats()
	if st.SnapshotTime.IsZero() {
		t.Fatalf("no snapshot loaded: %+v", st)
	}
	if row, ok := b.Store().InstalledApp("VIN-S1", "RemoteControl"); !ok || !row.Complete() {
		t.Fatalf("pre-snapshot install = %+v ok=%v", row, ok)
	}
	if _, ok := b.Store().Vehicle("VIN-S2"); !ok {
		t.Fatal("post-snapshot vehicle lost")
	}
	u, _ := b.Store().User("alice")
	if len(u.Vehicles) != 2 {
		t.Fatalf("alice's vehicles after compacted recovery = %v", u.Vehicles)
	}
	// Healthz reports the snapshot's age rather than -1.
	if h := b.Health(); h.SnapshotAge < 0 {
		t.Fatalf("health = %+v, want snapshotAge >= 0", h)
	}
}

// TestRecoveryImageTakenUnderChurn: a state image is captured in runs of
// imageOpsPerHold operations with the registry lock released between
// them, while operations are created, settled and evicted. The image
// plus the replay of the segment behind it must still be the registry:
// after the churn stops, every operation the live server holds comes
// back identical from a crash, anything more that comes back is
// terminal history the live server had evicted since, and the id counter
// is the same.
func TestRecoveryImageTakenUnderChurn(t *testing.T) {
	old := opRetention
	opRetention = 4 * imageOpsPerHold // a registry of several runs, evicting all the time
	t.Cleanup(func() { opRetention = old })
	dir := t.TempDir()
	a := openRecovered(t, dir)

	created := func(s *Server) uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.opSeq
	}
	// The workers churn until told to stop, paced by the journal (a Sync
	// every 64 operations bounds what they can pile up behind a commit).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vin := core.VehicleID(fmt.Sprintf("VIN-%d", w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if w == 0 {
					// Batches: the parent settles with its last child, and is
					// what makes the children evictable.
					_, children := a.newBatchOperation(api.OpBatchDeploy, api.OpDeploy, "alice", "App", "",
						[]core.VehicleID{vin, vin + "b", vin + "c"}, "")
					for _, c := range children {
						a.finishLaunch(c.opID, nil)
					}
				} else {
					rec := a.newOperation(api.OpDeploy, "alice", vin, "App", "", "", fmt.Sprintf("key-%d-%d", w, i))
					var err error
					if i%3 == 0 {
						err = api.Errorf(api.CodeUnavailable, "vehicle %s offline", vin)
					}
					a.finishLaunch(rec.op.ID, err)
				}
				if i%64 == 63 {
					if err := a.Journal().Sync(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	// Every image below is taken with the registry full, evicting, and
	// being appended to; the last one is what recovery loads.
	waitFor(t, func() bool { return created(a) > 2*uint64(opRetention) })
	for n := 0; n < 6; n++ {
		if err := a.Journal().Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	barrier(t, a, "sentinel")
	live, liveSeq := a.Operations(), created(a)
	a.Journal().Crash()
	// Nothing moves any more: statz must carry the journal's own sizes.
	if js, z := a.Journal().Stats(), a.Statz(); js.ImageBytes == 0 ||
		z.JournalImageBytes != js.ImageBytes || z.JournalSegmentBytes != js.SegmentBytes {
		t.Fatalf("statz reports image %d / segment %d bytes, the journal %d / %d",
			z.JournalImageBytes, z.JournalSegmentBytes, js.ImageBytes, js.SegmentBytes)
	}

	b := openRecovered(t, dir)
	defer b.Close()
	if st := b.RecoveryStats(); st.SnapshotTime.IsZero() || st.Interrupted != 0 {
		t.Fatalf("recovery stats %+v: want an image and nothing interrupted", st)
	}
	if recoveredSeq := created(b); recoveredSeq != liveSeq {
		t.Fatalf("recovered operation counter %d, live %d", recoveredSeq, liveSeq)
	}
	if len(live) < 2*imageOpsPerHold {
		t.Fatalf("live registry holds %d operations, too few to span image runs", len(live))
	}
	inLive := make(map[string]bool, len(live))
	for _, want := range live {
		inLive[want.ID] = true
		if want.Parent != "" {
			continue // a settled batch's children are not journaled; recovery leaves the hole
		}
		got, ok := b.Operation(want.ID)
		w, _ := json.Marshal(want)
		g, _ := json.Marshal(got)
		if !ok || string(g) != string(w) {
			t.Fatalf("operation %s recovered as %s (found %v), live %s", want.ID, g, ok, w)
		}
	}
	for _, op := range b.Operations() {
		if !inLive[op.ID] && !op.Done {
			t.Fatalf("recovered an open operation the live registry does not hold: %+v", op)
		}
	}
}

// TestRecoveryHealthDegradedOnJournalFailure: once the journal is
// sticky-failed, healthz stops reporting "ok" so orchestrators route
// traffic away from a server whose durability is gone.
func TestRecoveryHealthDegradedOnJournalFailure(t *testing.T) {
	s := openRecovered(t, t.TempDir())
	if h := s.Health(); h.Status != "ok" || !h.Journal {
		t.Fatalf("healthy journal health = %+v", h)
	}
	s.Journal().Crash() // induces the sticky journal error
	h := s.Health()
	if h.Status != "degraded" || h.JournalError == "" {
		t.Fatalf("health after journal failure = %+v, want degraded", h)
	}
}

// TestRecoveryHealthzMemoryOnly pins the healthz shape without a
// journal: ok, journal off, no snapshot.
func TestRecoveryHealthzMemoryOnly(t *testing.T) {
	s := New()
	c := newV1Client(t, s)
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Journal || h.SnapshotAge != -1 || h.RecoveredRecords != 0 {
		t.Fatalf("memory-only health = %+v", h)
	}
}

// tearTail truncates the last n bytes of the newest WAL segment.
func tearTail(t *testing.T, dir string, n int64) {
	t.Helper()
	wal := findWAL(t, dir)
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

func findWAL(t *testing.T, dir string) string {
	t.Helper()
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no WAL segment in %s (%v)", dir, err)
	}
	return wals[len(wals)-1]
}
