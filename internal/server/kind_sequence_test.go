package server

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/journal"
	"dynautosar/internal/vehicle"
)

// walTap accumulates the bytes each group commit made durable, in
// order — the journal as a crash at that instant would leave it.
type walTap struct {
	mu  sync.Mutex
	buf []byte
}

func (w *walTap) Commit(_ uint64, _ int64, chunk []byte) func(error) {
	return func(err error) {
		if err != nil {
			return
		}
		w.mu.Lock()
		w.buf = append(w.buf, chunk...)
		w.mu.Unlock()
	}
}

func (w *walTap) Snapshotted(uint64, []byte) {}

func (w *walTap) durable() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.buf...)
}

// recordTypes decodes a durable WAL prefix by recovering it as a data
// directory of its own.
func recordTypes(t *testing.T, walName string, wal []byte) []journal.Type {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	j, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Crash()
	if rec.TornTail {
		t.Fatal("durable prefix ends in a torn record")
	}
	types := make([]journal.Type, 0, len(rec.Records))
	for _, r := range rec.Records {
		types = append(types, r.Type)
	}
	return types
}

type wireFrame struct {
	Type   core.MsgType
	Plugin core.PluginName
}

// TestKindJournalAndFrameSequence pins, for every operation kind on a
// journaled server, the exact ordered journal record types and the
// exact ordered (message type, plug-in) frames the vehicle link sees,
// and that the kind's stage record (the installation row, the upgrade
// intent) is durable before the first frame is written.
func TestKindJournalAndFrameSequence(t *testing.T) {
	restore := upgradeAckTimeout
	upgradeAckTimeout = 5 * time.Second
	defer func() { upgradeAckTimeout = restore }()

	const vin = "VIN-SEQ"
	dir := t.TempDir()
	s := openRecovered(t, dir)
	tap := &walTap{}
	s.Journal().SetTap(tap)
	t.Cleanup(func() { s.Close() })
	walName := filepath.Base(findWAL(t, dir))
	if err := s.Store().AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().BindVehicle("alice", modelCarConf(vin)); err != nil {
		t.Fatal(err)
	}
	for _, app := range []App{paperApp(t), paperAppNamed(t, "RemoteControl-v2"), paperAppNamed(t, "RemoteControl-v3")} {
		if err := s.Store().UploadApp(app); err != nil {
			t.Fatal(err)
		}
	}

	// The vehicle acknowledges everything except the upgrade frames the
	// current case scripts; the first frame of each case captures the
	// journal's durable prefix at that instant.
	var (
		mu           sync.Mutex
		upgradeReply []bool // per MsgUpgrade of the case: ack?; exhausted = ack
		captured     bool
		atFirstFrame []byte
	)
	v := connectScriptedVehicle(t, s, vin, func(_ int, msg core.Message) *core.Message {
		mu.Lock()
		defer mu.Unlock()
		if !captured {
			captured, atFirstFrame = true, tap.durable()
		}
		r := msg.Ack()
		if msg.Type == core.MsgUpgrade && len(upgradeReply) > 0 {
			if !upgradeReply[0] {
				r = msg.Nack("rollback: probe fault")
			}
			upgradeReply = upgradeReply[1:]
		}
		return &r
	})
	c := api.NewLocalClient(NewService(s))
	ctx := context.Background()

	cases := []struct {
		name    string
		start   func() (api.Operation, error)
		replies []bool
		state   api.OperationState
		records []journal.Type
		frames  []wireFrame
		// staged must be durable when the first frame arrives ("" = the
		// kind stages nothing).
		staged journal.Type
	}{
		{
			name: "deploy",
			start: func() (api.Operation, error) {
				return c.Deploy(ctx, api.DeployRequest{User: "alice", Vehicle: vin, App: "RemoteControl"})
			},
			state: api.StateSucceeded,
			records: []journal.Type{journal.TypeOpCreated, journal.TypeInstallRecorded,
				journal.TypeInstallAcked, journal.TypeInstallAcked, journal.TypeOpSettled},
			frames: []wireFrame{{core.MsgInstall, "COM"}, {core.MsgInstall, "OP"}},
			staged: journal.TypeInstallRecorded,
		},
		{
			name: "upgrade-ack",
			start: func() (api.Operation, error) {
				return c.Upgrade(ctx, api.UpgradeRequest{User: "alice", Vehicle: vin, From: "RemoteControl", To: "RemoteControl-v2"})
			},
			state: api.StateSucceeded,
			records: []journal.Type{journal.TypeOpCreated, journal.TypeUpgradeStarted,
				journal.TypeUpgradeCommitted, journal.TypeOpSettled},
			frames: []wireFrame{{core.MsgUpgrade, "COM"}, {core.MsgUpgrade, "OP"}},
			staged: journal.TypeUpgradeStarted,
		},
		{
			// COM swaps, OP rolls back on the vehicle: the server pushes the
			// old COM back (the compensation path, reversed).
			name: "upgrade-nack-compensate",
			start: func() (api.Operation, error) {
				return c.Upgrade(ctx, api.UpgradeRequest{User: "alice", Vehicle: vin, From: "RemoteControl-v2", To: "RemoteControl-v3"})
			},
			replies: []bool{true, false},
			state:   api.StateFailed,
			records: []journal.Type{journal.TypeOpCreated, journal.TypeUpgradeStarted,
				journal.TypeUpgradeRolledBack, journal.TypeOpSettled},
			frames: []wireFrame{{core.MsgUpgrade, "COM"}, {core.MsgUpgrade, "OP"}, {core.MsgUpgrade, "COM"}},
			staged: journal.TypeUpgradeStarted,
		},
		{
			name: "restore-ecu2",
			start: func() (api.Operation, error) {
				return c.Restore(ctx, api.RestoreRequest{User: "alice", Vehicle: vin, ECU: vehicle.ECU2})
			},
			state:   api.StateSucceeded,
			records: []journal.Type{journal.TypeOpCreated, journal.TypeInstallAcked, journal.TypeOpSettled},
			frames:  []wireFrame{{core.MsgInstall, "OP"}},
		},
		{
			name: "restore-ecu1",
			start: func() (api.Operation, error) {
				return c.Restore(ctx, api.RestoreRequest{User: "alice", Vehicle: vin, ECU: vehicle.ECU1})
			},
			state:   api.StateSucceeded,
			records: []journal.Type{journal.TypeOpCreated, journal.TypeInstallAcked, journal.TypeOpSettled},
			frames:  []wireFrame{{core.MsgInstall, "COM"}},
		},
		{
			name: "uninstall",
			start: func() (api.Operation, error) {
				return c.Uninstall(ctx, api.UninstallRequest{User: "alice", Vehicle: vin, App: "RemoteControl-v2"})
			},
			state: api.StateSucceeded,
			records: []journal.Type{journal.TypeOpCreated, journal.TypePluginDropped,
				journal.TypePluginDropped, journal.TypeOpSettled},
			frames: []wireFrame{{core.MsgUninstall, "OP"}, {core.MsgUninstall, "COM"}},
		},
	}
	for _, tc := range cases {
		// Everything earlier is flushed, so the case's records are exactly
		// the ones past this point.
		barrier(t, s, "before-"+tc.name)
		before := len(recordTypes(t, walName, tap.durable()))
		framesBefore := len(v.messages())
		mu.Lock()
		upgradeReply, captured, atFirstFrame = tc.replies, false, nil
		mu.Unlock()

		op, err := tc.start()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		final, err := c.WaitOperation(ctx, op.ID, 0)
		if err != nil || final.State != tc.state {
			t.Fatalf("%s: final = %+v, %v", tc.name, final, err)
		}
		barrier(t, s, "after-"+tc.name)

		all := recordTypes(t, walName, tap.durable())
		got := all[before : len(all)-1] // minus the closing barrier's user_added
		if !slices.Equal(got, tc.records) {
			t.Errorf("%s: journal records = %v, want %v", tc.name, got, tc.records)
		}
		var frames []wireFrame
		for _, m := range v.messages()[framesBefore:] {
			frames = append(frames, wireFrame{m.Type, m.Plugin})
		}
		if !slices.Equal(frames, tc.frames) {
			t.Errorf("%s: frames = %v, want %v", tc.name, frames, tc.frames)
		}
		if tc.staged != "" {
			mu.Lock()
			prefix := atFirstFrame
			mu.Unlock()
			durable := recordTypes(t, walName, prefix)
			if len(durable) <= before || !slices.Contains(durable[before:], tc.staged) {
				t.Errorf("%s: %s not durable when the first frame arrived (durable then: %v)",
					tc.name, tc.staged, durable[min(before, len(durable)):])
			}
		}
	}
}
