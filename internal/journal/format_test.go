package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/plugin"
)

// The on-disk format, pinned. testdata/ holds the data directory that
// pinnedScript left behind: generation 1's snapshot and segment, after
// one compaction. Every build must recover it to the same image and
// records, and must write the same segment bytes for the same script;
// its snapshot may differ only in takenUnix, the time it was taken.

var pinnedRow = api.InstalledApp{App: "Tiny", Vehicle: "VIN-1", Plugins: []api.InstalledPlugin{
	{Plugin: "COM", ECU: "ECU1", SWC: "SWC1", PIC: core.PIC{{Name: "WheelsExt", ID: 0}, {Name: "SpeedExt", ID: 3}}, Acked: true},
	{Plugin: "OP", ECU: "ECU2", SWC: "SWC2"},
}}

var pinnedApp = api.App{Name: "Tiny", Binaries: []plugin.Binary{{
	Manifest: plugin.Manifest{Name: "COM", Version: "1.0", Developer: "acme", MemoryWords: 2},
	Program:  []byte{0x01, 0x02, 0xfe, 0xff},
}}, Confs: []api.SWConf{{Model: "sedan"}}}

// pinnedImage is the state image the script's compaction writes: the
// user appended before it.
func pinnedImage() *StateImage {
	img := NewStateImage()
	img.Users = []api.User{{ID: "alice"}}
	img.OpSeq = 1
	return img
}

// pinnedTail is what the script appends after the compaction, in order.
func pinnedTail() []Record {
	op := api.Operation{ID: "op-00000001", Kind: api.OpDeploy, User: "alice", Vehicle: "VIN-1", App: "Tiny",
		State: api.StateRunning, Total: 2}
	settled := op
	settled.State, settled.Acked, settled.Done = api.StateSucceeded, 2, true
	return []Record{
		VehicleBoundRec("alice", core.VehicleConf{Vehicle: "VIN-1", Model: "sedan",
			SWCs: []core.SWCConf{{ECU: "ECU1", SWC: "SWC1", MemoryQuota: 64, ECM: true}}}),
		AppUploadedRec(pinnedApp),
		OpCreatedRec(op),
		InstallRecordedRec(pinnedRow),
		InstallAckedRec("VIN-1", "Tiny", "OP"),
		OpSettledRec(settled),
		PluginDroppedRec("VIN-1", "Tiny", "OP"),
		InstallRemovedRec("VIN-1", "Tiny"),
	}
}

// pinnedScript runs the fixed history in dir: one user, a compaction,
// then the tail, each record committed on its own.
func pinnedScript(t *testing.T, dir string) {
	t.Helper()
	j, _ := mustOpen(t, dir, Options{SnapshotEvery: -1})
	j.SetSnapshotSource(pinnedImage)
	if err := j.Append(UserAddedRec("alice")).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range pinnedTail() {
		if err := j.Append(rec).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

var takenUnix = regexp.MustCompile(`"takenUnix":[0-9]+`)

func TestFormatPinned(t *testing.T) {
	const snap, wal = "snapshot-0000000000000001.snap", "wal-0000000000000001.log"
	pinned := map[string][]byte{}
	for _, name := range []string{snap, wal} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		pinned[name] = b
	}

	// The pinned directory recovers to the script's state.
	dir := t.TempDir()
	for name, b := range pinned {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j, rec := mustOpen(t, dir, Options{})
	j.Close()
	want := pinnedImage()
	want.TakenUnix = rec.Image.TakenUnix
	if got, want := mustJSON(t, rec.Image), mustJSON(t, want); !bytes.Equal(got, want) {
		t.Fatalf("recovered image\n%s\nwant\n%s", got, want)
	}
	if got, want := mustJSON(t, rec.Records), mustJSON(t, pinnedTail()); !bytes.Equal(got, want) || rec.TornTail {
		t.Fatalf("recovered records (torn %v)\n%s\nwant\n%s", rec.TornTail, got, want)
	}

	// The same script writes the same files.
	dir = t.TempDir()
	pinnedScript(t, dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(pinned) {
		t.Fatalf("script left %d files, want %s and %s", len(entries), snap, wal)
	}
	for name, b := range pinned {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == snap {
			got, b = takenUnix.ReplaceAll(got, nil), takenUnix.ReplaceAll(b, nil)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("%s differs from the pinned file:\n%q\nwant\n%q", name, got, b)
		}
	}
}

// TestEncodeRecordRoundTrip: records of the install table, including
// strings that need escaping, come back from disk as they were
// appended.
func TestEncodeRecordRoundTrip(t *testing.T) {
	row := api.InstalledApp{App: "RemoteControl", Vehicle: "VIN-1", Plugins: []api.InstalledPlugin{
		{Plugin: "COM", ECU: "ECU1", SWC: "SWC1",
			PIC: core.PIC{{Name: "WheelsExt", ID: 0}, {Name: "SpeedExt", ID: 3}}, Acked: true},
		{Plugin: "OP", ECU: "ECU2", SWC: "SWC2"},
	}}
	recs := []Record{
		InstallRecordedRec(row),
		InstallAckedRec("VIN-1", "RemoteControl", "COM"),
		InstallRemovedRec("VIN-1", "RemoteControl"),
		PluginDroppedRec("VIN-1", "RemoteControl", "OP"),
		InstallAckedRec(`VIN-"quote"`, "App\\Back", "plug\nnl"),
		InstallAckedRec("VIN-üñïcode", "RemoteControl", "COM"),
		UserAddedRec("alice"),
	}
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	for _, rec := range recs {
		j.Append(rec)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, dir, Options{})
	if len(rec.Records) != len(recs) || rec.TornTail {
		t.Fatalf("recovered %d records (torn %v), want %d", len(rec.Records), rec.TornTail, len(recs))
	}
	for i := range recs {
		got, err := json.Marshal(rec.Records[i])
		if err != nil {
			t.Fatal(err)
		}
		if want := mustJSON(t, recs[i]); !bytes.Equal(got, want) {
			t.Fatalf("record %d came back as\n%s\nwant\n%s", i, got, want)
		}
	}
}
