package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"testing"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
)

// Fuzzers for the two decoders recovery feeds with whatever a crash or
// a failing disk left behind: the segment scanner and the snapshot
// decoder. Both are seeded from files a real journal wrote.

// realJournalFiles runs a journal through appends of every hot record
// shape and one compaction, and returns the snapshot and segment bytes
// it left on disk.
func realJournalFiles(f *testing.F) (image, segment []byte) {
	f.Helper()
	dir := f.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	row := api.InstalledApp{App: "RemoteControl", Vehicle: "VIN-1", Plugins: []api.InstalledPlugin{
		{Plugin: "COM", ECU: "ECU1", SWC: "SWC1", PIC: core.PIC{{Name: "WheelsExt", ID: 0}}, Acked: true},
		{Plugin: "OP", ECU: "ECU2", SWC: "SWC2"},
	}}
	op := api.Operation{ID: "op-00000001", Kind: api.OpDeploy, Vehicle: "VIN-1", State: api.StateRunning}
	j.SetSnapshotSource(func() *StateImage {
		img := NewStateImage()
		img.Users = []api.User{{ID: "alice", Vehicles: []core.VehicleID{"VIN-1"}}}
		img.Installed = []api.InstalledApp{row}
		img.OpenOps = []api.Operation{op}
		img.OpSeq = 1
		return img
	})
	if err := j.Snapshot(); err != nil {
		f.Fatal(err)
	}
	for _, rec := range []Record{
		UserAddedRec("alice"),
		OpCreatedRec(op),
		InstallRecordedRec(row),
		InstallAckedRec("VIN-1", "RemoteControl", "OP"),
		InstallAckedRec(`VIN-"quoted"`, "RemoteControl", "OP"),
		InstallRemovedRec("VIN-1", "RemoteControl"),
	} {
		j.Append(rec)
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	gen := j.Stats().Gen
	if image, err = os.ReadFile(snapshotPath(dir, gen)); err != nil {
		f.Fatal(err)
	}
	if segment, err = os.ReadFile(walPath(dir, gen)); err != nil {
		f.Fatal(err)
	}
	return image, segment
}

// FuzzScanSegment: scanRecords never panics, accepts nothing past the
// first bad frame, and what it accepts is a segment in its own right —
// the valid prefix scans to the same records, untorn, and so does their
// re-encoding.
func FuzzScanSegment(f *testing.F) {
	_, segment := realJournalFiles(f)
	f.Add(segment)
	f.Add(segment[:len(segment)-3])                   // torn tail
	f.Add(append([]byte{0xff}, segment...))           // garbage length up front
	f.Add(bytes.Repeat([]byte{0}, 2*frameHeaderSize)) // empty payloads
	flipped := bytes.Clone(segment)
	flipped[len(flipped)/2] ^= 0x40 // checksum mismatch mid-segment
	f.Add(flipped)
	var huge [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(huge[0:4], maxRecordBytes+1) // over-limit length
	f.Add(append(bytes.Clone(segment), huge[:]...))
	f.Add(appendFrame(nil, []byte(`{"v":99,"type":"user_added"}`))) // newer wire version

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, torn, err := scanRecords(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid = %d of %d bytes", valid, len(data))
		}
		if err == nil && torn != (valid < len(data)) {
			t.Fatalf("torn = %v with %d of %d bytes valid", torn, valid, len(data))
		}
		if err != nil && torn {
			t.Fatalf("both an error (%v) and a torn tail", err)
		}
		again, n, tornAgain, errAgain := scanRecords(data[:valid])
		if errAgain != nil || tornAgain || n != valid || len(again) != len(recs) {
			t.Fatalf("valid prefix rescans to %d records, %d bytes, torn %v, %v; first scan gave %d records, %d bytes",
				len(again), n, tornAgain, errAgain, len(recs), valid)
		}
		var reenc []byte
		for _, r := range recs {
			payload, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("accepted record does not re-encode: %v", err)
			}
			reenc = appendFrame(reenc, payload)
		}
		back, n, tornBack, errBack := scanRecords(reenc)
		if errBack != nil || tornBack || n != len(reenc) || len(back) != len(recs) {
			t.Fatalf("re-encoded records scan to %d of %d records, %d of %d bytes, torn %v, %v",
				len(back), len(recs), n, len(reenc), tornBack, errBack)
		}
		for i := range back {
			if a, b := mustJSON(t, recs[i]), mustJSON(t, back[i]); !bytes.Equal(a, b) {
				t.Fatalf("record %d changed across a round trip:\n%s\n%s", i, a, b)
			}
		}
	})
}

// FuzzLoadSnapshot: the snapshot decoder never panics, refuses images
// from a newer build, and an image it accepts survives being written
// and loaded again.
func FuzzLoadSnapshot(f *testing.F) {
	image, _ := realJournalFiles(f)
	f.Add(image)
	f.Add(image[:len(image)/2])
	f.Add([]byte(`{"v":99}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"v":1,"users":[{"id":"a","vehicles":null}],"openOps":[{"id":"op-1","children":[]}]}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		img, err := decodeSnapshot(raw)
		if err != nil {
			return
		}
		if img.V > recordVersion {
			t.Fatalf("accepted an image of version %d, this build writes %d", img.V, recordVersion)
		}
		first := mustJSON(t, img)
		back, err := decodeSnapshot(first)
		if err != nil {
			t.Fatalf("re-encoded image refused: %v", err)
		}
		if second := mustJSON(t, back); !bytes.Equal(first, second) {
			t.Fatalf("image changed across a round trip:\n%s\n%s", first, second)
		}
	})
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
