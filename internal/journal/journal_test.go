package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
)

func mustOpen(t *testing.T, dir string, opts Options) (*Journal, *Recovery) {
	t.Helper()
	j, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j, rec
}

func userIDs(recs []Record) []core.UserID {
	var out []core.UserID
	for _, r := range recs {
		if r.Type == TypeUserAdded {
			out = append(out, r.User.ID)
		}
	}
	return out
}

// TestJournalRoundTrip: records appended and synced before a crash are
// replayed verbatim on reopen; buffered-but-uncommitted ones are not.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := mustOpen(t, dir, Options{})
	if rec.Image != nil || len(rec.Records) != 0 || rec.TornTail {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(UserAddedRec(core.UserID(fmt.Sprintf("u%d", i)))).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	j.Crash()

	j2, rec2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	if got := userIDs(rec2.Records); len(got) != 3 || got[0] != "u0" || got[2] != "u2" {
		t.Fatalf("replayed users %v", got)
	}
	if rec2.TornTail {
		t.Fatal("clean log reported a torn tail")
	}
}

// TestJournalGroupCommit: concurrent appenders share batches — every
// record is durable, and the whole burst takes far fewer fsyncs than
// records (the amortization the batch engine relies on).
func TestJournalGroupCommit(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	const n = 128
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = j.Append(UserAddedRec(core.UserID(fmt.Sprintf("u%03d", i)))).Wait()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if st := j.Stats(); st.Appended != n {
		t.Fatalf("appended %d, want %d", st.Appended, n)
	}
	j.Crash()
	_, rec := mustOpen(t, dir, Options{})
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), n)
	}
}

// TestJournalTornTail: a record truncated mid-frame (the shape of a
// crash mid-append) is dropped, the prefix survives, and the journal
// keeps appending at the truncation point.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	for _, u := range []core.UserID{"alice", "bob"} {
		if err := j.Append(UserAddedRec(u)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	j.Crash()
	wal := walPath(dir, 0)
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	j2, rec := mustOpen(t, dir, Options{})
	if !rec.TornTail {
		t.Fatal("truncated tail not reported")
	}
	if got := userIDs(rec.Records); len(got) != 1 || got[0] != "alice" {
		t.Fatalf("recovered %v, want [alice]", got)
	}
	// The segment keeps working after truncation.
	if err := j2.Append(UserAddedRec("carol")).Wait(); err != nil {
		t.Fatal(err)
	}
	j2.Crash()
	_, rec3 := mustOpen(t, dir, Options{})
	if got := userIDs(rec3.Records); len(got) != 2 || got[1] != "carol" || rec3.TornTail {
		t.Fatalf("after re-append recovered %v (torn=%v)", got, rec3.TornTail)
	}
}

// TestJournalCorruptChecksum: a record whose payload no longer matches
// its checksum is dropped along with everything after it.
func TestJournalCorruptChecksum(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	for _, u := range []core.UserID{"alice", "bob"} {
		if err := j.Append(UserAddedRec(u)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	j.Crash()
	wal := walPath(dir, 0)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff // scribble inside the last record's payload
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir, Options{})
	if !rec.TornTail {
		t.Fatal("corrupt record not reported as torn")
	}
	if got := userIDs(rec.Records); len(got) != 1 || got[0] != "alice" {
		t.Fatalf("recovered %v, want [alice]", got)
	}
}

// TestJournalCompaction: once the record threshold trips, the journal
// writes the source's image as the next generation and removes the old
// segment pair; reopen loads the image plus the post-snapshot tail.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{SnapshotEvery: 4})
	var mu sync.Mutex
	seen := 0
	j.SetSnapshotSource(func() *StateImage {
		img := NewStateImage()
		mu.Lock()
		img.OpSeq = uint64(seen)
		mu.Unlock()
		return img
	})
	for i := 0; i < 6; i++ {
		t2 := j.Append(UserAddedRec(core.UserID(fmt.Sprintf("u%d", i))))
		if err := t2.Wait(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		seen++
		mu.Unlock()
	}
	// Force the rotation to have happened (threshold checks run after
	// flushes; an explicit snapshot serializes behind them).
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Gen == 0 || st.SinceSnapshot != 0 {
		t.Fatalf("stats after compaction: %+v", st)
	}
	// Exactly one generation pair remains on disk.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(snaps) != 1 || len(wals) != 1 {
		t.Fatalf("files after compaction: %v %v", snaps, wals)
	}
	// Post-snapshot records replay over the image.
	if err := j.Append(UserAddedRec("tail")).Wait(); err != nil {
		t.Fatal(err)
	}
	j.Crash()
	_, rec := mustOpen(t, dir, Options{})
	if rec.Image == nil || rec.Image.OpSeq != 6 {
		t.Fatalf("image %+v, want OpSeq 6", rec.Image)
	}
	if got := userIDs(rec.Records); len(got) != 1 || got[0] != "tail" {
		t.Fatalf("tail records %v, want [tail]", got)
	}
}

// TestJournalCloseFlushes: Close commits buffered records; reopen sees
// them without a torn tail.
func TestJournalCloseFlushes(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	j.Append(UserAddedRec("alice")) // ticket dropped on purpose
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(UserAddedRec("bob")).Wait(); err == nil {
		t.Fatal("append after close succeeded")
	}
	_, rec := mustOpen(t, dir, Options{})
	if got := userIDs(rec.Records); len(got) != 1 || got[0] != "alice" || rec.TornTail {
		t.Fatalf("recovered %v (torn=%v)", got, rec.TornTail)
	}
}

// TestJournalOpRecords: the operation payloads survive the wire format.
func TestJournalOpRecords(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	op := api.Operation{ID: "op-00000007", Kind: api.OpDeploy, Vehicle: "VIN1", State: api.StateRunning}
	j.Append(OpCreatedRec(op))
	op.State, op.Done = api.StateSucceeded, true
	if err := j.Append(OpSettledRec(op)).Wait(); err != nil {
		t.Fatal(err)
	}
	j.Crash()
	_, rec := mustOpen(t, dir, Options{})
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records", len(rec.Records))
	}
	if rec.Records[0].Type != TypeOpCreated || rec.Records[0].Op.Op.ID != "op-00000007" {
		t.Fatalf("created record %+v", rec.Records[0])
	}
	if got := rec.Records[1]; got.Type != TypeOpSettled || !got.Op.Op.Done || got.Op.Op.State != api.StateSucceeded {
		t.Fatalf("settled record %+v", got)
	}
}
