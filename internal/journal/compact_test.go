package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
)

// The compaction trigger, pinned by counts and byte sizes the journal
// reports about itself — no wall-clock assertions. A waited append that
// has returned means the writer finished the trigger check of every
// earlier commit (flush and check alternate on one goroutine), which is
// what lets the tests assert that a rotation did not happen.

// paddedImage is a snapshot source whose image marshals to a little
// over n bytes.
func paddedImage(n int) func() *StateImage {
	return func() *StateImage {
		img := NewStateImage()
		img.Users = []api.User{{ID: core.UserID(strings.Repeat("x", n))}}
		return img
	}
}

// frameBytes is what one record adds to the segment.
func frameBytes(t *testing.T, rec Record) int {
	t.Helper()
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return frameHeaderSize + len(payload)
}

// appendLog appends at least n bytes of small user records, 64 to a
// commit, and returns the bytes logged.
func appendLog(t *testing.T, j *Journal, prefix string, n int) (logged int) {
	t.Helper()
	for i := 0; logged < n; i++ {
		rec := UserAddedRec(core.UserID(fmt.Sprintf("%s%06d", prefix, i)))
		logged += frameBytes(t, rec)
		tk := j.Append(rec)
		if i%64 == 63 || logged >= n {
			if err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return logged
}

// snapshotLanded reports that no background snapshot is being written.
func snapshotLanded(j *Journal) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.snapInFlight
}

// TestCompactionProportional: the number of snapshots follows the bytes
// logged over the image size, not the record count — and SnapshotEvery
// stays the floor for a small state, and a negative value the off
// switch.
func TestCompactionProportional(t *testing.T) {
	t.Run("large image", func(t *testing.T) {
		const imageSize = 64 << 10
		j, _ := mustOpen(t, t.TempDir(), Options{SnapshotEvery: 16})
		defer j.Close()
		j.SetSnapshotSource(paddedImage(imageSize))
		logged := appendLog(t, j, "u", 1<<20)
		appendUsers(t, j, 0, 2)
		st := j.Stats()
		// One snapshot when the floor is first met (no image yet), then at
		// most one per snapshotGrowth × image bytes; a count-only trigger
		// takes one per 16 records, over a thousand here.
		limit := (logged+snapshotGrowth*imageSize-1)/(snapshotGrowth*imageSize) + 1
		if st.Gen < 2 || int(st.Gen) > limit {
			t.Fatalf("%d snapshots for %d bytes of log over a %d-byte image, want 2..%d", st.Gen, logged, st.ImageBytes, limit)
		}
		if st.ImageBytes < imageSize {
			t.Fatalf("stats report a %d-byte image, want at least %d", st.ImageBytes, imageSize)
		}
	})
	t.Run("small image", func(t *testing.T) {
		j, _ := mustOpen(t, t.TempDir(), Options{SnapshotEvery: 4})
		defer j.Close()
		j.SetSnapshotSource(NewStateImage)
		// Four of these outweigh snapshotGrowth empty images, so the record
		// floor alone decides.
		pad := strings.Repeat("p", 128)
		for round := uint64(1); round <= 5; round++ {
			for i := 0; i < 4; i++ {
				if st := j.Stats(); st.Gen != round-1 {
					t.Fatalf("round %d, %d records in: generation %d, want %d", round, i, st.Gen, round-1)
				}
				if err := j.Append(UserAddedRec(core.UserID(fmt.Sprintf("%s-%d-%d", pad, round, i)))).Wait(); err != nil {
					t.Fatal(err)
				}
			}
			eventually(t, "the snapshot of this round", func() bool {
				return j.Stats().Gen == round && snapshotLanded(j)
			})
			if st := j.Stats(); st.ImageBytes == 0 || st.SegmentBytes != 0 || st.SinceSnapshot != 0 {
				t.Fatalf("round %d: stats after the snapshot %+v", round, st)
			}
		}
	})
	t.Run("disabled", func(t *testing.T) {
		j, _ := mustOpen(t, t.TempDir(), Options{SnapshotEvery: -1})
		defer j.Close()
		j.SetSnapshotSource(NewStateImage)
		logged := appendLog(t, j, "u", 64<<10)
		appendUsers(t, j, 0, 2)
		if st := j.Stats(); st.Gen != 0 || st.ImageBytes != 0 || st.SegmentBytes < int64(logged) {
			t.Fatalf("stats with compaction disabled: %+v after %d bytes", st, logged)
		}
	})
}

// TestCompactionSeededFromRecoveredImage: a journal opened over an
// existing snapshot — a restart, or a follower promoted from its
// replica directory — starts from that image's size, so it does not
// fall back to the record floor until it has written an image itself.
func TestCompactionSeededFromRecoveredImage(t *testing.T) {
	const every = 8
	ldir := t.TempDir()
	j, _ := mustOpen(t, ldir, Options{SnapshotEvery: every})
	j.SetSnapshotSource(paddedImage(64 << 10))
	r, err := OpenReplica(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewShipper(j, []Follower{{Name: "f1", T: LocalTransport{R: r}}}, ShipperOptions{Synchronous: true})
	j.SetTap(s)
	waitInSync(t, s)
	appendUsers(t, j, 0, 1)
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, j, r)
	gen, image := j.Stats().Gen, j.Stats().ImageBytes
	if fi, err := os.Stat(snapshotPath(ldir, gen)); err != nil || fi.Size() != image {
		t.Fatalf("stats report a %d-byte image, the snapshot file: %v, %v", image, fi, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r.Close()

	for name, dir := range map[string]string{"restart": ldir, "promotion": r.Dir()} {
		t.Run(name, func(t *testing.T) {
			j, rec := mustOpen(t, dir, Options{SnapshotEvery: every})
			defer j.Close()
			if rec.Image == nil {
				t.Fatal("no image recovered")
			}
			if st := j.Stats(); st.Gen != gen || st.ImageBytes != image {
				t.Fatalf("stats after open %+v, want generation %d and a %d-byte image", st, gen, image)
			}
			j.SetSnapshotSource(paddedImage(64 << 10))
			appendUsers(t, j, 100, every+2)
			if st := j.Stats(); st.Gen != gen || st.SinceSnapshot != every+2 {
				t.Fatalf("rotated %d records after the recovered image: %+v", every+2, st)
			}
			// The seed is a threshold, not an off switch.
			appendLog(t, j, "v", snapshotGrowth*int(image))
			eventually(t, "the first snapshot of its own", func() bool { return j.Stats().Gen == gen+1 })
		})
	}
}

// TestRecoverLongestTail: a crash with the segment one record short of
// the compaction threshold — the longest tail the trigger allows —
// recovers exactly what was acknowledged, and the reopened journal
// compacts at the next record, as the dead one would have.
func TestRecoverLongestTail(t *testing.T) {
	dir := t.TempDir()
	source := paddedImage(4 << 10)
	j, _ := mustOpen(t, dir, Options{SnapshotEvery: 4})
	j.SetSnapshotSource(source)
	appendUsers(t, j, 0, 1)
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	before := j.Stats()
	threshold := snapshotGrowth * before.ImageBytes
	id := func(i int) core.UserID { return core.UserID(fmt.Sprintf("t%05d", i)) }
	frame := int64(frameBytes(t, UserAddedRec(id(0))))
	var acked []core.UserID
	for size := int64(0); size+frame < threshold; size += frame {
		if err := j.Append(UserAddedRec(id(len(acked)))).Wait(); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, id(len(acked)))
	}
	last := j.Stats()
	if last.Gen != before.Gen || last.SegmentBytes >= threshold || last.SegmentBytes+frame < threshold {
		t.Fatalf("stats before the crash %+v: want generation %d and a segment one %d-byte record short of %d",
			last, before.Gen, frame, threshold)
	}
	j.Crash()

	j2, rec := mustOpen(t, dir, Options{SnapshotEvery: 4})
	defer j2.Close()
	if rec.Image == nil || rec.TornTail {
		t.Fatalf("recovered image %v, torn tail %v", rec.Image != nil, rec.TornTail)
	}
	if got := userIDs(rec.Records); fmt.Sprint(got) != fmt.Sprint(acked) {
		t.Fatalf("recovered %d records, want the %d acknowledged", len(got), len(acked))
	}
	if st := j2.Stats(); st.Gen != last.Gen || st.ImageBytes != last.ImageBytes ||
		st.SegmentBytes != last.SegmentBytes || st.SinceSnapshot != len(acked) {
		t.Fatalf("stats after recovery %+v, before the crash %+v", st, last)
	}
	j2.SetSnapshotSource(source)
	appendUsers(t, j2, len(acked), 1)
	eventually(t, "the compaction the next record is due", func() bool { return j2.Stats().Gen == last.Gen+1 })
}
