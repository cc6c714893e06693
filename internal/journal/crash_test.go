package journal

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
)

// The crash-point test. A history is a string of steps: W appends a
// record and waits for it, A appends one nobody waits on, S compacts
// (rotates the segment and writes a snapshot). Each history runs once
// on a memFS that records every crash point; then every point is
// crashed in every way the memFS allows, and the directory that is left
// must open and recover an unbroken prefix of what was appended that
// holds every record whose Wait had returned nil before the crash.

// crashHistories are the histories a hole was found with, kept by name.
var crashHistories = map[string]string{
	// Open created the first segment without syncing the directory: the
	// synced record was lost with the segment's directory entry.
	"first segment entry": "W",
}

// allHistories lists every history of up to 4 records with at most one
// compaction, anywhere in it.
func allHistories() []string {
	out := []string{""}
	for n := 1; n <= 4; n++ {
		for bits := 0; bits < 1<<n; bits++ {
			recs := make([]byte, n)
			for i := range recs {
				recs[i] = "WA"[bits>>i&1]
			}
			out = append(out, string(recs))
		}
	}
	for _, h := range slices.Clone(out) {
		for i := 0; i <= len(h); i++ {
			out = append(out, h[:i]+"S"+h[i:])
		}
	}
	return out
}

func TestCrashPoints(t *testing.T) {
	for name, h := range crashHistories {
		t.Run(name, func(t *testing.T) { crashHistory(t, h) })
	}
	crashes := 0
	for _, h := range allHistories() {
		crashes += crashHistory(t, h)
	}
	t.Logf("%d histories, %d distinct crashes recovered", len(allHistories()), crashes)
}

// crashHistory runs history h, crashes it at every point in every way
// and checks each recovery; it returns the number of crashes checked.
func crashHistory(t *testing.T, h string) (crashes int) {
	t.Helper()
	const dir = "/data"
	m := newMemFS(true)
	j, _, err := open(m, dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var appended []core.UserID
	j.SetSnapshotSource(func() *StateImage {
		img := NewStateImage()
		mu.Lock()
		for _, u := range appended {
			img.Users = append(img.Users, api.User{ID: u})
		}
		mu.Unlock()
		return img
	})
	// ackedAt[i] is the number of crash points recorded when record i's
	// Wait returned nil: a crash at that point or later must keep it.
	var ackedAt []int
	for _, step := range h {
		if step == 'S' {
			if err := j.Snapshot(); err != nil {
				t.Fatalf("history %q: %v", h, err)
			}
			continue
		}
		id := core.UserID(fmt.Sprintf("u%d", len(appended)))
		mu.Lock()
		appended = append(appended, id)
		mu.Unlock()
		tk := j.Append(UserAddedRec(id))
		if step == 'A' {
			ackedAt = append(ackedAt, -1)
			continue
		}
		if err := tk.Wait(); err != nil {
			t.Fatalf("history %q: %v", h, err)
		}
		ackedAt = append(ackedAt, m.mark())
	}
	if err := j.Close(); err != nil {
		t.Fatalf("history %q: %v", h, err)
	}
	m.mark()

	// Neighbouring points often leave the same directory behind; each
	// is recovered once, against the most it must keep.
	checked := map[string]int{}
	for at, point := range m.points {
		need := 0 // records that must survive a crash at this point
		for i, a := range ackedAt {
			if a >= 0 && a <= at+1 {
				need = i + 1
			}
		}
		point.crashes(func(cm *memFS, key string) bool {
			if n, ok := checked[key]; ok && n >= need {
				return true
			}
			checked[key] = need
			crashes++
			j, rec, err := open(cm, dir, Options{SnapshotEvery: -1})
			if err != nil {
				t.Errorf("history %q, crash point %d: open: %v", h, at, err)
				return false
			}
			j.Close()
			var got []core.UserID
			if rec.Image != nil {
				for _, u := range rec.Image.Users {
					got = append(got, u.ID)
				}
			}
			got = append(got, userIDs(rec.Records)...)
			if len(got) < need || len(got) > len(appended) || !slices.Equal(got, appended[:len(got)]) {
				t.Errorf("history %q, crash point %d: recovered %v, want a prefix of %v of at least %d",
					h, at, got, appended, need)
				return false
			}
			return true
		})
	}
	return crashes
}
