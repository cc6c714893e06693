package journal

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
)

// newLeaderWithFollower wires a journal to one local replica through a
// synchronous shipper — the production failover topology, in-process —
// and returns once the attach-time resync is over.
func newLeaderWithFollower(t *testing.T, opts Options) (*Journal, *Replica, *Shipper) {
	t.Helper()
	j, _ := mustOpen(t, t.TempDir(), opts)
	r, err := OpenReplica(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	s := NewShipper(j, []Follower{{Name: "f1", T: LocalTransport{R: r}}},
		ShipperOptions{Synchronous: true, Logf: t.Logf})
	j.SetTap(s)
	t.Cleanup(func() { s.Close() })
	waitInSync(t, s)
	return j, r, s
}

// waitConverged polls until the replica's durable position matches the
// leader's durable watermark (same generation, same byte size).
func waitConverged(t *testing.T, j *Journal, r *Replica) {
	t.Helper()
	eventually(t, "the replica to hold the leader's durable bytes", func() bool {
		gen, off := j.durableState()
		st := r.State()
		return st.Gen == gen && st.Size == off && st.Err == ""
	})
}

// waitInSync waits until the follower's catch-up resync is over, so the
// commits that follow are ones the writer waits for.
func waitInSync(t *testing.T, s *Shipper) {
	t.Helper()
	eventually(t, "the follower to be in sync", func() bool {
		fs := s.followers[0]
		fs.mu.Lock()
		defer fs.mu.Unlock()
		return !fs.needResync
	})
}

func appendUsers(t *testing.T, j *Journal, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := j.Append(UserAddedRec(core.UserID(fmt.Sprintf("u%03d", i)))).Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplicaGapArithmetic pins the positional protocol's edge rules: a
// chunk past the tail is a *GapError, a stale generation is absorbed, a
// partial overlap is trimmed rather than rewritten.
func TestReplicaGapArithmetic(t *testing.T) {
	r, err := OpenReplica(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.ApplySegment(0, 0, []byte("abcdef"), false); err != nil {
		t.Fatal(err)
	}
	// Hole: offset beyond the tail must demand a resync.
	var gap *GapError
	if err := r.ApplySegment(0, 100, []byte("x"), false); !errors.As(err, &gap) {
		t.Fatalf("offset past tail: got %v, want *GapError", err)
	}
	if gap.Gen != 0 || gap.Size != 6 {
		t.Fatalf("gap position = %+v, want gen 0 size 6", gap)
	}
	// A new generation must start at byte zero.
	if err := r.ApplySegment(3, 50, []byte("x"), false); !errors.As(err, &gap) {
		t.Fatalf("new gen at nonzero offset: got %v, want *GapError", err)
	}
	// Duplicate and overlapping chunks are absorbed.
	if err := r.ApplySegment(0, 0, []byte("abcd"), false); err != nil {
		t.Fatalf("duplicate chunk: %v", err)
	}
	if err := r.ApplySegment(0, 4, []byte("efGHI"), false); err != nil {
		t.Fatalf("overlapping chunk: %v", err)
	}
	if st := r.State(); st.Size != 9 {
		t.Fatalf("size after overlap trim = %d, want 9", st.Size)
	}
	// Stale generation after a rotation is a no-op, not an error.
	if err := r.ApplySegment(1, 0, []byte("new gen"), false); err != nil {
		t.Fatal(err)
	}
	if err := r.ApplySegment(0, 9, []byte("late"), false); err != nil {
		t.Fatalf("stale-gen chunk: %v", err)
	}
	if st := r.State(); st.Gen != 1 || st.Size != 7 {
		t.Fatalf("state after stale chunk = %+v, want gen 1 size 7", st)
	}
}

// TestReplicaRefusesOutOfRangeOffset: a chunk at a negative offset, or
// one whose end is past the largest offset, addresses no segment. It is
// refused as invalid_argument, and neither the file nor the replica's
// state changes — reset included.
func TestReplicaRefusesOutOfRangeOffset(t *testing.T) {
	r, err := OpenReplica(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.ApplySegment(1, 0, []byte("ABCDEFGH"), false); err != nil {
		t.Fatal(err)
	}
	before := r.State()
	for _, c := range []struct {
		offset int64
		reset  bool
	}{{-3, true}, {-3, false}, {math.MaxInt64 - 2, false}, {math.MaxInt64 - 2, true}} {
		err := r.ApplySegment(1, c.offset, []byte("xyzLMNOPQRS"), c.reset)
		if api.CodeOf(err) != api.CodeInvalidArgument {
			t.Fatalf("offset %d reset %v: got %v, want invalid_argument", c.offset, c.reset, err)
		}
	}
	if st := r.State(); st != before {
		t.Fatalf("state after refused chunks = %+v, want %+v", st, before)
	}
	if got, err := os.ReadFile(walPath(r.Dir(), 1)); err != nil || string(got) != "ABCDEFGH" {
		t.Fatalf("segment after refused chunks = %q, %v; want ABCDEFGH", got, err)
	}
}

// TestReplicaTornSegmentMidShip crashes the follower mid-apply — its
// segment holds a torn frame — and verifies the shipper's resync heals
// the tail and a promotion of the replica directory recovers every
// leader record with no torn tail.
func TestReplicaTornSegmentMidShip(t *testing.T) {
	ldir, rdir := t.TempDir(), t.TempDir()
	j, _ := mustOpen(t, ldir, Options{})
	appendUsers(t, j, 0, 8)
	gen, off := j.durableState()
	leaderBytes, err := os.ReadFile(walPath(ldir, gen))
	if err != nil {
		t.Fatal(err)
	}
	leaderBytes = leaderBytes[:off]

	// The follower dies mid-apply: only a torn prefix of the stream made
	// it to its disk, ending inside a frame.
	r, err := OpenReplica(rdir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ApplySegment(gen, 0, leaderBytes[:len(leaderBytes)/2+3], false); err != nil {
		t.Fatal(err)
	}
	r.Close()

	// Reopened after the crash, the replica resumes at the torn size; the
	// next live chunk lands past it, so the shipper must resync with
	// reset=true and rewrite the segment from byte zero.
	r2, err := OpenReplica(rdir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if st := r2.State(); st.Size != int64(len(leaderBytes)/2+3) {
		t.Fatalf("reopened replica size = %d, want the torn %d", st.Size, len(leaderBytes)/2+3)
	}
	var gap *GapError
	if err := r2.ApplySegment(gen, off, []byte("next-commit"), false); !errors.As(err, &gap) {
		t.Fatalf("live chunk on torn tail: got %v, want *GapError", err)
	}
	s := NewShipper(j, []Follower{{Name: "f1", T: LocalTransport{R: r2}}},
		ShipperOptions{Synchronous: true, Logf: t.Logf})
	j.SetTap(s)
	defer s.Close()
	appendUsers(t, j, 8, 4)
	waitConverged(t, j, r2)

	wantGen, wantOff := j.durableState()
	got, err := os.ReadFile(walPath(rdir, wantGen))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(walPath(ldir, wantGen))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:wantOff], want[:wantOff]) {
		t.Fatal("replica segment diverged from the leader's durable prefix after resync")
	}

	// Promotion: the healed directory recovers every record cleanly.
	j.Crash()
	r2.Close()
	p, rec := mustOpen(t, rdir, Options{})
	defer p.Close()
	if rec.TornTail {
		t.Fatal("promoted replica reported a torn tail after resync healed it")
	}
	if got := userIDs(rec.Records); len(got) != 12 || got[0] != "u000" || got[11] != "u011" {
		t.Fatalf("promoted replica replayed users %v, want u000..u011", got)
	}
}

// TestFollowerBehindSnapshotGenerations detaches the follower while the
// leader compacts twice — two whole snapshot generations ahead — and
// verifies the catch-up resync installs the newest snapshot, retires the
// follower's stale files, and promotion recovers the full state.
func TestFollowerBehindSnapshotGenerations(t *testing.T) {
	ldir, rdir := t.TempDir(), t.TempDir()
	j, _ := mustOpen(t, ldir, Options{SnapshotEvery: -1})
	j.SetSnapshotSource(func() *StateImage {
		return &StateImage{Users: []api.User{{ID: "snap-user"}}}
	})

	// The follower sees generation 0 only.
	r, err := OpenReplica(rdir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	s := NewShipper(j, []Follower{{Name: "f1", T: LocalTransport{R: r}}},
		ShipperOptions{Synchronous: true, Logf: t.Logf})
	j.SetTap(s)
	appendUsers(t, j, 0, 4)
	waitConverged(t, j, r)
	s.Close()
	j.SetTap(nil)

	// Two compactions while detached: the leader is now >1 snapshot
	// generation ahead and generation 0's segment is gone.
	appendUsers(t, j, 4, 4)
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	appendUsers(t, j, 8, 4)
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	appendUsers(t, j, 12, 4)
	if st := j.Stats(); st.Gen < 2 {
		t.Fatalf("leader gen = %d, want >= 2 after two compactions", st.Gen)
	}

	// Reattach: the initial resync must carry the newest snapshot and the
	// live segment; stale follower files are retired.
	s2 := NewShipper(j, []Follower{{Name: "f1", T: LocalTransport{R: r}}},
		ShipperOptions{Synchronous: true, Logf: t.Logf})
	j.SetTap(s2)
	defer s2.Close()
	waitConverged(t, j, r)
	lead := j.Stats()
	if st := r.State(); st.SnapGen != lead.Gen {
		t.Fatalf("replica snapGen = %d, want the leader's %d", st.SnapGen, lead.Gen)
	}
	entries, err := os.ReadDir(rdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if g, ok := parseGen(e.Name(), "snapshot-", ".snap"); ok && g < lead.Gen {
			t.Fatalf("stale snapshot gen %d survived catch-up", g)
		}
		if g, ok := parseGen(e.Name(), "wal-", ".log"); ok && g < lead.Gen {
			t.Fatalf("stale segment gen %d survived catch-up", g)
		}
	}

	j.Crash()
	p, rec := mustOpen(t, rdir, Options{})
	defer p.Close()
	if rec.Image == nil || len(rec.Image.Users) == 0 {
		t.Fatal("promoted replica recovered no snapshot image")
	}
	if got := userIDs(rec.Records); len(got) != 4 || got[0] != "u012" {
		t.Fatalf("promoted replica tail = %v, want u012..u015", got)
	}
}

// TestFollowerStickyENOSPC starves the follower's disk with the sticky
// write fault: the leader must keep committing (a dead follower never
// wedges the control plane), replication health must surface the error,
// and healing the disk must converge the follower without a restart.
func TestFollowerStickyENOSPC(t *testing.T) {
	j, r, s := newLeaderWithFollower(t, Options{})
	appendUsers(t, j, 0, 3)
	waitConverged(t, j, r)

	r.SetFault(&FaultInjection{WriteErr: func(int) error {
		return errors.New("write: no space left on device")
	}})
	// Every commit still settles: the first ship fails beside the
	// leader's own sync and demotes the follower to a resync, which the
	// writer does not wait for — and each such commit is counted.
	appendUsers(t, j, 3, 5)
	if st := s.Status()[0]; st.AsyncCommits != 5 {
		t.Fatalf("async commits = %d, want the 5 that settled without the follower", st.AsyncCommits)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		sts := s.Status()
		if len(sts) == 1 && sts[0].LastError != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower error never surfaced in Status: %+v", sts)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Heal the disk: the retry loop must converge the follower on its own.
	r.SetFault(nil)
	waitConverged(t, j, r)
	waitInSync(t, s)
	appendUsers(t, j, 8, 1)
	sts := s.Status()
	if sts[0].LagBytes != 0 || sts[0].Resyncs == 0 || sts[0].AsyncCommits != 5 {
		t.Fatalf("healed follower status = %+v, want zero lag after at least one resync and no further async commit", sts[0])
	}

	j.Crash()
	r.Close()
	p, rec := mustOpen(t, r.Dir(), Options{})
	defer p.Close()
	if got := userIDs(rec.Records); len(got) != 9 {
		t.Fatalf("promoted replica replayed %d users, want all 9", len(got))
	}
}

// gateTransport holds the first snapshot ship at a gate until the test
// opens it; everything else passes straight to the replica.
type gateTransport struct {
	LocalTransport
	entered chan struct{} // closed when the first snapshot ship arrives
	open    chan struct{} // closed by the test to let it through
	once    sync.Once
}

func (g *gateTransport) ShipSnapshot(gen uint64, image []byte) error {
	g.once.Do(func() { close(g.entered) })
	<-g.open
	return g.LocalTransport.ShipSnapshot(gen, image)
}

// settleCheck wraps a Tap and, at the instant a commit's tickets are
// about to settle, checks that the replica holds the commit's bytes.
type settleCheck struct {
	Tap
	r       *Replica
	missing atomic.Int64
}

func (c *settleCheck) Commit(gen uint64, offset int64, chunk []byte) func(error) {
	settle := c.Tap.Commit(gen, offset, chunk)
	end := offset + int64(len(chunk))
	return func(err error) {
		settle(err)
		if st := c.r.State(); err == nil && (st.Gen < gen || st.Gen == gen && st.Size < end) {
			c.missing.Add(1)
		}
	}
}

// TestSyncShipOrderedBehindSnapshot: in synchronous mode a commit that
// arrives while a snapshot ship is queued or in flight goes behind it
// in the follower's one queue and is waited for like any other — it is
// not acknowledged asynchronously, and it does not overtake what is
// ahead of it into a gap and a resync. Every commit here rotates the
// segment (SnapshotEvery 1), so snapshots are in the queue all the time.
func TestSyncShipOrderedBehindSnapshot(t *testing.T) {
	j, _ := mustOpen(t, t.TempDir(), Options{SnapshotEvery: 1})
	defer j.Close()
	j.SetSnapshotSource(NewStateImage)
	r, err := OpenReplica(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	gate := &gateTransport{LocalTransport: LocalTransport{R: r},
		entered: make(chan struct{}), open: make(chan struct{})}
	s := NewShipper(j, []Follower{{Name: "f1", T: gate}}, ShipperOptions{Synchronous: true})
	defer s.Close()
	check := &settleCheck{Tap: s, r: r}
	j.SetTap(check)
	waitInSync(t, s)
	attach := s.Status()[0].Resyncs

	// The first commit rotates; its snapshot ship is held at the gate.
	appendUsers(t, j, 0, 1)
	<-gate.entered
	// Commits behind the held snapshot: the gate opens only once two
	// events are queued at the follower, so at least one commit was
	// handed over with a snapshot ahead of it.
	go func() {
		fs := s.followers[0]
		for {
			fs.mu.Lock()
			n := len(fs.queue)
			fs.mu.Unlock()
			if n >= 2 {
				close(gate.open)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	appendUsers(t, j, 1, 3)

	// And under load: concurrent appenders across many rotations.
	var wg sync.WaitGroup
	for a := 0; a < 4; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				if err := j.Append(UserAddedRec(core.UserID(fmt.Sprintf("a%d-%03d", a, i)))).Wait(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if gen := j.Stats().Gen; gen < 20 {
		t.Fatalf("only %d rotations, want at least 20", gen)
	}
	if n := check.missing.Load(); n != 0 {
		t.Fatalf("%d commits settled before the replica held their bytes", n)
	}
	if st := s.Status()[0]; st.Resyncs != attach || st.AsyncCommits != 0 {
		t.Fatalf("follower status %+v: want resyncs still %d and no async commit", st, attach)
	}
	waitConverged(t, j, r)
}

// TestCrashWithFollowerAhead: the leader dies after a chunk reached the
// follower and before its own sync made it durable, so the replica is
// ahead of what the leader recovers. The attach-time resync of the
// restarted leader rewrites the follower's segment, and the replica
// ends byte-equal to the leader's recovered one — shorter than it was.
func TestCrashWithFollowerAhead(t *testing.T) {
	ldir := t.TempDir()
	j, _ := mustOpen(t, ldir, Options{})
	r, err := OpenReplica(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s := NewShipper(j, []Follower{{Name: "f1", T: LocalTransport{R: r}}},
		ShipperOptions{Synchronous: true, Logf: t.Logf})
	j.SetTap(s)
	waitInSync(t, s)
	appendUsers(t, j, 0, 3)
	_, durable := j.durableState()

	// Hold the leader's sync until the follower has applied the chunk.
	inSync, crashed := make(chan struct{}), make(chan struct{})
	j.SetFault(&FaultInjection{SyncDelay: func() time.Duration {
		close(inSync)
		<-crashed
		return 0
	}})
	lost := j.Append(UserAddedRec("never-acknowledged"))
	go lost.Wait()
	<-inSync
	eventually(t, "the follower to apply the chunk beside the leader's sync",
		func() bool { return r.State().Size > durable })
	stopped := make(chan struct{})
	go func() { j.Crash(); close(stopped) }()
	eventually(t, "the crash to begin", func() bool { return j.Err() != nil })
	close(crashed)
	<-stopped
	s.Close()
	// The process died before the sync: the chunk never left the page
	// cache.
	if err := os.Truncate(walPath(ldir, 0), durable); err != nil {
		t.Fatal(err)
	}
	if st := r.State(); st.Size <= durable {
		t.Fatalf("replica size %d, want it ahead of the leader's %d", st.Size, durable)
	}

	j2, rec := mustOpen(t, ldir, Options{})
	defer j2.Close()
	if got := userIDs(rec.Records); len(got) != 3 {
		t.Fatalf("leader recovered %v, want the 3 acknowledged users", got)
	}
	s2 := NewShipper(j2, []Follower{{Name: "f1", T: LocalTransport{R: r}}},
		ShipperOptions{Synchronous: true, Logf: t.Logf})
	j2.SetTap(s2)
	defer s2.Close()
	waitInSync(t, s2)
	want, err := os.ReadFile(walPath(ldir, 0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(walPath(r.Dir(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || int64(len(got)) != durable {
		t.Fatalf("replica segment is %d bytes, leader's recovered segment %d (durable %d): not byte-equal",
			len(got), len(want), durable)
	}
}

// holdTransport holds the follower's first ship — the attach-time
// resync — until the test opens it; once refuse is set it fails every
// ship, as a link to a dead process would.
type holdTransport struct {
	LocalTransport
	entered, open chan struct{}
	once, opened  sync.Once
	refuse        atomic.Bool
}

func (h *holdTransport) release() { h.opened.Do(func() { close(h.open) }) }

func newHoldTransport(r *Replica) *holdTransport {
	return &holdTransport{LocalTransport: LocalTransport{R: r},
		entered: make(chan struct{}), open: make(chan struct{})}
}

func (h *holdTransport) ShipSegment(gen uint64, offset int64, chunk []byte, reset bool) error {
	h.once.Do(func() { close(h.entered) })
	<-h.open
	if h.refuse.Load() {
		return errors.New("connection refused")
	}
	return h.LocalTransport.ShipSegment(gen, offset, chunk, reset)
}

// appendFirst appends one record while the attach-time resync is held
// and returns once it is acknowledged. The gate opens only when the
// commit has joined the follower; a commit that settles without joining
// it is acknowledged with the gate still shut.
func appendFirst(t *testing.T, j *Journal, s *Shipper, hold *holdTransport, id core.UserID) {
	t.Helper()
	<-hold.entered
	done := make(chan error, 1)
	go func() { done <- j.Append(UserAddedRec(id)).Wait() }()
	fs := s.followers[0]
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
		fs.mu.Lock()
		joined := fs.waitSeq != 0
		fs.mu.Unlock()
		if joined {
			hold.release()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestFirstAcknowledgedWriteOnFollower: a synchronous follower is
// waited for from the first acknowledged write, not from the end of its
// attach-time resync. The first record is acknowledged while the resync
// is held (appendFirst), the leader dies, and the replica directory,
// opened as the promoted journal, must hold the record.
func TestFirstAcknowledgedWriteOnFollower(t *testing.T) {
	j, _ := mustOpen(t, t.TempDir(), Options{})
	r, err := OpenReplica(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	hold := newHoldTransport(r)
	s := NewShipper(j, []Follower{{Name: "f1", T: hold}}, ShipperOptions{Synchronous: true, Logf: t.Logf})
	j.SetTap(s)
	appendFirst(t, j, s, hold, "first")

	j.Crash()
	hold.refuse.Store(true)
	hold.release()
	s.Close()
	r.Close()
	promoted, rec := mustOpen(t, r.Dir(), Options{})
	defer promoted.Close()
	if got := userIDs(rec.Records); !slices.Equal(got, []core.UserID{"first"}) {
		t.Fatalf("promoted replica recovered %v: the first acknowledged write lived on the leader alone", got)
	}
}

// TestAttachFailureDemotes: a commit that joined the attach-time resync
// is released when that first attempt fails — the follower is demoted
// as a failed ship would demote it — so a dead peer does not wedge the
// leader, and the commit counts as settled without the follower.
func TestAttachFailureDemotes(t *testing.T) {
	j, _ := mustOpen(t, t.TempDir(), Options{})
	defer j.Close()
	r, err := OpenReplica(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	hold := newHoldTransport(r)
	hold.refuse.Store(true)
	s := NewShipper(j, []Follower{{Name: "f1", T: hold}}, ShipperOptions{Synchronous: true, Logf: t.Logf})
	defer s.Close()
	defer hold.release()
	j.SetTap(s)
	appendFirst(t, j, s, hold, "u1")
	if st := s.Status()[0]; st.AsyncCommits != 1 || st.LastError == "" {
		t.Fatalf("follower status %+v: want one async commit and the refusal recorded", st)
	}
}

// failLive fails every live chunk ship and passes the resync path
// through, so the follower catches up at attach and every commit after
// that demotes it.
type failLive struct{ LocalTransport }

func (f failLive) ShipSegment(gen uint64, offset int64, chunk []byte, reset bool) error {
	if !reset {
		return errors.New("link down")
	}
	return f.LocalTransport.ShipSegment(gen, offset, chunk, reset)
}

// TestShipperLogsOutsideFollowerLock: a demotion is logged after the
// follower's lock is released, so a Logf that reads Status() wedges
// neither the delivery goroutine nor the commit joined on it.
func TestShipperLogsOutsideFollowerLock(t *testing.T) {
	j, _ := mustOpen(t, t.TempDir(), Options{})
	r, err := OpenReplica(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var sp atomic.Pointer[Shipper]
	demoted := make(chan string, 1)
	logf := func(format string, args ...any) {
		if s := sp.Load(); s != nil {
			s.Status()
		}
		if msg := fmt.Sprintf(format, args...); strings.Contains(msg, "link down") {
			select {
			case demoted <- msg:
			default:
			}
		}
	}
	s := NewShipper(j, []Follower{{Name: "f1", T: failLive{LocalTransport{R: r}}}},
		ShipperOptions{Synchronous: true, Logf: logf})
	sp.Store(s)
	j.SetTap(s)
	waitInSync(t, s)

	done := make(chan error, 1)
	go func() { done <- j.Append(UserAddedRec("u1")).Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("commit wedged behind a demotion logged under the follower lock")
	}
	select {
	case <-demoted:
	case <-time.After(10 * time.Second):
		t.Fatal("the failed ship's demotion was never logged")
	}
	s.Close()
	j.Close()
	r.Close()
}

// TestReplicaLogsOutsideLock: a failed apply is logged after the
// replica's lock is released, so a logf that reads State() does not
// deadlock the apply.
func TestReplicaLogsOutsideLock(t *testing.T) {
	logs := make(chan string, 4)
	var r *Replica
	r, err := OpenReplica(t.TempDir(), func(format string, args ...any) {
		st := r.State()
		logs <- fmt.Sprintf(format, args...) + " (state error: " + st.Err + ")"
	})
	if err != nil {
		t.Fatal(err)
	}
	r.SetFault(&FaultInjection{WriteErr: func(int) error {
		return errors.New("write: no space left on device")
	}})
	done := make(chan error, 1)
	go func() { done <- r.ApplySegment(1, 0, []byte("record"), false) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("apply succeeded through an injected write error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("apply wedged: the replica logged its failure under its own lock")
	}
	select {
	case msg := <-logs:
		if !strings.Contains(msg, "no space left on device") {
			t.Fatalf("logged %q, want the apply failure", msg)
		}
	default:
		t.Fatal("the failed apply was not logged")
	}
	r.Close()
}
