package journal

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
)

// WAL replication: a shard leader ships every group commit (and every
// snapshot generation) to follower peers, which maintain a byte-exact
// copy of the journal directory. A follower never interprets records —
// it is a durability sink whose directory can be handed to the ordinary
// recovery path (server.OpenJournal) at promotion time, so failover
// reuses the exact crash-recovery machinery the single-server design
// already trusts.
//
// The protocol is positional, not record-framed: a chunk is (gen,
// offset, bytes) addressing the leader's segment file, a snapshot is
// (gen, image bytes). Because segments are CRC-framed per record, a
// chunk torn on the follower (its process died mid-apply) is truncated
// back to the last good frame by ordinary recovery; a chunk torn on the
// wire is caught by the offset arithmetic and triggers a resync.

// Tap observes the journal's commits and snapshots; see Journal.SetTap.
// Neither slice handed to it is modified afterwards, so an
// implementation may keep them.
type Tap interface {
	// Commit is called on the writer goroutine with the chunk of a group
	// commit at (gen, offset), after it was written to the segment and
	// before it is synced, so whatever the tap starts runs beside the
	// local fsync. The writer calls the returned settle function once,
	// after the sync, with its outcome, and settles the commit's tickets
	// only when settle has returned: what settle waits for is part of
	// every acknowledgement (the synchronous shipping mode, which gives
	// zero-loss failover). A non-nil err means the chunk was never made
	// durable and has been truncated away.
	Commit(gen uint64, offset int64, chunk []byte) (settle func(err error))
	// Snapshotted delivers a freshly persisted state image on the
	// goroutine that wrote it; segments below gen are retired on the
	// leader and may be retired on the follower too.
	Snapshotted(gen uint64, image []byte)
}

// ReplicaState is a follower's durable position, the unit of catch-up
// negotiation and the replication-lag surface.
type ReplicaState struct {
	// SnapGen is the newest installed snapshot generation.
	SnapGen uint64 `json:"snapGen"`
	// Gen and Size address the follower's current segment tail.
	Gen  uint64 `json:"gen"`
	Size int64  `json:"size"`
	// Applied counts apply calls that wrote bytes, Err is the last
	// apply failure ("" while healthy).
	Applied uint64 `json:"applied"`
	Err     string `json:"err,omitempty"`
}

// GapError reports that a shipped chunk does not extend the replica's
// tail — the follower missed one or more chunks (or a whole rotation)
// and needs a resync from the leader's directory.
type GapError struct {
	Gen  uint64
	Size int64
}

func (e *GapError) Error() string {
	return fmt.Sprintf("journal: replica gap: have gen %d size %d", e.Gen, e.Size)
}

// Replica is the follower side of WAL replication: a journal directory
// kept byte-identical to the leader's durable prefix. Applies are
// individually fsynced, so the replica's reported Size never exceeds
// what its own disk holds; a failed apply truncates back to the last
// good size and is retryable (the shipper re-ships or resyncs).
type Replica struct {
	disk *disk
	logf func(format string, args ...any)

	mu      sync.Mutex
	f       file // the segment of gen; nil until the next write opens it
	gen     uint64
	size    int64
	snapGen uint64
	applied uint64
	lastErr string
	closed  bool
}

// OpenReplica opens (creating if needed) a replica over dir and resumes
// from whatever segment tail is already present.
func OpenReplica(dir string, logf func(format string, args ...any)) (*Replica, error) {
	return openReplica(osFS{}, dir, logf)
}

func openReplica(fsys fsys, dir string, logf func(format string, args ...any)) (*Replica, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := fsys.mkdirAll(dir); err != nil {
		return nil, fmt.Errorf("journal: replica: %v", err)
	}
	d := &disk{fs: fsys, dir: dir}
	snapGen, _, segs, err := d.read(math.MaxUint64)
	if err != nil {
		return nil, fmt.Errorf("journal: replica: %v", err)
	}
	r := &Replica{disk: d, logf: logf, snapGen: snapGen, gen: snapGen}
	if n := len(segs); n > 0 {
		r.gen, r.size = segs[n-1].gen, int64(len(segs[n-1].data))
	}
	return r, nil
}

// Dir returns the replica's directory — the journal directory a
// promotion hands to server.OpenJournal.
func (r *Replica) Dir() string { return r.disk.dir }

// SetFault installs (or with nil clears) disk fault hooks on the apply
// path, mirroring the leader journal's FaultInjection semantics so
// chaos tests can starve the follower (sticky ENOSPC) independently of
// the leader.
func (r *Replica) SetFault(f *FaultInjection) { r.disk.fault.Store(f) }

// State reports the replica's durable position.
func (r *Replica) State() ReplicaState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReplicaState{SnapGen: r.snapGen, Gen: r.gen, Size: r.size,
		Applied: r.applied, Err: r.lastErr}
}

// ApplySegment appends a shipped chunk at (gen, offset). Duplicate and
// overlapping chunks are absorbed by offset arithmetic (re-shipping is
// always safe); a chunk that does not reach the current tail returns a
// *GapError so the shipper falls back to a directory resync. reset
// forces the segment to be rewritten from byte zero — the resync path,
// which also heals a tail torn by a crashed apply. A chunk that does not
// address a segment (a negative offset, or an end past the largest
// offset) is refused as invalid_argument and changes nothing.
func (r *Replica) ApplySegment(gen uint64, offset int64, chunk []byte, reset bool) (err error) {
	if offset < 0 || offset > math.MaxInt64-int64(len(chunk)) {
		return api.Errorf(api.CodeInvalidArgument, "journal: replica: %d bytes at offset %d address no segment", len(chunk), offset)
	}
	defer r.logFailure(&err) // deferred first, so it runs after the unlock
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("journal: replica closed")
	}
	fresh := reset || gen > r.gen // the segment is rewritten from byte zero
	switch {
	case !fresh && gen < r.gen:
		return nil // stale duplicate from before a rotation
	case offset > r.size || fresh && offset != 0:
		return &GapError{Gen: r.gen, Size: r.size}
	}
	if fresh || r.f == nil {
		if err := r.openLocked(gen, fresh); err != nil {
			return r.failLocked(err)
		}
	}
	if offset+int64(len(chunk)) <= r.size {
		return nil // fully duplicate
	}
	chunk, offset = chunk[r.size-offset:], r.size
	if err := r.disk.writeChunk(r.f, offset, chunk, nil); err != nil {
		return r.failLocked(err)
	}
	r.size = offset + int64(len(chunk))
	r.applied++
	r.lastErr = ""
	return nil
}

// ApplySnapshot installs a shipped state image for gen and retires
// everything older, mirroring the leader's compaction.
func (r *Replica) ApplySnapshot(gen uint64, image []byte) (err error) {
	installed := false
	defer func() { // deferred first, so it runs after the unlock
		if installed {
			r.logf("journal: replica installed snapshot gen %d (%d bytes)", gen, len(image))
		}
		r.logFailure(&err)
	}()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("journal: replica closed")
	}
	if gen <= r.snapGen {
		return nil
	}
	if err := r.disk.installSnapshot(gen, image, true, nil); err != nil {
		return r.failLocked(err)
	}
	r.snapGen = gen
	// The current segment survives only at or after the snapshot
	// generation (leader compaction rotates before it snapshots, so the
	// live segment is always >= the new snapGen on a healthy stream).
	if r.gen < gen {
		if r.f != nil {
			r.f.Close()
		}
		r.f, r.gen, r.size = nil, gen, 0
	}
	r.applied++
	r.lastErr = ""
	installed = true
	return nil
}

// openLocked makes gen's segment the tail: emptied when trunc, else
// reopened to extend at r.size.
func (r *Replica) openLocked(gen uint64, trunc bool) error {
	f, err := r.disk.openSegment(gen, trunc)
	if err != nil {
		return err
	}
	if r.f != nil {
		r.f.Close()
	}
	r.f, r.gen = f, gen
	if trunc {
		r.size = 0
	}
	return nil
}

// applyError is a failed apply, which the replica logs; gaps, stale
// duplicates and a closed replica are reported to the shipper only.
type applyError struct{ error }

// failLocked records a failed apply. It does not log: r.mu is held, and
// the apply's deferred logFailure reports it once the lock is released.
func (r *Replica) failLocked(err error) error {
	err = &applyError{fmt.Errorf("journal: replica apply: %v", err)}
	r.lastErr = err.Error()
	return err
}

// logFailure logs *err if it is a failed apply. Called without r.mu, so
// a slow log sink cannot stall the apply path, and a logf that reads
// State() cannot deadlock.
func (r *Replica) logFailure(err *error) {
	var ae *applyError
	if errors.As(*err, &ae) {
		r.logf("%v", *err)
	}
}

// Close releases the replica's file handle. The directory stays valid
// for promotion.
func (r *Replica) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		return err
	}
	return nil
}

// ShipTransport carries replication traffic to one follower: the
// in-process form wraps a *Replica directly, the federation layer
// provides an HTTP form. Implementations must be safe for use from one
// goroutine at a time — the Shipper calls each follower's transport
// only from that follower's delivery goroutine.
type ShipTransport interface {
	ShipSegment(gen uint64, offset int64, chunk []byte, reset bool) error
	ShipSnapshot(gen uint64, image []byte) error
	State() (ReplicaState, error)
}

// LocalTransport ships to a replica in the same process (tests and the
// fleet simulator's multi-shard harness).
type LocalTransport struct{ R *Replica }

func (t LocalTransport) ShipSegment(gen uint64, offset int64, chunk []byte, reset bool) error {
	return t.R.ApplySegment(gen, offset, chunk, reset)
}
func (t LocalTransport) ShipSnapshot(gen uint64, image []byte) error {
	return t.R.ApplySnapshot(gen, image)
}
func (t LocalTransport) State() (ReplicaState, error) { return t.R.State(), nil }

// Follower names one replication target.
type Follower struct {
	Name string
	T    ShipTransport
}

// ShipperOptions tunes a Shipper.
type ShipperOptions struct {
	// Synchronous makes every group commit wait, before any of its
	// tickets settles, until each in-sync follower has applied its chunk:
	// an acknowledged commit is on every such follower, which is what
	// makes failover zero-loss. The ship runs on the follower's delivery
	// goroutine beside the leader's own fsync; the journal's writer only
	// joins it. A follower that errors drops to a resync and is not
	// waited for until it has caught up, so the leader never wedges
	// behind a dead peer; FollowerStatus.AsyncCommits counts the commits
	// that settled without it. When false, no commit waits (bounded lag,
	// no added commit latency).
	Synchronous bool
	// QueueBytes bounds each follower's queue; past it the queue
	// collapses into a resync. 0 means 16 MiB.
	QueueBytes int
	// Backoff paces retry after a follower error; the zero value uses
	// core.Backoff defaults.
	Backoff core.Backoff
	Logf    func(format string, args ...any)
}

// shipEvent is one queued replication event: a segment chunk or (when
// image != nil) a snapshot. seq numbers a follower's events from 1 in
// queue order.
type shipEvent struct {
	seq    uint64
	gen    uint64
	offset int64
	chunk  []byte
	image  []byte
}

// followerState is the shipper's per-follower bookkeeping. Everything
// travels one FIFO — chunks and snapshots in commit order — drained by
// the follower's one delivery goroutine, the only caller of t.
type followerState struct {
	name string
	t    ShipTransport

	mu     sync.Mutex
	queue  []shipEvent
	queued int // bytes in queue
	// enqueued is the seq of the newest event; released the seq up to
	// which the writer has nothing left to wait for — delivered, or given
	// up on by a demotion. cond announces released (and closed) moving.
	enqueued uint64
	released uint64
	cond     *sync.Cond
	// waitSeq is the event the commit in flight joins on, 0 when it does
	// not wait for this follower; set and read by the writer goroutine.
	waitSeq uint64
	// needResync sends the delivery goroutine through a directory
	// resync before the queue; demotions counts the times it was set, so
	// a resync that was overtaken by another demotion does not clear it.
	needResync bool
	// attaching holds until the first resync attempt ends. A synchronous
	// commit joins that attempt like an in-sync ship — the follower is
	// waited for from the first acknowledged write — and a failed
	// attempt demotes it, so a dead peer never wedges the leader.
	attaching    bool
	demotions    uint64
	closed       bool
	lastErr      string
	resyncs      uint64
	asyncCommits uint64
	shipGen      uint64 // last position handed to the transport
	shipOff      int64
	ackGen       uint64 // last position the follower confirmed durable
	ackOff       int64
	kick         chan struct{}
}

// ackCovers reports whether the follower confirmed everything up to
// (gen, end); fs.mu held.
func (fs *followerState) ackCovers(gen uint64, end int64) bool {
	return gen < fs.ackGen || (gen == fs.ackGen && end <= fs.ackOff)
}

// FollowerStatus is one follower's replication health, surfaced through
// /v1/healthz and /v1/statz.
type FollowerStatus struct {
	Name string `json:"name"`
	// LastShippedGen/Offset is the newest position handed to the
	// transport; AckedGen/Offset the newest position the follower
	// confirmed durable.
	LastShippedGen    uint64 `json:"lastShippedGen"`
	LastShippedOffset int64  `json:"lastShippedOffset"`
	AckedGen          uint64 `json:"ackedGen"`
	AckedOffset       int64  `json:"ackedOffset"`
	// LagBytes is the byte volume committed on the leader but not yet
	// confirmed by this follower (queued plus in flight).
	LagBytes int64 `json:"lagBytes"`
	// Resyncs counts directory catch-up passes (gap, overflow or error
	// recovery); LastError is the most recent transport failure.
	Resyncs   uint64 `json:"resyncs"`
	LastError string `json:"lastError,omitempty"`
	// AsyncCommits counts group commits whose tickets settled before
	// this follower confirmed their bytes: every commit a resyncing
	// follower was not waited for, and in asynchronous mode every commit
	// the follower had not already applied. 0 on a synchronous follower
	// means no acknowledged record ever existed on the leader alone.
	AsyncCommits uint64 `json:"asyncCommits"`
}

// Shipper replicates a journal to follower peers. It implements Tap;
// attach with jn.SetTap(shipper) after NewShipper, which schedules an
// initial resync so followers converge from any starting point.
type Shipper struct {
	jn        *Journal
	opts      ShipperOptions
	followers []*followerState
	quit      chan struct{}
	wg        sync.WaitGroup
}

// NewShipper builds a shipper over jn for the given followers and
// starts their delivery goroutines. Call jn.SetTap(s) to begin live
// shipping and s.Close() before closing the journal.
func NewShipper(jn *Journal, followers []Follower, opts ShipperOptions) *Shipper {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.QueueBytes <= 0 {
		opts.QueueBytes = 16 << 20
	}
	s := &Shipper{jn: jn, opts: opts, quit: make(chan struct{})}
	for _, f := range followers {
		fs := &followerState{name: f.Name, t: f.T, needResync: true, attaching: true,
			kick: make(chan struct{}, 1)}
		fs.cond = sync.NewCond(&fs.mu)
		fs.kick <- struct{}{} // start the initial resync at attach, not at first commit
		s.followers = append(s.followers, fs)
		s.wg.Add(1)
		go s.run(fs)
	}
	return s
}

var _ Tap = (*Shipper)(nil)

// Commit implements Tap: the chunk joins every follower's queue while
// the leader's fsync is still ahead, and the returned settle joins the
// ships after it.
func (s *Shipper) Commit(gen uint64, offset int64, chunk []byte) func(error) {
	for _, fs := range s.followers {
		fs.mu.Lock()
		wait := s.opts.Synchronous && (!fs.needResync || fs.attaching)
		seq, demoted := s.enqueueLocked(fs, shipEvent{gen: gen, offset: offset, chunk: chunk})
		fs.waitSeq = 0
		if wait {
			fs.waitSeq = seq
		}
		fs.mu.Unlock()
		s.logDemotion(fs, demoted)
	}
	end := offset + int64(len(chunk))
	return func(err error) { s.settle(gen, end, err) }
}

// settle runs on the writer after the local sync of the chunk ending at
// (gen, end). On success it waits for the followers the commit joins on
// and counts those that do not hold the chunk. On failure the chunk was
// truncated away on the leader but may sit on any follower: each is
// sent to a resync, which rewrites its segment from the durable
// watermark, so a failed commit's bytes do not survive on a promotable
// replica. Nothing follows a failed commit (the journal is sticky), so
// the queue goes too.
func (s *Shipper) settle(gen uint64, end int64, err error) {
	for _, fs := range s.followers {
		var demoted error
		fs.mu.Lock()
		if err != nil {
			fs.queue, fs.queued = nil, 0
			demoted = s.demoteLocked(fs, fmt.Errorf("leader commit failed, resyncing to the durable prefix: %v", err))
		} else {
			for fs.released < fs.waitSeq && !fs.closed {
				fs.cond.Wait()
			}
			if !fs.ackCovers(gen, end) {
				fs.asyncCommits++
			}
		}
		fs.mu.Unlock()
		s.logDemotion(fs, demoted)
	}
}

// Snapshotted implements Tap; a snapshot travels the same queue as the
// chunks around it but nothing waits for it — it carries no commit-
// acknowledgement semantics, only compaction.
func (s *Shipper) Snapshotted(gen uint64, image []byte) {
	for _, fs := range s.followers {
		fs.mu.Lock()
		_, demoted := s.enqueueLocked(fs, shipEvent{gen: gen, image: image})
		fs.mu.Unlock()
		s.logDemotion(fs, demoted)
	}
}

// enqueueLocked appends ev to the follower's queue and returns its seq,
// and the demotion to log if the queue overflowed. Past QueueBytes
// everything older is dropped for a resync: the directory pass ships
// the same bytes from disk without unbounded memory. ev itself stays,
// because a chunk arrives here before it is durable and the resync
// stops at the durable watermark.
func (s *Shipper) enqueueLocked(fs *followerState, ev shipEvent) (seq uint64, demoted error) {
	fs.enqueued++
	ev.seq = fs.enqueued
	n := len(ev.chunk) + len(ev.image)
	if fs.queued+n > s.opts.QueueBytes && len(fs.queue) > 0 {
		fs.queue, fs.queued = nil, 0
		demoted = s.demoteLocked(fs, fmt.Errorf("queue over %d bytes", s.opts.QueueBytes))
	}
	fs.queue = append(fs.queue, ev)
	fs.queued += n
	wake(fs.kick)
	return ev.seq, demoted
}

// demoteLocked takes the follower out of sync: the next thing its
// delivery goroutine does is a resync, and the writer stops waiting for
// anything queued so far. It returns err for the caller to pass to
// logDemotion once fs.mu is released.
func (s *Shipper) demoteLocked(fs *followerState, err error) error {
	fs.lastErr = err.Error()
	fs.needResync = true
	fs.demotions++
	fs.released = fs.enqueued
	fs.cond.Broadcast()
	wake(fs.kick)
	return err
}

// logDemotion logs a demotion, if any. Called without fs.mu: the
// writer's commit path demotes, so a slow log sink must not stall it
// under the lock, and a Logf that reads Status() must not deadlock.
func (s *Shipper) logDemotion(fs *followerState, err error) {
	if err != nil {
		s.opts.Logf("journal: shipper: %s: %v", fs.name, err)
	}
}

// run is one follower's delivery loop: a pending resync first, then the
// queue head, until both are exhausted.
func (s *Shipper) run(fs *followerState) {
	defer s.wg.Done()
	b := s.opts.Backoff
	for {
		select {
		case <-s.quit:
			return
		case <-fs.kick:
		}
		for {
			fs.mu.Lock()
			resync, demotions := fs.needResync, fs.demotions
			var ev shipEvent
			if len(fs.queue) > 0 {
				ev = fs.queue[0]
			}
			fs.mu.Unlock()
			if resync {
				err := s.resync(fs)
				var demoted error
				fs.mu.Lock()
				if err != nil && fs.attaching {
					demoted = s.demoteLocked(fs, err)
				} else if err != nil {
					fs.lastErr = err.Error()
				} else if fs.demotions == demotions {
					fs.needResync = false
					fs.lastErr = ""
				}
				fs.attaching = false
				fs.mu.Unlock()
				s.logDemotion(fs, demoted)
				if err == nil {
					b.Reset()
					continue
				}
				select {
				case <-s.quit:
					return
				case <-time.After(b.Next()):
				}
				continue
			}
			if ev.seq == 0 {
				break
			}
			err := s.deliver(fs, ev)
			var demoted error
			fs.mu.Lock()
			if err != nil {
				// The event stays at the head: the resync stops at the
				// durable watermark, which may be short of it, and then it
				// is what extends the replica's tail.
				demoted = s.demoteLocked(fs, err)
			} else {
				if len(fs.queue) > 0 && fs.queue[0].seq == ev.seq {
					fs.queue = fs.queue[1:]
					fs.queued -= len(ev.chunk) + len(ev.image)
				}
				fs.released = max(fs.released, ev.seq)
				fs.cond.Broadcast()
			}
			fs.mu.Unlock()
			s.logDemotion(fs, demoted)
		}
	}
}

// deliver ships one event; a chunk the follower already confirmed (a
// resync carried it while it was queued) is skipped — replaying it
// would look like a gap to the replica.
func (s *Shipper) deliver(fs *followerState, ev shipEvent) error {
	if ev.image != nil {
		return fs.t.ShipSnapshot(ev.gen, ev.image)
	}
	end := ev.offset + int64(len(ev.chunk))
	fs.mu.Lock()
	covered := fs.ackCovers(ev.gen, end)
	if !covered {
		fs.shipGen, fs.shipOff = ev.gen, end
	}
	fs.mu.Unlock()
	if covered {
		return nil
	}
	if err := fs.t.ShipSegment(ev.gen, ev.offset, ev.chunk, false); err != nil {
		return err
	}
	fs.mu.Lock()
	fs.ackGen, fs.ackOff = ev.gen, end
	fs.lastErr = ""
	fs.mu.Unlock()
	return nil
}

// resync converges a follower from the leader's directory: the current
// snapshot (if any), then every durable segment rewritten from byte
// zero. Reads are bounded to the durable watermark so unsynced page
// cache never replicates.
func (s *Shipper) resync(fs *followerState) error {
	fs.mu.Lock()
	fs.resyncs++
	fs.mu.Unlock()
	durGen, durOff := s.jn.durableState()
	snapGen, img, segs, err := s.jn.disk.read(durGen)
	if err != nil {
		return err
	}
	if img != nil {
		if err := fs.t.ShipSnapshot(snapGen, img); err != nil {
			return err
		}
	}
	for _, sg := range segs {
		data := sg.data
		if sg.gen == durGen && int64(len(data)) > durOff {
			data = data[:durOff]
		}
		if err := fs.t.ShipSegment(sg.gen, 0, data, true); err != nil {
			return err
		}
		fs.mu.Lock()
		fs.shipGen, fs.shipOff = sg.gen, int64(len(data))
		fs.ackGen, fs.ackOff = sg.gen, int64(len(data))
		fs.mu.Unlock()
	}
	s.opts.Logf("journal: shipper: %s: resynced to gen %d", fs.name, durGen)
	return nil
}

// Status reports per-follower replication health.
func (s *Shipper) Status() []FollowerStatus {
	durGen, durOff := s.jn.durableState()
	out := make([]FollowerStatus, 0, len(s.followers))
	for _, fs := range s.followers {
		fs.mu.Lock()
		st := FollowerStatus{
			Name:              fs.name,
			LastShippedGen:    fs.shipGen,
			LastShippedOffset: fs.shipOff,
			AckedGen:          fs.ackGen,
			AckedOffset:       fs.ackOff,
			Resyncs:           fs.resyncs,
			LastError:         fs.lastErr,
			AsyncCommits:      fs.asyncCommits,
		}
		if fs.ackGen == durGen {
			// The follower may be ahead: it applies a chunk while the
			// leader is still syncing it.
			st.LagBytes = max(durOff-fs.ackOff, 0)
		} else {
			// Across a rotation the byte distance is not well defined;
			// report the queued volume plus the leader tail as a bound.
			st.LagBytes = int64(fs.queued) + durOff
		}
		fs.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// Close stops the delivery goroutines and releases a commit waiting on
// them; queued events are dropped (the next shipper run resyncs from
// the directory).
func (s *Shipper) Close() {
	close(s.quit)
	for _, fs := range s.followers {
		fs.mu.Lock()
		fs.closed = true
		fs.cond.Broadcast()
		fs.mu.Unlock()
	}
	s.wg.Wait()
}
