package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// On-disk layout: one state snapshot and one log segment per
// generation, side by side in the data directory.
//
//	snapshot-%016d.snap   full StateImage, written tmp+rename (atomic)
//	wal-%016d.log         records appended after that snapshot
//
// A record frame is [4B little-endian payload length][4B CRC32-IEEE of
// the payload][JSON payload]. Compaction bumps the generation: the new
// snapshot and segment become durable before the old pair is removed,
// so every crash point leaves a recoverable prefix.

const (
	frameHeaderSize = 8
	// maxRecordBytes rejects absurd lengths when scanning a segment, so
	// a corrupted length field cannot make recovery allocate gigabytes.
	maxRecordBytes = 64 << 20
	// defaultSnapshotEvery is the fewest records between two snapshots.
	defaultSnapshotEvery = 4096
	// snapshotGrowth (k) is how far, in bytes, the current segment must
	// outgrow the last state image before the journal compacts again. It
	// fixes two bounds whatever the size of the state: an image of I bytes
	// is rewritten at most once per k·I bytes of log, so the journal
	// writes at most 1 + 1/k bytes per byte logged; and recovery replays
	// at most max(SnapshotEvery records, k × image bytes) of log on top of
	// the image it loads. A record count alone rewrites the whole state
	// every SnapshotEvery records — O(state size) per record.
	snapshotGrowth = 4
	// maxLinger bounds how long a batch nobody waits on (acks, operation
	// bookkeeping — the advisory appends) stays in memory before the
	// writer commits it anyway: the width of the window in which a crash
	// under-reports them.
	maxLinger = 2 * time.Millisecond
)

// Appender is the narrow interface the store and server emit mutation
// records through. Append enqueues the record into the journal's write
// buffer and returns immediately; the ticket resolves once the record
// is durable (its batch has been written and fsynced). Callers that
// need write-ahead semantics enqueue while holding the lock that
// orders the mutation and Wait after releasing it; callers whose
// records are advisory (operation bookkeeping) drop the ticket.
type Appender interface {
	Append(rec Record) Ticket
}

// Ticket resolves when an appended record is durable. The zero Ticket
// is already resolved with no error — what Nop hands out.
type Ticket struct{ b *batch }

// Wait blocks until the record's group commit completed and returns
// its fsync outcome. Waiting is what schedules the commit: the first
// waiter on an open batch wakes the writer, which commits it at once
// instead of letting it linger.
func (t Ticket) Wait() error {
	if t.b == nil {
		return nil
	}
	t.b.demand()
	<-t.b.done
	return t.b.err
}

// Nop is the no-op backend a memory-only server appends to: Append
// discards the record and returns a resolved ticket, so every journaled
// write runs the same code with or without a journal and persists
// nothing.
type Nop struct{}

// Append implements Appender by dropping the record.
func (Nop) Append(Record) Ticket { return Ticket{} }

// batch is one group commit: every record enqueued between two flushes
// shares a batch, and all their tickets settle with the same error on
// one fsync.
type batch struct {
	done chan struct{}
	err  error

	// opened is when the batch's first record arrived (the linger bound
	// counts from it); waited flips once some goroutine blocks on the
	// batch; kick is the owning journal's writer wake-up (nil on an
	// already-settled error ticket).
	opened time.Time
	waited atomic.Bool
	kick   chan<- struct{}
}

// demand marks the batch waited-on and wakes the writer, once.
func (b *batch) demand() {
	select {
	case <-b.done:
		return
	default:
	}
	if b.waited.CompareAndSwap(false, true) {
		wake(b.kick)
	}
}

// wake tells the writer to look at the journal's state again. The
// channel holds one token and the writer re-reads the state after
// taking it, so a send that finds the token already there loses
// nothing.
func wake(kick chan<- struct{}) {
	select {
	case kick <- struct{}{}:
	default:
	}
}

// Options tunes a journal.
type Options struct {
	// SnapshotEvery is the fewest records between two automatic
	// snapshots: compaction runs once that many were committed since the
	// last one and the segment has grown to snapshotGrowth times the byte
	// size of the last state image. 0 means the default (4096), negative
	// disables automatic compaction.
	SnapshotEvery int
	// Logf receives journal diagnostics; nil disables.
	Logf func(format string, args ...any)
}

// Recovery is what Open replayed from disk: the newest valid snapshot
// (nil when none was taken yet) and the record tail appended after it.
// TornTail reports that the final record was truncated or failed its
// checksum — the expected shape of a crash mid-append — and was
// dropped, the segment truncated back to its last valid frame.
type Recovery struct {
	Image    *StateImage
	Records  []Record
	TornTail bool
}

// Stats is the journal's health surface.
type Stats struct {
	// Gen is the current snapshot generation.
	Gen uint64
	// LastSnapshot is when the current generation's snapshot was taken;
	// zero when no snapshot exists yet.
	LastSnapshot time.Time
	// SinceSnapshot counts records flushed since the last snapshot.
	SinceSnapshot int
	// ImageBytes is the size of the newest durable state image (0 before
	// the first snapshot) and SegmentBytes the committed size of the
	// current segment: compaction is due once SegmentBytes reaches
	// snapshotGrowth × ImageBytes, SegmentBytes is what a restart now
	// would replay, and 1 + ImageBytes/SegmentBytes at a rotation is the
	// write amplification.
	ImageBytes   int64
	SegmentBytes int64
	// Appended counts records flushed since Open.
	Appended uint64
	// Flushes counts group commits (write + fsync pairs) since Open;
	// Appended/Flushes is the amortization factor.
	Flushes uint64
}

// Journal is the write-ahead log with group commit and snapshot
// compaction. One background writer goroutine owns the segment file:
// appenders enqueue encoded frames under a short mutex and the writer
// drains everything pending, writes it in one syscall and fsyncs once,
// settling every waiting ticket together. Commits are demand-driven:
// the writer commits the open batch as soon as some goroutine waits on
// it (Ticket.Wait, Sync), so a batch is whatever accumulated while the
// previous sync was in flight; a batch nobody waits on is committed
// maxLinger after its first record.
type Journal struct {
	disk *disk
	opts Options

	mu         sync.Mutex
	buf        []byte
	cur        *batch
	inflight   *batch // batch the writer is committing right now
	pending    int    // records in buf
	err        error
	closed     bool
	crashed    bool
	source     func() *StateImage
	compactReq []chan error

	// Writer-goroutine state; the counters are additionally guarded by
	// mu so Stats can read them from other goroutines.
	f             file
	durable       int64  // bytes of the current segment known synced
	gen           uint64 // current segment generation
	snapGen       uint64 // newest durable snapshot generation
	snapInFlight  bool   // a background snapshot is being written
	imageBytes    int64  // size of snapshot snapGen; 0 when there is none
	sinceSnapshot int
	appended      uint64
	flushes       uint64
	lingered      uint64 // commits started by the linger bound, not a waiter; the scheduling tests read it
	lastSnapshot  time.Time
	snapWG        sync.WaitGroup

	// tap observes commits and snapshots for replication (see
	// replicate.go); read by the writer goroutine under mu. durablePub
	// mirrors the writer-owned durable watermark under mu so Shippers can
	// bound catch-up reads to synced bytes.
	tap        Tap
	durablePub int64

	kick chan struct{}
	quit chan struct{}
	done chan struct{}
}

// SetFault installs (or with nil clears) the commit-path fault hooks.
func (j *Journal) SetFault(f *FaultInjection) { j.disk.fault.Store(f) }

// SetTap installs (or with nil clears) the replication tap. Events
// before the call are not replayed — a shipper starting mid-life runs a
// catch-up pass over the directory first (see Shipper.resync).
func (j *Journal) SetTap(t Tap) {
	j.mu.Lock()
	j.tap = t
	j.mu.Unlock()
}

// durableState reports the current segment generation and how many of
// its bytes are known synced; safe from any goroutine.
func (j *Journal) durableState() (gen uint64, off int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.gen, j.durablePub
}

// Open loads the durable state under dir — the newest valid snapshot
// plus every log segment at or after it (compaction rotates the
// segment before the snapshot lands, so after a crash up to two
// segments carry the tail), tolerating a torn final record — and
// returns a journal ready to append to the newest segment. The
// directory is created when missing; stale generations and leftover
// temp files are removed.
func Open(dir string, opts Options) (*Journal, *Recovery, error) {
	return open(osFS{}, dir, opts)
}

func open(fsys fsys, dir string, opts Options) (*Journal, *Recovery, error) {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	d := &disk{fs: fsys, dir: dir}
	if err := fsys.mkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("journal: %v", err)
	}
	// The newest snapshot wins. Compaction makes the new snapshot durable
	// before removing the old pair, so under crash faults the newest
	// snapshot is always complete; refusing to silently fall back guards
	// the bit-rot case.
	snapGen, raw, segs, err := d.read(math.MaxUint64)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %v", err)
	}
	rec := &Recovery{}
	if raw != nil {
		if rec.Image, err = decodeSnapshot(raw); err != nil {
			return nil, nil, fmt.Errorf("journal: snapshot gen %d: %v", snapGen, err)
		}
	}
	// Replay every segment at or after the snapshot, oldest first. A
	// torn tail on a non-final segment (crash around a rotation) drops
	// that segment's trailing records and replay continues — record
	// application is idempotent and unacknowledged tails carry no
	// durability promises. The newest segment is the one appended to.
	appendGen, valid, torn := snapGen, 0, false
	for _, sg := range segs {
		recs, n, t, err := scanRecords(sg.data)
		if err != nil {
			return nil, nil, err
		}
		rec.Records = append(rec.Records, recs...)
		if t {
			rec.TornTail = true
			opts.Logf("journal: dropping torn tail of %s (%d of %d bytes valid)", walPath(dir, sg.gen), n, len(sg.data))
		}
		appendGen, valid, torn = sg.gen, n, t
	}
	f, err := d.openSegment(appendGen, false)
	if err == nil && torn {
		if err = f.Truncate(int64(valid)); err != nil {
			f.Close()
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %v", err)
	}
	// Generations older than the snapshot (left by a crash between
	// compaction steps) and temp files are dead weight.
	d.retire(snapGen)

	j := &Journal{
		disk: d, opts: opts, f: f, gen: appendGen, snapGen: snapGen,
		durable: int64(valid), durablePub: int64(valid),
		// The trigger starts from the recovered image and tail, not from
		// zero: a tail already past the threshold compacts at the first
		// opportunity, a large image keeps its proportionally long segment.
		imageBytes:    int64(len(raw)),
		sinceSnapshot: len(rec.Records),
		kick:          make(chan struct{}, 1),
		quit:          make(chan struct{}),
		done:          make(chan struct{}),
	}
	if rec.Image != nil {
		j.lastSnapshot = time.Unix(rec.Image.TakenUnix, 0)
	}
	go j.writer()
	return j, rec, nil
}

// decodeSnapshot parses the bytes of a snapshot file.
func decodeSnapshot(raw []byte) (*StateImage, error) {
	var img StateImage
	if err := json.Unmarshal(raw, &img); err != nil {
		return nil, err
	}
	if img.V > recordVersion {
		return nil, fmt.Errorf("snapshot version %d is newer than this build (%d)", img.V, recordVersion)
	}
	return &img, nil
}

// scanRecords decodes the frames of one segment. It stops at the first
// incomplete or corrupt frame and reports how many prefix bytes were
// valid; torn is true when trailing bytes were dropped. Only a record
// from a newer wire version is a hard error.
func scanRecords(data []byte) (recs []Record, valid int, torn bool, err error) {
	off := 0
	for off < len(data) {
		rem := data[off:]
		if len(rem) < frameHeaderSize {
			return recs, off, true, nil
		}
		n := int(binary.LittleEndian.Uint32(rem[0:4]))
		sum := binary.LittleEndian.Uint32(rem[4:8])
		if n > maxRecordBytes || len(rem)-frameHeaderSize < n {
			return recs, off, true, nil
		}
		payload := rem[frameHeaderSize : frameHeaderSize+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off, true, nil
		}
		var r Record
		if json.Unmarshal(payload, &r) != nil {
			return recs, off, true, nil
		}
		if r.V > recordVersion {
			return recs, off, false, fmt.Errorf("journal: record version %d is newer than this build (%d)", r.V, recordVersion)
		}
		recs = append(recs, r)
		off += frameHeaderSize + n
	}
	return recs, off, false, nil
}

// appendFrame encodes one payload into dst with the length + checksum
// header.
func appendFrame(dst, payload []byte) []byte {
	var h [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:8], crc32.ChecksumIEEE(payload))
	return append(append(dst, h[:]...), payload...)
}

// SetSnapshotSource registers the function compaction calls for a full
// state image. It must be set before appends can trigger compaction;
// the source runs on the journal's writer goroutine and may take the
// owning server's locks (no appender ever waits on the journal while
// holding them).
func (j *Journal) SetSnapshotSource(fn func() *StateImage) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.source = fn
}

// Append implements Appender: it frames the record into the shared
// write buffer and returns the open batch's ticket. The write and its
// fsync happen on the writer goroutine, amortized over every record
// enqueued while the previous commit was in flight. The record is fully
// serialized before Append returns — callers may reuse or mutate
// anything it references afterwards.
func (j *Journal) Append(rec Record) Ticket {
	payload, err := json.Marshal(rec)
	if err != nil {
		return errTicket(fmt.Errorf("journal: encoding %s record: %v", rec.Type, err))
	}
	if len(payload) > maxRecordBytes {
		// Recovery treats frames over the scan limit as a torn tail and
		// truncates there — an oversized record must be refused up
		// front, never durably written and then destroyed on restart.
		return errTicket(fmt.Errorf("journal: %s record is %d bytes, over the %d-byte record limit",
			rec.Type, len(payload), maxRecordBytes))
	}
	j.mu.Lock()
	if j.err != nil {
		err := j.err
		j.mu.Unlock()
		return errTicket(err)
	}
	if j.closed {
		j.mu.Unlock()
		return errTicket(fmt.Errorf("journal: closed"))
	}
	j.buf = appendFrame(j.buf, payload)
	j.pending++
	opened := j.cur == nil
	if opened {
		j.cur = &batch{done: make(chan struct{}), opened: time.Now(), kick: j.kick}
	}
	t := Ticket{b: j.cur}
	j.mu.Unlock()
	if opened {
		// The writer starts the batch's linger clock; later records of
		// the same batch change nothing it has to act on.
		wake(j.kick)
	}
	return t
}

func errTicket(err error) Ticket {
	b := &batch{done: make(chan struct{}), err: err}
	close(b.done)
	return Ticket{b: b}
}

// Sync blocks until everything appended so far is durable: the open
// batch if one is accumulating (which it thereby schedules), else the
// batch the writer is committing right now.
func (j *Journal) Sync() error {
	j.mu.Lock()
	if j.err != nil {
		err := j.err
		j.mu.Unlock()
		return err
	}
	b := j.cur
	if b == nil {
		b = j.inflight
	}
	j.mu.Unlock()
	return Ticket{b: b}.Wait()
}

// writer is the single goroutine owning the segment file: it commits
// the open batch — one write, one fsync, every ticket settled — as soon
// as someone waits on it, or maxLinger after its first record when
// nobody does, and compacts when the segment has outgrown the last
// state image (see maybeCompact). It sleeps on kick between state
// changes; every change it must act on (a batch opened, a batch waited
// on, a snapshot requested) is followed by a wake.
func (j *Journal) writer() {
	defer close(j.done)
	linger := time.NewTimer(maxLinger)
	defer linger.Stop()
	for {
		j.mu.Lock()
		b, compact := j.cur, len(j.compactReq) > 0
		j.mu.Unlock()
		if !compact && (b == nil || !b.waited.Load()) {
			// Nothing is due: sleep until the state changes or the open
			// batch has lingered long enough.
			var expired <-chan time.Time
			if b != nil {
				linger.Reset(maxLinger - time.Since(b.opened))
				expired = linger.C
			}
			select {
			case <-j.kick:
				continue
			case <-expired:
				j.mu.Lock()
				j.lingered++
				j.mu.Unlock()
			case <-j.quit:
				j.mu.Lock()
				crashed, reqs := j.crashed, j.compactReq
				j.compactReq = nil
				j.mu.Unlock()
				if !crashed {
					j.flush()
				}
				for _, ch := range reqs {
					ch <- fmt.Errorf("journal: closed")
				}
				return
			}
		}
		// On saturated CPUs the appenders that belong in this batch are
		// runnable but not running; one yield lets them add their
		// records instead of paying for the next sync, so batch size
		// follows load. With an idle CPU nothing is runnable and the
		// yield returns at once.
		runtime.Gosched()
		j.flush()
		j.serveCompaction()
	}
}

// serveCompaction runs the explicit Snapshot requests — one
// synchronous compaction for all of them, if a source is set and the
// journal is healthy — or else the threshold-triggered compaction; on
// the writer goroutine, after a flush.
func (j *Journal) serveCompaction() {
	j.mu.Lock()
	reqs, source, err := j.compactReq, j.source, j.err
	j.compactReq = nil
	j.mu.Unlock()
	if len(reqs) == 0 {
		j.maybeCompact()
		return
	}
	if err == nil && source == nil {
		err = fmt.Errorf("journal: no snapshot source")
	}
	if err == nil {
		// Serialize behind any background snapshot still writing.
		j.snapWG.Wait()
		var next uint64
		if next, err = j.rotate(); err == nil {
			err = j.writeSnapshot(next, source, true)
		}
	}
	for _, ch := range reqs {
		ch <- err
	}
}

// flush commits the open batch: one write, one fsync, every waiting
// ticket settled with the outcome. The tap gets the chunk between the
// write and the fsync, so replication runs beside the local sync, and
// is joined before any ticket settles: a waited record costs
// max(local sync, ship), and an acknowledged one is both on this disk
// and wherever the tap put it. A write or sync failure is sticky — the
// journal refuses further appends, because the segment's contents past
// the last good commit are undefined.
func (j *Journal) flush() {
	j.mu.Lock()
	buf, b, n := j.buf, j.cur, j.pending
	j.buf, j.cur, j.pending = nil, nil, 0
	j.inflight = b
	tap, gen := j.tap, j.gen
	j.mu.Unlock()
	if b == nil {
		return
	}
	var settle func(error)
	err := j.disk.writeChunk(j.f, j.durable, buf, func() {
		if tap != nil {
			settle = tap.Commit(gen, j.durable, buf)
		}
	})
	if err != nil {
		err = fmt.Errorf("journal: commit failed: %v", err)
		j.opts.Logf("%v", err)
		j.mu.Lock()
		j.err = err
		j.mu.Unlock()
	} else {
		j.durable += int64(len(buf))
		j.mu.Lock()
		j.sinceSnapshot += n
		j.appended += uint64(n)
		j.flushes++
		j.durablePub = j.durable
		j.mu.Unlock()
	}
	if settle != nil {
		settle(err)
	}
	b.err = err
	close(b.done)
	j.mu.Lock()
	j.inflight = nil
	j.mu.Unlock()
}

// maybeCompact starts a compaction once the log has outgrown the last
// state image: at least SnapshotEvery records since the last snapshot
// and a segment of at least snapshotGrowth × that image's bytes (no
// image yet counts as zero bytes). On the writer goroutine. Only the
// segment rotation happens here — building, marshaling and writing the
// state image runs on its own goroutine, so the writer keeps committing
// while the image is persisted beside it.
func (j *Journal) maybeCompact() {
	j.mu.Lock()
	source := j.source
	due := source != nil && j.err == nil && !j.snapInFlight && j.opts.SnapshotEvery > 0 &&
		j.sinceSnapshot >= j.opts.SnapshotEvery && j.durablePub >= snapshotGrowth*j.imageBytes
	j.mu.Unlock()
	if !due {
		return
	}
	next, err := j.rotate()
	if err != nil {
		// A failed rotation is not fatal: the current generation stays
		// intact and appendable; retry at the next threshold.
		j.opts.Logf("journal: rotation failed: %v", err)
		return
	}
	j.mu.Lock()
	j.snapInFlight = true
	j.mu.Unlock()
	j.snapWG.Add(1)
	go func() {
		defer j.snapWG.Done()
		err := j.writeSnapshot(next, source, false)
		j.mu.Lock()
		j.snapInFlight = false
		j.mu.Unlock()
		if err != nil {
			j.opts.Logf("journal: background snapshot failed: %v", err)
		}
	}()
}

// rotate opens the next generation's segment and swaps the writer onto
// it; on the writer goroutine. Everything flushed to the old segment
// predates the state image about to be taken (mutations precede their
// enqueue, enqueues precede their flush), which is exactly the
// invariant recovery needs: snapshot ⊇ old segments, and the new
// segment replays idempotently on top.
func (j *Journal) rotate() (uint64, error) {
	next := j.gen + 1
	nf, err := j.disk.openSegment(next, true)
	if err != nil {
		return 0, err
	}
	old := j.f
	j.f = nf
	j.durable = 0
	j.mu.Lock()
	j.gen = next
	j.sinceSnapshot = 0
	j.durablePub = 0
	j.mu.Unlock()
	old.Close()
	return next, nil
}

// writeSnapshot builds and persists generation gen's state image, then
// retires every older generation. The source takes the owning server's
// locks; no appender ever waits on the journal while holding them, so
// this cannot deadlock whichever goroutine it runs on.
func (j *Journal) writeSnapshot(gen uint64, source func() *StateImage, onWriter bool) error {
	img := source()
	// The image may contain mutations whose records are enqueued but
	// not yet committed (apply and enqueue happen atomically under the
	// store's locks, so image-visible implies enqueued). Settle those
	// commits before publishing: if any of them failed, the server
	// rolled the mutations back and reported errors — a snapshot
	// carrying them would resurrect state the caller was told does not
	// exist. On the writer goroutine the flush runs directly (Sync
	// would wait on the writer, i.e. on itself); the background path
	// kicks the writer and waits.
	var serr error
	if onWriter {
		j.flush()
		serr = j.Err()
	} else {
		serr = j.Sync()
	}
	if serr != nil {
		return fmt.Errorf("snapshot withheld: %v", serr)
	}
	img.V, img.TakenUnix = recordVersion, time.Now().Unix()
	raw, err := json.Marshal(img)
	if err != nil {
		return err
	}
	// A crashed or failed journal (Crash sets the error too) must not
	// publish new state after the fact: the image may contain mutations
	// whose commits failed and were rolled back (and whose bytes the
	// failed commit truncated away) — renaming it into place would
	// resurrect them on restart.
	publish := func() error {
		if j.Err() != nil {
			return fmt.Errorf("journal: unusable, snapshot withheld")
		}
		return nil
	}
	if err := j.disk.installSnapshot(gen, raw, false, publish); err != nil {
		return err
	}
	j.mu.Lock()
	j.snapGen = gen
	j.imageBytes = int64(len(raw))
	j.lastSnapshot = time.Now()
	tap := j.tap
	j.mu.Unlock()
	if tap != nil {
		tap.Snapshotted(gen, raw)
	}
	j.opts.Logf("journal: snapshot generation %d (%d bytes)", gen, len(raw))
	return nil
}

// Snapshot forces one compaction now (graceful shutdown writes a final
// snapshot so the next start replays an empty tail). Pending appends
// are flushed first; the compaction itself runs on the writer
// goroutine, which serializes it with concurrent commits.
func (j *Journal) Snapshot() error {
	if err := j.Sync(); err != nil {
		return err
	}
	done := make(chan error, 1)
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return fmt.Errorf("journal: closed")
	}
	j.compactReq = append(j.compactReq, done)
	j.mu.Unlock()
	wake(j.kick)
	return <-done
}

// Close flushes pending records, stops the writer and closes the
// segment. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.mu.Unlock()
	close(j.quit)
	<-j.done
	j.snapWG.Wait()
	return j.f.Close() // every commit was synced by the writer
}

// Crash simulates a hard process kill for tests: buffered records are
// dropped, waiting tickets fail, the segment file is closed without a
// final flush and the journal refuses further use. State on disk is
// exactly what the last group commit made durable.
func (j *Journal) Crash() {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	j.closed, j.crashed = true, true
	j.err = fmt.Errorf("journal: crashed")
	b := j.cur
	j.buf, j.cur, j.pending = nil, nil, 0
	j.mu.Unlock()
	close(j.quit)
	<-j.done
	// An in-flight background snapshot sees the crashed flag and aborts
	// before publishing; waiting here keeps reopening the directory
	// race-free for tests.
	j.snapWG.Wait()
	if b != nil {
		b.err = fmt.Errorf("journal: crashed")
		close(b.done)
	}
	j.f.Close()
}

// Err reports the journal's sticky failure: non-nil once a commit
// failed (or after Crash), at which point every further append is
// refused and durability is gone — the condition health surfaces must
// expose so orchestrators stop routing traffic here.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Stats reports the journal's compaction position for health surfaces.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		Gen:           j.gen,
		LastSnapshot:  j.lastSnapshot,
		SinceSnapshot: j.sinceSnapshot,
		ImageBytes:    j.imageBytes,
		SegmentBytes:  j.durablePub,
		Appended:      j.appended,
		Flushes:       j.flushes,
	}
}
