package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
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
	dir  string
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
	f             *os.File
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

	// fault, when set, injects disk failures into the commit path (see
	// FaultInjection); read by the writer goroutine under mu.
	fault *FaultInjection

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

// FaultInjection simulates a failing or slow disk under the commit
// path without touching the real file handle: WriteErr, when non-nil
// and returning an error, fails the segment write before any bytes
// reach the file (the disk-full shape — ENOSPC surfaces before data
// lands); SyncErr likewise fails the fsync after the write; SyncDelay
// stalls each fsync by the returned duration (the slow-disk shape:
// whatever arrives during the longer sync shares the next commit, so
// batches grow with the device's latency). Either error takes the same
// sticky degradation path as a real device failure: the segment
// truncates to the durable watermark, tickets report the error, and the
// journal refuses further appends until reopened. Used by chaos and
// recovery tests; nil hooks are free.
type FaultInjection struct {
	WriteErr  func(n int) error
	SyncErr   func() error
	SyncDelay func() time.Duration
}

// SetFault installs (or with nil clears) the commit-path fault hooks.
func (j *Journal) SetFault(f *FaultInjection) {
	j.mu.Lock()
	j.fault = f
	j.mu.Unlock()
}

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

func snapshotPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snapshot-%016d.snap", gen))
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.log", gen))
}

// Open loads the durable state under dir — the newest valid snapshot
// plus every log segment at or after it (compaction rotates the
// segment before the snapshot lands, so after a crash up to two
// segments carry the tail), tolerating a torn final record — and
// returns a journal ready to append to the newest segment. The
// directory is created when missing; stale generations and leftover
// temp files are removed.
func Open(dir string, opts Options) (*Journal, *Recovery, error) {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %v", err)
	}

	snaps, wals, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}
	rec := &Recovery{}
	var snapGen uint64
	var imageBytes int64
	if len(snaps) > 0 {
		// Newest parseable snapshot wins. Compaction makes the new
		// snapshot durable before removing the old pair, so under crash
		// faults the newest snapshot is always complete; refusing to
		// silently fall back guards the bit-rot case.
		snapGen = snaps[len(snaps)-1]
		raw, err := os.ReadFile(snapshotPath(dir, snapGen))
		if err == nil {
			rec.Image, err = decodeSnapshot(raw)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("journal: snapshot gen %d: %v", snapGen, err)
		}
		imageBytes = int64(len(raw))
	}
	// Replay every segment at or after the snapshot, oldest first. A
	// torn tail on a non-final segment (crash around a rotation) drops
	// that segment's trailing records and replay continues — record
	// application is idempotent and unacknowledged tails carry no
	// durability promises.
	appendGen := snapGen
	if n := len(wals); n > 0 && wals[n-1] > appendGen {
		appendGen = wals[n-1]
	}
	replayed := 0
	var appendDurable int64
	for g := snapGen; g <= appendGen; g++ {
		path := walPath(dir, g)
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, nil, fmt.Errorf("journal: %v", err)
		}
		recs, valid, torn, err := scanRecords(data)
		if err != nil {
			return nil, nil, err
		}
		rec.Records = append(rec.Records, recs...)
		replayed += len(recs)
		if torn {
			rec.TornTail = true
			opts.Logf("journal: dropping torn tail of %s (%d of %d bytes valid)", path, valid, len(data))
		}
		if g == appendGen {
			appendDurable = int64(valid)
			if torn {
				if err := os.Truncate(path, int64(valid)); err != nil {
					return nil, nil, fmt.Errorf("journal: truncating torn tail: %v", err)
				}
			}
		}
	}
	f, err := os.OpenFile(walPath(dir, appendGen), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %v", err)
	}

	// Generations older than the snapshot (left by a crash between
	// compaction steps) and temp files are dead weight; removal is
	// best-effort.
	for _, g := range snaps {
		if g != snapGen {
			os.Remove(snapshotPath(dir, g))
		}
	}
	for _, g := range wals {
		if g < snapGen {
			os.Remove(walPath(dir, g))
		}
	}

	j := &Journal{
		dir: dir, opts: opts, f: f, gen: appendGen, snapGen: snapGen,
		durable: appendDurable, durablePub: appendDurable,
		// The trigger starts from the recovered image and tail, not from
		// zero: a tail already past the threshold compacts at the first
		// opportunity, a large image keeps its proportionally long segment.
		imageBytes:    imageBytes,
		sinceSnapshot: replayed,
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

// scanDir lists the snapshot and segment generations present under
// dir, sorted ascending, removing leftover temp files.
func scanDir(dir string) (snaps, wals []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %v", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, ".snap"):
			var g uint64
			if _, err := fmt.Sscanf(name, "snapshot-%016d.snap", &g); err == nil {
				snaps = append(snaps, g)
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			var g uint64
			if _, err := fmt.Sscanf(name, "wal-%016d.log", &g); err == nil {
				wals = append(wals, g)
			}
		}
	}
	sort.Slice(snaps, func(i, k int) bool { return snaps[i] < snaps[k] })
	sort.Slice(wals, func(i, k int) bool { return wals[i] < wals[k] })
	return snaps, wals, nil
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

// encodeBufs recycles the per-record encode buffers: a record's bytes
// are copied into the shared write buffer during Append, so the scratch
// buffer is immediately reusable — thousands of records per fleet
// deploy otherwise become pure GC churn.
var encodeBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// encodeRecord serializes one record. The hot types of a fleet-scale
// deploy — installation rows and acknowledgements, thousands per batch
// — are hand-encoded (reflection-free); everything else, and any
// payload with strings needing escapes, goes through encoding/json.
// Either way the payload parses back to the same Record.
func encodeRecord(rec Record) (payload []byte, pooled *[]byte, err error) {
	if rec.Install != nil && rec.User == nil && rec.Vehicle == nil && rec.App == nil && rec.Op == nil && rec.Upgrade == nil && rec.Rollout == nil {
		if b, bp, ok := encodeInstallRecord(rec); ok {
			return b, bp, nil
		}
	}
	payload, err = json.Marshal(rec)
	return payload, nil, err
}

// encodeInstallRecord hand-builds the JSON of an install-table record;
// ok is false when a string needs escaping and the caller must fall
// back to encoding/json.
func encodeInstallRecord(rec Record) (_ []byte, _ *[]byte, ok bool) {
	ic := rec.Install
	bp := encodeBufs.Get().(*[]byte)
	b := (*bp)[:0]
	fail := func() ([]byte, *[]byte, bool) {
		encodeBufs.Put(bp)
		return nil, nil, false
	}
	b = append(b, `{"v":`...)
	b = strconv.AppendInt(b, int64(rec.V), 10)
	b = append(b, `,"type":"`...)
	b = append(b, rec.Type...)
	b = append(b, `","install":{"vehicle":`...)
	if b, ok = appendJSONString(b, string(ic.Vehicle)); !ok {
		return fail()
	}
	b = append(b, `,"app":`...)
	if b, ok = appendJSONString(b, string(ic.App)); !ok {
		return fail()
	}
	if ic.Plugin != "" {
		b = append(b, `,"plugin":`...)
		if b, ok = appendJSONString(b, string(ic.Plugin)); !ok {
			return fail()
		}
	}
	if row := ic.Row; row != nil {
		b = append(b, `,"row":{"app":`...)
		if b, ok = appendJSONString(b, string(row.App)); !ok {
			return fail()
		}
		b = append(b, `,"vehicle":`...)
		if b, ok = appendJSONString(b, string(row.Vehicle)); !ok {
			return fail()
		}
		if row.Plugins == nil {
			b = append(b, `,"plugins":null}`...)
			return append(b, `}}`...), bp, true
		}
		b = append(b, `,"plugins":[`...)
		for i := range row.Plugins {
			p := &row.Plugins[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"plugin":`...)
			if b, ok = appendJSONString(b, string(p.Plugin)); !ok {
				return fail()
			}
			b = append(b, `,"ecu":`...)
			if b, ok = appendJSONString(b, string(p.ECU)); !ok {
				return fail()
			}
			b = append(b, `,"swc":`...)
			if b, ok = appendJSONString(b, string(p.SWC)); !ok {
				return fail()
			}
			if p.PIC == nil {
				b = append(b, `,"pic":null`...)
			} else {
				b = append(b, `,"pic":[`...)
				for k, e := range p.PIC {
					if k > 0 {
						b = append(b, ',')
					}
					b = append(b, `{"Name":`...)
					if b, ok = appendJSONString(b, e.Name); !ok {
						return fail()
					}
					b = append(b, `,"ID":`...)
					b = strconv.AppendInt(b, int64(e.ID), 10)
					b = append(b, '}')
				}
				b = append(b, ']')
			}
			b = append(b, `,"acked":`...)
			b = strconv.AppendBool(b, p.Acked)
			b = append(b, '}')
		}
		b = append(b, `]}`...)
	}
	return append(b, `}}`...), bp, true
}

// appendJSONString appends s quoted when it needs no escaping (plain
// printable ASCII); ok is false otherwise.
func appendJSONString(dst []byte, s string) (_ []byte, ok bool) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return dst, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), true
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
	payload, pooled, err := encodeRecord(rec)
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
	if pooled != nil {
		*pooled = payload[:0]
		encodeBufs.Put(pooled)
	}
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
				if !j.isCrashed() {
					j.flush()
				}
				j.mu.Lock()
				reqs := j.compactReq
				j.compactReq = nil
				j.mu.Unlock()
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

// serveCompaction runs the threshold-triggered compaction and any
// explicit Snapshot requests; on the writer goroutine, after a flush.
func (j *Journal) serveCompaction() {
	j.mu.Lock()
	reqs := j.compactReq
	j.compactReq = nil
	j.mu.Unlock()
	if len(reqs) > 0 {
		err := j.compactIfAble()
		for _, ch := range reqs {
			ch <- err
		}
		return
	}
	j.maybeCompact()
}

// compactIfAble runs one synchronous compaction (explicit Snapshot
// calls, graceful shutdown) if a source is set and the journal is
// healthy; on the writer goroutine.
func (j *Journal) compactIfAble() error {
	j.mu.Lock()
	source, err := j.source, j.err
	j.mu.Unlock()
	if err != nil {
		return err
	}
	if source == nil {
		return fmt.Errorf("journal: no snapshot source")
	}
	// Serialize behind any background snapshot still writing.
	j.snapWG.Wait()
	next, err := j.rotate()
	if err != nil {
		return err
	}
	return j.writeSnapshot(next, source, true)
}

func (j *Journal) isCrashed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.crashed
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
	fault, tap, gen := j.fault, j.tap, j.gen
	j.mu.Unlock()
	if b == nil {
		return
	}
	var err error
	if fault != nil && fault.WriteErr != nil {
		err = fault.WriteErr(len(buf))
	}
	if err == nil {
		_, err = j.f.Write(buf)
	}
	var settle func(error)
	if err == nil {
		if tap != nil {
			settle = tap.Commit(gen, j.durable, buf)
		}
		if fault != nil && fault.SyncDelay != nil {
			time.Sleep(fault.SyncDelay())
		}
		err = syncFile(j.f)
		if err == nil && fault != nil && fault.SyncErr != nil {
			err = fault.SyncErr()
		}
	}
	if err != nil {
		err = fmt.Errorf("journal: commit failed: %v", err)
		j.opts.Logf("%v", err)
		// The write may have reached the page cache even though the
		// sync failed, and those bytes could still land on disk — where
		// a later recovery would replay records whose tickets reported
		// failure (and whose effects the server rolled back). Truncating
		// back to the last synced offset keeps disk state and reported
		// outcomes consistent; best-effort, the journal is failing
		// anyway.
		if terr := j.f.Truncate(j.durable); terr != nil {
			j.opts.Logf("journal: truncating failed commit: %v", terr)
		}
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
	nf, err := os.OpenFile(walPath(j.dir, next), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	syncDir(j.dir)
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
	tmp := snapshotPath(j.dir, gen) + ".tmp"
	if err := writeFileSync(tmp, raw); err != nil {
		return err
	}
	// A crashed or failed journal must not publish new state after the
	// fact: the image may contain mutations whose commits failed and
	// were rolled back (and whose bytes the flush error path truncated
	// away) — renaming it into place would resurrect them on restart.
	j.mu.Lock()
	dead := j.crashed || j.err != nil
	j.mu.Unlock()
	if dead {
		os.Remove(tmp)
		return fmt.Errorf("journal: unusable, snapshot withheld")
	}
	if err := os.Rename(tmp, snapshotPath(j.dir, gen)); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(j.dir)
	j.mu.Lock()
	j.snapGen = gen
	j.imageBytes = int64(len(raw))
	j.lastSnapshot = time.Now()
	j.mu.Unlock()
	// Retire the generations the snapshot replaced; best-effort.
	if snaps, wals, err := scanDir(j.dir); err == nil {
		for _, g := range snaps {
			if g < gen {
				os.Remove(snapshotPath(j.dir, g))
			}
		}
		for _, g := range wals {
			if g < gen {
				os.Remove(walPath(j.dir, g))
			}
		}
	}
	syncDir(j.dir)
	j.mu.Lock()
	tap := j.tap
	j.mu.Unlock()
	if tap != nil {
		tap.Snapshotted(gen, raw)
	}
	j.opts.Logf("journal: snapshot generation %d (%d bytes)", gen, len(raw))
	return nil
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir makes directory-entry changes (create, rename, remove)
// durable; best-effort on filesystems that reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
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
	select {
	case j.kick <- struct{}{}:
	default:
	}
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
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
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
