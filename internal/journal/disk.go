package journal

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// fsys is every file operation of the journal, the replica and the
// shipper. osFS is the disk; the crash-point test puts an in-memory one
// with crash semantics in its place. list answers in lexical order,
// which the zero-padded names make generation order, and readFile of a
// missing file fails with fs.ErrNotExist.
type fsys interface {
	mkdirAll(dir string) error
	list(dir string) ([]string, error)
	readFile(path string) ([]byte, error)
	// openWrite opens path for writing, creating it, emptied when trunc.
	openWrite(path string, trunc bool) (file, error)
	rename(from, to string) error
	remove(path string) error
	// syncDir makes the entries of dir durable: creates, renames,
	// removes. Callers treat it as best-effort and drop its error, since
	// some filesystems reject a directory fsync.
	syncDir(dir string) error
}

// file is an open segment or snapshot; Sync makes its data durable.
type file interface {
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// FaultInjection simulates a failing or slow disk without touching the
// real files: WriteErr, when non-nil and returning an error, fails a
// segment write before any bytes reach the file (the disk-full shape —
// ENOSPC surfaces before data lands), and on a replica also a snapshot
// install; SyncErr likewise fails a segment's fsync after the write;
// SyncDelay stalls each segment fsync by the returned duration (the
// slow-disk shape: whatever arrives during the longer sync shares the
// next commit, so batches grow with the device's latency). A failed
// write or sync takes the same path as a real device failure: the
// segment truncates back to where the write began, the leader's tickets
// report the error and it refuses further appends until reopened. Used
// by chaos and recovery tests; nil hooks are free.
type FaultInjection struct {
	WriteErr  func(n int) error
	SyncErr   func() error
	SyncDelay func() time.Duration
}

// disk is one journal directory on an fsys. Its three routines —
// writeChunk, installSnapshot and read — are all the journal, the
// replica and the shipper do with file contents, and the only readers
// of the fault hooks.
type disk struct {
	fs    fsys
	dir   string
	fault atomic.Pointer[FaultInjection]
}

func snapshotPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snapshot-%016d.snap", gen))
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.log", gen))
}

// openSegment opens gen's segment for writing, emptied when trunc, and
// makes its directory entry durable, so the bytes later synced into it
// cannot be lost with the entry.
func (d *disk) openSegment(gen uint64, trunc bool) (file, error) {
	f, err := d.fs.openWrite(walPath(d.dir, gen), trunc)
	if err == nil {
		d.fs.syncDir(d.dir)
	}
	return f, err
}

// writeChunk writes chunk at off of a segment, calls tap between the
// write and the fsync, so whatever the tap starts runs beside the sync,
// and on a failed write or sync truncates the segment back to off: the
// bytes may have reached the page cache and could still land on disk,
// where recovery would replay records whose commit was reported failed.
func (d *disk) writeChunk(f file, off int64, chunk []byte, tap func()) error {
	h := d.fault.Load()
	var err error
	if h != nil && h.WriteErr != nil {
		err = h.WriteErr(len(chunk))
	}
	if err == nil {
		_, err = f.WriteAt(chunk, off)
	}
	if err == nil {
		if tap != nil {
			tap()
		}
		if h != nil && h.SyncDelay != nil {
			time.Sleep(h.SyncDelay())
		}
		if err = f.Sync(); err == nil && h != nil && h.SyncErr != nil {
			err = h.SyncErr()
		}
	}
	if err != nil {
		if terr := f.Truncate(off); terr != nil {
			err = fmt.Errorf("%v; truncating back: %v", err, terr)
		}
	}
	return err
}

// installSnapshot makes image generation gen's snapshot: written to a
// temporary file and synced, let through by publish (nil lets it
// through), renamed into place and the rename made durable; then every
// older generation is retired. writeFault subjects the image write to
// WriteErr, as on a replica.
func (d *disk) installSnapshot(gen uint64, image []byte, writeFault bool, publish func() error) error {
	final := snapshotPath(d.dir, gen)
	tmp := final + ".tmp"
	var err error
	if h := d.fault.Load(); writeFault && h != nil && h.WriteErr != nil {
		err = h.WriteErr(len(image))
	}
	if err == nil {
		err = d.writeFile(tmp, image)
	}
	if err == nil && publish != nil {
		err = publish()
	}
	if err == nil {
		err = d.fs.rename(tmp, final)
	}
	if err != nil {
		d.fs.remove(tmp)
		return err
	}
	d.fs.syncDir(d.dir)
	d.retire(gen)
	return nil
}

func (d *disk) writeFile(path string, data []byte) error {
	f, err := d.fs.openWrite(path, true)
	if err != nil {
		return err
	}
	if _, err = f.WriteAt(data, 0); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// retire removes every generation older than gen and any leftover
// temporary file, and makes the removals durable; best-effort.
func (d *disk) retire(gen uint64) {
	names, _ := d.fs.list(d.dir)
	for _, name := range names {
		g, ok := parseGen(name, "snapshot-", ".snap")
		if !ok {
			g, ok = parseGen(name, "wal-", ".log")
		}
		if strings.HasSuffix(name, ".tmp") || ok && g < gen {
			d.fs.remove(filepath.Join(d.dir, name))
		}
	}
	d.fs.syncDir(d.dir)
}

func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	g, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return g, err == nil
}

// segment is one log segment as read back.
type segment struct {
	gen  uint64
	data []byte
}

// read loads the directory: the newest snapshot's generation and bytes
// (nil when there is none) and every segment from that generation up to
// maxGen, oldest first. A segment removed between the listing and its
// read was compacted away underneath and is left out.
func (d *disk) read(maxGen uint64) (snapGen uint64, image []byte, segs []segment, err error) {
	names, err := d.fs.list(d.dir)
	if err != nil {
		return 0, nil, nil, err
	}
	var wals []uint64
	snapped := false
	for _, name := range names {
		if g, ok := parseGen(name, "snapshot-", ".snap"); ok {
			snapGen, snapped = g, true
		} else if g, ok := parseGen(name, "wal-", ".log"); ok {
			wals = append(wals, g)
		}
	}
	if snapped {
		if image, err = d.fs.readFile(snapshotPath(d.dir, snapGen)); err != nil {
			return 0, nil, nil, fmt.Errorf("snapshot gen %d: %v", snapGen, err)
		}
	}
	for _, g := range wals {
		if g < snapGen || g > maxGen {
			continue
		}
		data, err := d.fs.readFile(walPath(d.dir, g))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return 0, nil, nil, err
		}
		segs = append(segs, segment{gen: g, data: data})
	}
	return snapGen, image, segs, nil
}
