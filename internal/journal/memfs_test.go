package journal

import (
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// memFS is an in-memory fsys with the crash semantics of Pillai et al.,
// "All File Systems Are Not Created Equal" (OSDI 2014): a file's bytes
// are durable up to its synced length, a directory's entries as they
// were at its last sync. Before every call that changes anything it
// records what a crash at that instant could leave (see crashPoint), so
// one run of a history yields every crash point of it.
type memFS struct {
	mu     sync.Mutex
	dirs   map[string]*memDir
	record bool // whether to record crash points
	points []crashPoint
}

type memDir struct{ cur, synced map[string]*memNode }

// memNode is one file: its bytes, how many of them a sync made durable,
// and where its last write went (the torn-write choice).
type memNode struct {
	data             []byte
	synced           int
	lastOff, lastLen int
}

func newMemFS(record bool) *memFS { return &memFS{dirs: map[string]*memDir{}, record: record} }

// dir returns the directory of path and the entry name in it; m.mu held.
func (m *memFS) dir(path string) (*memDir, string) {
	return m.dirs[filepath.Dir(path)], filepath.Base(path)
}

// change records the crash point before a mutating call; m.mu held.
func (m *memFS) change() {
	if !m.record {
		return
	}
	p := crashPoint{}
	for dname, d := range m.dirs {
		for name, n := range d.synced {
			p = append(p, crashFile{path: filepath.Join(dname, name), data: slices.Clone(n.data),
				synced: n.synced, lastOff: n.lastOff, lastLen: n.lastLen})
		}
	}
	slices.SortFunc(p, func(a, b crashFile) int { return strings.Compare(a.path, b.path) })
	m.points = append(m.points, p)
}

// mark records the state now as one more crash point and returns how
// many points there are.
func (m *memFS) mark() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.change()
	return len(m.points)
}

func (m *memFS) mkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirs[dir] == nil {
		m.dirs[dir] = &memDir{cur: map[string]*memNode{}, synced: map[string]*memNode{}}
	}
	return nil
}

func (m *memFS) list(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dirs[dir]
	if d == nil {
		return nil, fs.ErrNotExist
	}
	var names []string
	for name := range d.cur {
		names = append(names, name)
	}
	slices.Sort(names)
	return names, nil
}

func (m *memFS) readFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, name := m.dir(path)
	if d == nil || d.cur[name] == nil {
		return nil, fs.ErrNotExist
	}
	return slices.Clone(d.cur[name].data), nil
}

func (m *memFS) openWrite(path string, trunc bool) (file, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.change()
	d, name := m.dir(path)
	if d == nil {
		return nil, fs.ErrNotExist
	}
	n := d.cur[name]
	if n == nil {
		n = &memNode{}
		d.cur[name] = n
	}
	if trunc {
		n.data, n.synced = nil, 0
	}
	return &memFile{m: m, n: n}, nil
}

func (m *memFS) rename(from, to string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.change()
	d, name := m.dir(from)
	if d == nil || d.cur[name] == nil {
		return fs.ErrNotExist
	}
	td, tname := m.dir(to)
	td.cur[tname] = d.cur[name]
	delete(d.cur, name)
	return nil
}

func (m *memFS) remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.change()
	d, name := m.dir(path)
	if d == nil || d.cur[name] == nil {
		return fs.ErrNotExist
	}
	delete(d.cur, name)
	return nil
}

func (m *memFS) syncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.change()
	d := m.dirs[dir]
	if d == nil {
		return fs.ErrNotExist
	}
	d.synced = make(map[string]*memNode, len(d.cur))
	for name, n := range d.cur {
		d.synced[name] = n
	}
	return nil
}

type memFile struct {
	m *memFS
	n *memNode
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	f.m.change()
	n := f.n
	if end := int(off) + len(p); end > len(n.data) {
		n.data = append(n.data, make([]byte, end-len(n.data))...)
	}
	copy(n.data[off:], p)
	n.synced = min(n.synced, int(off))
	n.lastOff, n.lastLen = int(off), len(p)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	f.m.change()
	f.n.synced = len(f.n.data)
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	f.m.change()
	n := f.n
	if int(size) < len(n.data) {
		n.data = n.data[:size]
	} else {
		n.data = append(n.data, make([]byte, int(size)-len(n.data))...)
	}
	n.synced = min(n.synced, int(size))
	return nil
}

func (f *memFile) Close() error { return nil }

// crashPoint is what a crash at one instant could leave: every file
// whose directory entry is durable, with all its bytes and how many of
// them are synced.
type crashPoint []crashFile

type crashFile struct {
	path             string
	data             []byte
	synced           int
	lastOff, lastLen int
}

// survivors lists what a crash may leave of the file: its synced bytes
// plus none of the unsynced suffix, or any prefix of it, or all of it
// with the second half of the last write never written (the size
// reached the disk, the data did not).
func (f crashFile) survivors() [][]byte {
	var out [][]byte
	for n := f.synced; n <= len(f.data); n++ {
		out = append(out, f.data[:n])
	}
	if end := f.lastOff + f.lastLen; end > f.synced && f.lastLen > 1 {
		torn := slices.Clone(f.data)
		clear(torn[max(f.synced, f.lastOff+f.lastLen/2):end])
		out = append(out, torn)
	}
	return out
}

// crashes calls fn with a fresh memFS for every combination of the
// point's file survivors, and a key that is equal for equal directories;
// fn returning false stops the enumeration.
func (p crashPoint) crashes(fn func(m *memFS, key string) bool) bool {
	choice := make([][]byte, len(p))
	var walk func(i int) bool
	walk = func(i int) bool {
		if i == len(p) {
			m, key := newMemFS(false), ""
			for k, f := range p {
				m.mkdirAll(filepath.Dir(f.path))
				d, name := m.dir(f.path)
				n := &memNode{data: slices.Clone(choice[k]), synced: len(choice[k])}
				d.cur[name], d.synced[name] = n, n
				key += f.path + "\x00" + string(choice[k]) + "\x00"
			}
			return fn(m, key)
		}
		for _, data := range p[i].survivors() {
			choice[i] = data
			if !walk(i + 1) {
				return false
			}
		}
		return true
	}
	return walk(0)
}
