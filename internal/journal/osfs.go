package journal

import "os"

// osFS is the fsys of the real disk: with its platform halves
// (osfs_linux.go, osfs_other.go) the only code in the package that
// calls os.
type osFS struct{}

func (osFS) mkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) list(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, err
}

func (osFS) readFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) openWrite(path string, trunc bool) (file, error) {
	flag := os.O_WRONLY | os.O_CREATE
	if trunc {
		flag |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) rename(from, to string) error { return os.Rename(from, to) }

func (osFS) remove(path string) error { return os.Remove(path) }

func (osFS) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// osFile syncs with syncFile: fdatasync where the platform has it.
type osFile struct{ *os.File }

func (f osFile) Sync() error { return syncFile(f.File) }
