package resilience

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// Filesystem seam for the durability layer. Production code goes through
// OsFS; tests substitute a FaultFS that fails write-path operations on
// command (or after a deterministic number of writes), so disk-failure
// handling — torn appends, checkpoint write errors, the server's degraded
// mode — can be exercised without real hardware faults. The seam is in the
// spirit of inject.go: every injected fault is deterministic, so a failing
// test reproduces exactly.

// FS is the slice of filesystem the WAL and checkpoint writers need.
type FS interface {
	// OpenFile is os.OpenFile returning the File interface.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename is os.Rename (the atomic-checkpoint commit step).
	Rename(oldpath, newpath string) error
	// Remove is os.Remove (segment retention, temp cleanup).
	Remove(name string) error
	// MkdirAll is os.MkdirAll (WAL directory creation).
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir is os.ReadDir (segment discovery).
	ReadDir(name string) ([]os.DirEntry, error)
	// ReadFile is os.ReadFile (the replication source's checkpoint).
	ReadFile(name string) ([]byte, error)
	// Stat is os.Stat (existence and size checks).
	Stat(name string) (os.FileInfo, error)
}

// File is the slice of *os.File the durability layer uses: the writers,
// and the log reader's positioned reads.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Name() string
}

// OsFS is the real filesystem.
type OsFS struct{}

// OpenFile implements FS.
func (OsFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename implements FS.
func (OsFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OsFS) Remove(name string) error { return os.Remove(name) }

// MkdirAll implements FS.
func (OsFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// ReadDir implements FS.
func (OsFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// ReadFile implements FS.
func (OsFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Stat implements FS.
func (OsFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

// FaultFS wraps another FS and fails write-path operations (file writes,
// syncs, truncates, renames, removes, creates) on command. Read-path
// operations always pass through: a sick disk that still serves reads is
// exactly the degraded-mode scenario the server must survive.
//
// Two modes:
//
//   - FailWrites(err): every write-path op fails with err until Heal.
//   - FailAfterWrites(n, err): the next n write-path ops succeed, then
//     every later one fails — the deterministic torn-append fault model
//     (fail mid-record, between the header write and the payload write).
type FaultFS struct {
	inner FS

	mu     sync.Mutex
	armed  bool
	budget int64 // write ops still allowed before failing (when armed)
	err    error

	writeOps atomic.Int64 // total write-path ops attempted (passed or failed)
	failed   atomic.Int64 // write-path ops refused
}

// NewFaultFS wraps inner (usually OsFS{}) with a healthy injector.
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{inner: inner}
}

// FailWrites makes every subsequent write-path operation fail with err.
func (f *FaultFS) FailWrites(err error) { f.FailAfterWrites(0, err) }

// FailAfterWrites lets the next n write-path operations succeed, then fails
// every later one with err.
func (f *FaultFS) FailAfterWrites(n int, err error) {
	f.mu.Lock()
	f.armed, f.budget, f.err = true, int64(n), err
	f.mu.Unlock()
}

// Heal restores healthy operation.
func (f *FaultFS) Heal() {
	f.mu.Lock()
	f.armed = false
	f.mu.Unlock()
}

// Failing reports whether write-path operations currently fail (the budget,
// if any, is exhausted).
func (f *FaultFS) Failing() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.armed && f.budget <= 0
}

// FailedOps returns how many write-path operations were refused.
func (f *FaultFS) FailedOps() int64 { return f.failed.Load() }

// WriteOps returns how many write-path operations were attempted.
func (f *FaultFS) WriteOps() int64 { return f.writeOps.Load() }

// check consumes one write-path attempt and returns the injected error when
// the fault is active.
func (f *FaultFS) check(op string) error {
	f.writeOps.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.armed {
		return nil
	}
	if f.budget > 0 {
		f.budget--
		return nil
	}
	f.failed.Add(1)
	return fmt.Errorf("faultfs: injected %s failure: %w", op, f.err)
}

// OpenFile implements FS. Opens that can create or modify the file count as
// write-path; pure reads pass through.
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND) != 0 {
		if err := f.check("open"); err != nil {
			return nil, err
		}
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

// Rename implements FS.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.check("rename"); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	if err := f.check("remove"); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if err := f.check("mkdir"); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

// ReadDir implements FS (read path: never injected).
func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) { return f.inner.ReadDir(name) }

// ReadFile implements FS (read path: never injected).
func (f *FaultFS) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }

// Stat implements FS (read path: never injected).
func (f *FaultFS) Stat(name string) (os.FileInfo, error) { return f.inner.Stat(name) }

// faultFile threads the injector through per-file write operations.
type faultFile struct {
	File
	fs *FaultFS
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.fs.check("write"); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.fs.check("sync"); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if err := f.fs.check("truncate"); err != nil {
		return err
	}
	return f.File.Truncate(size)
}
