// The write-layer abstraction behind the log: every byte the WAL puts on
// disk goes through an FS, so fault-injection tests can crash the store
// at any byte boundary — mid-record, mid-header, between a write and its
// fsync — and then recover from exactly the bytes a real power cut would
// have left behind. Production code uses OSFS, a thin veneer over the os
// package; CrashFS wraps real files with a byte budget and a configurable
// unsynced-tail retention, modeling the two failure surfaces that matter:
// a torn final record (some sectors of an append landed) and lost
// unsynced writes (none did).

package wal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrCrashed is returned by every CrashFS operation after the injected
// crash point: the simulated process is dead, no further I/O happens.
var ErrCrashed = errors.New("wal: simulated crash")

// File is the writable-segment handle the log needs.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the filesystem surface the log writes through. Reads during
// replay go through Open; everything else is the mutation surface.
type FS interface {
	MkdirAll(dir string) error
	// ReadDir returns the file names (not paths) in dir.
	ReadDir(dir string) ([]string, error)
	// Create opens a new segment for writing, truncating any existing
	// file at path.
	Create(path string) (File, error)
	// Append reopens an existing segment for appending.
	Append(path string) (File, error)
	Open(path string) (io.ReadCloser, error)
	Remove(path string) error
	// Truncate cuts the file at path to size bytes (torn-tail repair).
	Truncate(path string, size int64) error
	// SyncDir fsyncs the directory itself so entry creations/removals
	// (segment rotation, GC, checkpoint renames) survive power loss.
	SyncDir(dir string) error
}

// OSFS is the production FS: the os package, unwrapped.
type OSFS struct{}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names, nil
}

func (OSFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

func (OSFS) Append(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

func (OSFS) Open(path string) (io.ReadCloser, error) { return os.Open(path) }

func (OSFS) Remove(path string) error { return os.Remove(path) }

func (OSFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

func (OSFS) SyncDir(dir string) error { return SyncDir(dir) }

// SyncDir fsyncs a directory so that renames and unlinks inside it are
// durable — an atomic-rename checkpoint is only crash-safe once the
// directory entry itself is on disk.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Some platforms reject fsync on directories; treat that as best
	// effort, but surface real I/O errors.
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// CrashFS is the fault-injection write layer: real files underneath, but
// the total number of bytes allowed to reach them is capped by a budget.
// The write that would exceed the budget triggers the crash: the file
// keeps everything synced so far plus KeepUnsynced bytes of the unsynced
// tail (modeling the sectors of an in-flight append that happened to
// land), and from then on every operation fails with ErrCrashed. Reads
// are not budgeted — recovery inspects the post-crash disk through a
// fresh OSFS anyway.
type CrashFS struct {
	mu sync.Mutex
	// Budget is the number of bytes writes may persist before the crash.
	budget int64
	// KeepUnsynced is how many bytes written after the last Sync survive
	// the crash (0 = a clean cut at the last fsync, large = the whole
	// torn tail lands).
	keepUnsynced int64
	crashed      bool
	written      int64
	open         []*crashFile
}

// NewCrashFS returns a CrashFS that crashes after budget persisted bytes,
// retaining keepUnsynced bytes of the unsynced tail of the file being
// written at crash time.
func NewCrashFS(budget, keepUnsynced int64) *CrashFS {
	return &CrashFS{budget: budget, keepUnsynced: keepUnsynced}
}

// Written returns the total bytes persisted so far (run once with a huge
// budget to size the interesting crash points).
func (c *CrashFS) Written() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.written
}

// crash fires the injected failure: every open file is cut back to its
// synced size plus the retained unsynced tail. Callers hold c.mu.
func (c *CrashFS) crash() {
	c.crashed = true
	for _, f := range c.open {
		keep := f.size - f.synced
		if keep > c.keepUnsynced {
			keep = c.keepUnsynced
		}
		f.f.Truncate(f.synced + keep)
		f.f.Close()
	}
	c.open = nil
}

type crashFile struct {
	fs     *CrashFS
	f      *os.File
	size   int64 // bytes written
	synced int64 // bytes covered by the last Sync
}

func (c *CrashFS) track(f *os.File, size int64) *crashFile {
	cf := &crashFile{fs: c, f: f, size: size, synced: size}
	c.open = append(c.open, cf)
	return cf
}

func (c *CrashFS) MkdirAll(dir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrCrashed
	}
	return os.MkdirAll(dir, 0o755)
}

func (c *CrashFS) ReadDir(dir string) ([]string, error) {
	c.mu.Lock()
	crashed := c.crashed
	c.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	return OSFS{}.ReadDir(dir)
}

func (c *CrashFS) Create(path string) (File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return nil, ErrCrashed
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return c.track(f, 0), nil
}

func (c *CrashFS) Append(path string) (File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return nil, ErrCrashed
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return c.track(f, st.Size()), nil
}

func (c *CrashFS) Open(path string) (io.ReadCloser, error) { return os.Open(path) }

func (c *CrashFS) Remove(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrCrashed
	}
	return os.Remove(path)
}

func (c *CrashFS) Truncate(path string, size int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrCrashed
	}
	return os.Truncate(path, size)
}

func (c *CrashFS) SyncDir(string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrCrashed
	}
	return nil
}

func (f *crashFile) Write(p []byte) (int, error) {
	c := f.fs
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return 0, ErrCrashed
	}
	remaining := c.budget - c.written
	if int64(len(p)) > remaining {
		// The crashing write: the sectors that fit the budget land, the
		// rest never happens, and the process is dead.
		if remaining > 0 {
			n, _ := f.f.Write(p[:remaining])
			f.size += int64(n)
			c.written += int64(n)
		}
		c.crash()
		return 0, ErrCrashed
	}
	n, err := f.f.Write(p)
	f.size += int64(n)
	c.written += int64(n)
	if err != nil {
		return n, err
	}
	return n, nil
}

func (f *crashFile) Sync() error {
	c := f.fs
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrCrashed
	}
	if err := f.f.Sync(); err != nil {
		return err
	}
	f.synced = f.size
	return nil
}

func (f *crashFile) Close() error {
	c := f.fs
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrCrashed
	}
	for i, of := range c.open {
		if of == f {
			c.open = append(c.open[:i], c.open[i+1:]...)
			break
		}
	}
	return f.f.Close()
}

// segmentNames filters and sorts wal segment file names.
func segmentNames(names []string) []string {
	var segs []string
	for _, n := range names {
		if strings.HasPrefix(n, segmentPrefix) && strings.HasSuffix(n, segmentSuffix) {
			segs = append(segs, n)
		}
	}
	sort.Strings(segs) // zero-padded hex first-LSN names sort numerically
	return segs
}

// segmentPath joins dir and name.
func segmentPath(dir, name string) string { return filepath.Join(dir, name) }
