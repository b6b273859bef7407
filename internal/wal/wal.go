// Package wal implements the segmented append-only write-ahead log that
// makes homeguardd crash-safe. Every fleet and store-audit mutation
// appends one logical operation record before the daemon acknowledges
// it; on boot, Replay applies the records above the last checkpoint's
// watermarks and the daemon resumes with zero acknowledged operations
// lost.
//
// # On-disk format
//
// The log is a directory of segment files named wal-%016x.log, where the
// hex value is the LSN of the first record in the segment (so plain
// string sort is LSN order). Each segment starts with an 8-byte magic
// ("HGWALSEG") and a 4-byte little-endian format version, followed by
// records framed as:
//
//	len   uint32  // length of lsn+kind+payload
//	crc   uint32  // CRC32C (Castagnoli) over lsn+kind+payload
//	lsn   uint64  // monotonically increasing, never reused
//	kind  uint8   // logical op kind, opaque to this package
//	payload []byte
//
// All integers are little-endian. LSNs start at 1 and are contiguous
// across segments.
//
// # Crash consistency
//
// Rotation syncs the finished segment before the next one is created, so
// a torn tail — a partial record left by a crash mid-append — is only
// legal in the final segment; Open truncates it at the last whole record
// and continues appending after it. A bad CRC or short frame anywhere
// else is real corruption and Open refuses with ErrCorrupt rather than
// silently dropping committed operations.
//
// With Fsync policy "always", Append returns only after the record is
// fsynced, so an acknowledged operation is exactly a durable one. If an
// append or sync fails the log latches the error and every subsequent
// Append fails (crash-stop): the state machine may be ahead of the log
// in memory, but no later operation can be acknowledged or checkpointed,
// so recovery never resurrects an unacknowledged op. (One nuance under
// group commit: a failed batch fsync leaves up to a batch of written,
// un-acknowledged frames on disk; the log is latched at that point, so
// the exposure is bounded and recovery after the crash-stop may replay
// those frames — the same at-most-in-flight window as a torn tail.)
//
// # Group commit
//
// Under FsyncAlways concurrent appenders share fsyncs instead of
// queueing behind them: the frame write happens under the log mutex,
// but the fsync runs outside it through a leader/follower protocol.
// The first appender past the write becomes the leader, captures the
// active file and the newest written LSN, syncs once, and publishes the
// durable watermark; appenders that wrote while the leader's fsync was
// in flight find their LSN below the new watermark (done — their frame
// rode the batch) or elect the next leader. One disk flush therefore
// commits every frame written since the previous flush started, and
// N concurrent writers cost ~1 fsync per batch rather than N.
// Rotation and Close drain the in-flight leader before sealing the
// active file, so a sync never races a close.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"homeguard/internal/obs"
)

func newByteReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, 1<<16) }

const (
	segmentPrefix = "wal-"
	segmentSuffix = ".log"

	segMagic   = "HGWALSEG"
	segVersion = 1
	headerSize = len(segMagic) + 4

	frameHead = 4 + 4 // len + crc
	recHead   = 8 + 1 // lsn + kind

	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// SegmentBytes zero.
	DefaultSegmentBytes = 8 << 20

	// MaxRecordBytes bounds a single record payload; larger appends (and
	// larger framed lengths found on disk) are rejected as corrupt.
	MaxRecordBytes = 64 << 20
)

// Logical operation kinds recorded by the daemon. The wal package treats
// kinds opaquely; they are defined here so writers and replayers share
// one namespace.
const (
	OpFleetInstall     byte = 1
	OpFleetReconfigure byte = 2
	OpFleetAccept      byte = 3
	OpAuditBatch       byte = 4
	OpFleetRemoveHome  byte = 5
	OpFleetAdoptHome   byte = 6
)

var (
	// ErrCorrupt reports damage outside the torn tail of the final
	// segment: a bad CRC, an impossible frame, or a gap in the LSN
	// sequence. Recovery refuses to guess around it.
	ErrCorrupt = errors.New("wal: corrupt log")

	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: closed")

	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// Policy selects when Append fsyncs.
type Policy int

const (
	// FsyncAlways syncs every record before Append returns: an
	// acknowledged op is a durable op. The default.
	FsyncAlways Policy = iota
	// FsyncOff never syncs explicitly; durability is whatever the OS
	// page cache provides. For tests and throwaway deployments.
	FsyncOff
)

func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses the -fsync flag values always|off.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always", "":
		return FsyncAlways, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always|off)", s)
}

// Options configures Open.
type Options struct {
	// Dir is the log directory; created if missing.
	Dir string
	// SegmentBytes rotates to a new segment once the active one exceeds
	// this size. Defaults to DefaultSegmentBytes.
	SegmentBytes int64
	// Fsync selects the durability policy.
	Fsync Policy
	// Registry, when set, registers homeguard_wal_* metrics.
	Registry *obs.Registry
	// FS overrides the write layer for fault injection; nil means the
	// real filesystem.
	FS FS
}

type segmentInfo struct {
	name  string
	first uint64 // LSN of first record (== value encoded in name)
	last  uint64 // LSN of last record; first-1 if empty
}

// Log is a segmented write-ahead log. All methods are safe for
// concurrent use.
type Log struct {
	opts Options
	fs   FS

	mu         sync.Mutex
	active     File
	activeSize int64
	segments   []segmentInfo // ascending; last entry is the active segment
	nextLSN    uint64
	failed     error // latched first append/sync failure
	closed     bool
	dirty      bool // unsynced appends (FsyncOff; see Sync)

	// Group-commit state (FsyncAlways), guarded by syncMu — deliberately
	// separate from mu so followers waiting for durability never block
	// writers framing the next batch. Lock order: mu may be held when
	// taking syncMu, never the reverse (the leader syncs holding neither).
	syncMu   sync.Mutex
	syncCond *sync.Cond
	syncing  bool // a leader's fsync is in flight
	// sealing blocks new leader elections while rotation/Close syncs and
	// closes the active file (an election in that window could fsync a
	// just-closed file).
	sealing  bool
	syncFile File   // active file holding the newest written frame
	syncUpTo uint64 // newest written LSN (durable once syncFile syncs)
	// syncedLSN is the durable watermark: every record at or below it is
	// fsynced (frames in sealed segments are covered by rotation's sync).
	syncedLSN uint64
	syncErr   error // latched first group-commit fsync failure

	appends      atomic.Uint64
	fsyncs       atomic.Uint64
	bytes        atomic.Uint64
	segsRemoved  atomic.Uint64
	lastLSN      atomic.Uint64
	recoverySecs atomic.Uint64 // float64 bits
}

// Open scans dir, validates the segment chain, repairs a torn tail in
// the final segment, and returns a log ready for Replay and Append.
func Open(opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	fs := opts.FS
	if fs == nil {
		fs = OSFS{}
	}
	if err := fs.MkdirAll(opts.Dir); err != nil {
		return nil, err
	}
	l := &Log{opts: opts, fs: fs, nextLSN: 1}
	l.syncCond = sync.NewCond(&l.syncMu)

	names, err := fs.ReadDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	segs := segmentNames(names)
	for i, name := range segs {
		first, err := parseSegmentName(name)
		if err != nil {
			return nil, fmt.Errorf("%w: bad segment name %q", ErrCorrupt, name)
		}
		if first != l.nextLSN && !(i == 0) {
			return nil, fmt.Errorf("%w: segment %q starts at lsn %d, want %d", ErrCorrupt, name, first, l.nextLSN)
		}
		if i == 0 {
			// Older segments were garbage-collected; the chain starts
			// wherever the first surviving segment does.
			l.nextLSN = first
		}
		final := i == len(segs)-1
		last, goodSize, err := l.scanSegment(name, first, final)
		if err != nil {
			return nil, err
		}
		if final && goodSize >= 0 {
			if err := fs.Truncate(segmentPath(opts.Dir, name), goodSize); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", name, err)
			}
		}
		l.segments = append(l.segments, segmentInfo{name: name, first: first, last: last})
		l.nextLSN = last + 1
	}

	if n := len(l.segments); n > 0 {
		// Reuse the final segment if it has room; otherwise rotate so we
		// never append to a full segment.
		name := l.segments[n-1].name
		f, err := fs.Append(segmentPath(opts.Dir, name))
		if err != nil {
			return nil, err
		}
		l.active = f
		l.activeSize = l.sizeOf(name)
		if l.activeSize < int64(headerSize) {
			// The crash tore the segment header itself: no record ever
			// landed here. Recreate the segment from scratch so it gets
			// a whole header before the first append.
			f.Close()
			l.active = nil
			l.segments = l.segments[:n-1]
			if err := l.createSegmentLocked(); err != nil {
				return nil, err
			}
		} else if l.activeSize >= opts.SegmentBytes {
			if err := l.rotateLocked(); err != nil {
				return nil, err
			}
		}
	} else {
		if err := l.createSegmentLocked(); err != nil {
			return nil, err
		}
	}
	l.lastLSN.Store(l.nextLSN - 1)
	// Everything recovered is on disk by definition; the group-commit
	// watermark starts there.
	l.syncedLSN = l.nextLSN - 1
	l.syncUpTo = l.nextLSN - 1

	if opts.Registry != nil {
		l.register(opts.Registry)
	}
	return l, nil
}

func parseSegmentName(name string) (uint64, error) {
	hex := name[len(segmentPrefix) : len(name)-len(segmentSuffix)]
	var lsn uint64
	if _, err := fmt.Sscanf(hex, "%016x", &lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}

func formatSegmentName(first uint64) string {
	return fmt.Sprintf("%s%016x%s", segmentPrefix, first, segmentSuffix)
}

// sizeOf returns the current byte size of segment name by re-scanning it
// cheaply; callers only use it for the reopened final segment.
func (l *Log) sizeOf(name string) int64 {
	r, err := l.fs.Open(segmentPath(l.opts.Dir, name))
	if err != nil {
		return 0
	}
	defer r.Close()
	n, _ := io.Copy(io.Discard, r)
	return n
}

// scanSegment walks one segment and returns the last LSN it holds. For
// the final segment it tolerates a torn tail and returns goodSize >= 0,
// the offset at which the segment should be truncated (-1 when already
// clean is not distinguished; truncating to the current size is a
// no-op). Non-final segments must be perfectly formed.
func (l *Log) scanSegment(name string, first uint64, final bool) (last uint64, goodSize int64, err error) {
	r, err := l.fs.Open(segmentPath(l.opts.Dir, name))
	if err != nil {
		return 0, 0, err
	}
	defer r.Close()
	br := newByteReader(r)

	head := make([]byte, headerSize)
	if _, err := io.ReadFull(br, head); err != nil {
		if final {
			// A torn header means no record ever landed: the segment is
			// truncated to empty and Open recreates it with a whole header.
			return first - 1, 0, nil
		}
		return 0, 0, fmt.Errorf("%w: segment %s: short header", ErrCorrupt, name)
	}
	if string(head[:len(segMagic)]) != segMagic {
		return 0, 0, fmt.Errorf("%w: segment %s: bad magic", ErrCorrupt, name)
	}
	if v := binary.LittleEndian.Uint32(head[len(segMagic):]); v != segVersion {
		return 0, 0, fmt.Errorf("%w: segment %s: unsupported version %d", ErrCorrupt, name, v)
	}

	last = first - 1
	off := int64(headerSize)
	frame := make([]byte, frameHead)
	// Records are read through a buffer that grows with the bytes that
	// arrive, so a frame's untrusted claimed length sizes no allocation.
	var rec bytes.Buffer
	want := first
	for {
		if _, err := io.ReadFull(br, frame); err != nil {
			if err == io.EOF {
				return last, off, nil // clean end
			}
			// Partial frame header.
			if final {
				return last, off, nil
			}
			return 0, 0, fmt.Errorf("%w: segment %s: torn frame in non-final segment", ErrCorrupt, name)
		}
		length := binary.LittleEndian.Uint32(frame[0:4])
		crc := binary.LittleEndian.Uint32(frame[4:8])
		if length < recHead || length > MaxRecordBytes+recHead {
			if final {
				return last, off, nil
			}
			return 0, 0, fmt.Errorf("%w: segment %s: impossible record length %d", ErrCorrupt, name, length)
		}
		rec.Reset()
		if n, _ := rec.ReadFrom(io.LimitReader(br, int64(length))); n < int64(length) {
			if final {
				return last, off, nil
			}
			return 0, 0, fmt.Errorf("%w: segment %s: torn record in non-final segment", ErrCorrupt, name)
		}
		if crc32.Checksum(rec.Bytes(), castagnoli) != crc {
			if final {
				return last, off, nil
			}
			return 0, 0, fmt.Errorf("%w: segment %s: crc mismatch at offset %d", ErrCorrupt, name, off)
		}
		lsn := binary.LittleEndian.Uint64(rec.Bytes()[0:8])
		if lsn != want {
			return 0, 0, fmt.Errorf("%w: segment %s: lsn %d, want %d", ErrCorrupt, name, lsn, want)
		}
		last = lsn
		want = lsn + 1
		off += int64(frameHead) + int64(length)
	}
}

// createSegmentLocked starts a fresh segment at l.nextLSN. The previous
// active segment, if any, must already be closed/synced by the caller.
func (l *Log) createSegmentLocked() error {
	name := formatSegmentName(l.nextLSN)
	f, err := l.fs.Create(segmentPath(l.opts.Dir, name))
	if err != nil {
		return err
	}
	head := make([]byte, headerSize)
	copy(head, segMagic)
	binary.LittleEndian.PutUint32(head[len(segMagic):], segVersion)
	if _, err := f.Write(head); err != nil {
		f.Close()
		return err
	}
	// Make the segment's existence durable before any record lands in
	// it, so rotation never leaves a gap in the chain.
	if l.opts.Fsync != FsyncOff {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := l.fs.SyncDir(l.opts.Dir); err != nil {
			f.Close()
			return err
		}
	}
	l.active = f
	l.activeSize = int64(headerSize)
	l.segments = append(l.segments, segmentInfo{name: name, first: l.nextLSN, last: l.nextLSN - 1})
	return nil
}

// rotateLocked seals the active segment (sync + close) and opens a new
// one. A torn tail is therefore only ever possible in the final segment.
// Under FsyncAlways the seal first drains any in-flight group-commit
// leader, so the close never races a sync on the same file; the seal's
// own sync advances the durable watermark over every frame the segment
// holds.
func (l *Log) rotateLocked() error {
	if l.active != nil {
		l.beginSealLocked()
		if l.opts.Fsync != FsyncOff {
			if err := l.active.Sync(); err != nil {
				l.endSeal()
				return err
			}
			l.fsyncs.Add(1)
			l.advanceSynced(l.nextLSN - 1)
		}
		err := l.active.Close()
		l.endSeal()
		if err != nil {
			return err
		}
		l.active = nil
	}
	return l.createSegmentLocked()
}

// beginSealLocked drains any in-flight group-commit leader and blocks
// new elections until endSeal: the caller is about to sync and close
// the active file, and an election in between could fsync a closed
// file. Callers hold l.mu; that cannot deadlock the leader, which
// syncs holding neither lock and needs only syncMu to publish.
func (l *Log) beginSealLocked() {
	l.syncMu.Lock()
	for l.syncing {
		l.syncCond.Wait()
	}
	l.sealing = true
	l.syncMu.Unlock()
}

func (l *Log) endSeal() {
	l.syncMu.Lock()
	l.sealing = false
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
}

// advanceSynced raises the durable watermark to cover lsn and wakes any
// followers whose records it commits.
func (l *Log) advanceSynced(lsn uint64) {
	l.syncMu.Lock()
	if lsn > l.syncedLSN {
		l.syncedLSN = lsn
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
}

// Append writes one logical op record and returns its LSN. Under
// FsyncAlways the record is durable when Append returns. After any
// append or sync failure the log is wedged: every later Append returns
// the original error.
func (l *Log) Append(kind byte, payload []byte) (uint64, error) {
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: payload %d bytes exceeds limit", len(payload))
	}
	lsn, group, err := l.appendFrame(kind, payload)
	if err != nil {
		return 0, err
	}
	if group {
		if err := l.commit(lsn); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// appendFrame writes the record under l.mu and reports whether the
// caller still owes a group commit (FsyncAlways) for its durability.
func (l *Log) appendFrame(kind byte, payload []byte) (lsn uint64, group bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, false, ErrClosed
	}
	if l.failed != nil {
		return 0, false, l.failed
	}
	if l.activeSize >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.failed = err
			return 0, false, err
		}
	}

	lsn = l.nextLSN
	length := recHead + len(payload)
	frame := make([]byte, frameHead+length)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(length))
	binary.LittleEndian.PutUint64(frame[8:16], lsn)
	frame[16] = kind
	copy(frame[17:], payload)
	crc := crc32.Checksum(frame[8:], castagnoli)
	binary.LittleEndian.PutUint32(frame[4:8], crc)

	if _, err := l.active.Write(frame); err != nil {
		l.failed = err
		return 0, false, err
	}
	l.activeSize += int64(len(frame))
	group = l.opts.Fsync == FsyncAlways
	if group {
		// Publish the frame to the group-commit state while still under
		// l.mu (so syncFile/syncUpTo always describe the newest write);
		// the caller syncs outside the lock via commit.
		l.syncMu.Lock()
		l.syncFile = l.active
		l.syncUpTo = lsn
		l.syncMu.Unlock()
	} else {
		l.dirty = true
	}

	l.nextLSN = lsn + 1
	l.segments[len(l.segments)-1].last = lsn
	l.appends.Add(1)
	l.bytes.Add(uint64(len(frame)))
	l.lastLSN.Store(lsn)
	return lsn, group, nil
}

// commit blocks until the record at lsn is durable, electing this
// goroutine as the fsync leader when no flush is in flight and its
// record is not yet covered. Runs without l.mu: frames for the next
// batch keep landing while the current batch flushes.
func (l *Log) commit(lsn uint64) error {
	l.syncMu.Lock()
	for {
		if l.syncErr != nil {
			err := l.syncErr
			l.syncMu.Unlock()
			return err
		}
		if l.syncedLSN >= lsn {
			l.syncMu.Unlock()
			return nil
		}
		if !l.syncing && !l.sealing {
			break
		}
		l.syncCond.Wait()
	}
	l.syncing = true
	l.syncMu.Unlock()
	// One yield before capturing the batch bound: appenders already past
	// their frame write get to publish before the flush is scoped, which
	// roughly doubles batch sizes under contention. Capturing after the
	// yield is safe — rotation waits for syncing to clear before it can
	// seal and swap the active file, so syncFile cannot change under an
	// elected leader (it can only advance its upTo).
	runtime.Gosched()
	l.syncMu.Lock()
	f, upTo := l.syncFile, l.syncUpTo
	l.syncMu.Unlock()

	err := f.Sync()

	l.syncMu.Lock()
	l.syncing = false
	if err != nil {
		l.syncErr = err
	} else {
		l.fsyncs.Add(1)
		if upTo > l.syncedLSN {
			l.syncedLSN = upTo
		}
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	if err != nil {
		// Latch the crash-stop under l.mu too, so appends that never
		// reach the group-commit layer fail the same way.
		l.mu.Lock()
		if l.failed == nil {
			l.failed = err
		}
		l.mu.Unlock()
		return err
	}
	return nil
}

// Sync flushes the active segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.closed {
		return ErrClosed
	}
	if l.failed != nil {
		return l.failed
	}
	if l.active == nil {
		return nil
	}
	if l.opts.Fsync == FsyncAlways {
		// Group commit may still owe frames a flush (their appenders are
		// in commit); close the gap here under the seal so this sync and
		// a leader's never interleave with a rotation's close.
		l.beginSealLocked()
		defer l.endSeal()
		l.syncMu.Lock()
		gap := l.syncUpTo > l.syncedLSN
		l.syncMu.Unlock()
		if !gap {
			return nil
		}
	} else if !l.dirty {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		l.failed = err
		return err
	}
	l.fsyncs.Add(1)
	l.dirty = false
	l.advanceSynced(l.nextLSN - 1)
	return nil
}

// LastLSN returns the LSN of the most recently appended (or recovered)
// record; 0 if the log is empty.
func (l *Log) LastLSN() uint64 { return l.lastLSN.Load() }

// Err returns the latched append failure, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Segments returns the number of live segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segments)
}

// Replay calls fn for every record with lsn > after, in LSN order. It
// must be called before concurrent Appends begin (boot-time recovery).
func (l *Log) Replay(after uint64, fn func(lsn uint64, kind byte, payload []byte) error) error {
	l.mu.Lock()
	segs := make([]segmentInfo, len(l.segments))
	copy(segs, l.segments)
	dir := l.opts.Dir
	l.mu.Unlock()

	frame := make([]byte, frameHead)
	var buf []byte
	for _, seg := range segs {
		if seg.last < seg.first || seg.last <= after {
			continue // empty segment or entirely below the watermark
		}
		r, err := l.fs.Open(segmentPath(dir, seg.name))
		if err != nil {
			return err
		}
		br := newByteReader(r)
		head := make([]byte, headerSize)
		if _, err := io.ReadFull(br, head); err != nil {
			r.Close()
			return fmt.Errorf("%w: segment %s: short header on replay", ErrCorrupt, seg.name)
		}
		for lsn := seg.first; lsn <= seg.last; lsn++ {
			if _, err := io.ReadFull(br, frame); err != nil {
				r.Close()
				return fmt.Errorf("%w: segment %s: short frame on replay", ErrCorrupt, seg.name)
			}
			length := binary.LittleEndian.Uint32(frame[0:4])
			if cap(buf) < int(length) {
				buf = make([]byte, length)
			}
			buf = buf[:length]
			if _, err := io.ReadFull(br, buf); err != nil {
				r.Close()
				return fmt.Errorf("%w: segment %s: short record on replay", ErrCorrupt, seg.name)
			}
			if lsn <= after {
				continue
			}
			if err := fn(lsn, buf[8], buf[recHead:]); err != nil {
				r.Close()
				return err
			}
		}
		r.Close()
	}
	return nil
}

// TruncateBefore removes whole segments whose records all have
// lsn < keep. The active segment is never removed. Returns the number of
// segments deleted.
func (l *Log) TruncateBefore(keep uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	removed := 0
	for len(l.segments) > 1 {
		seg := l.segments[0]
		if seg.last >= keep {
			break
		}
		if err := l.fs.Remove(segmentPath(l.opts.Dir, seg.name)); err != nil {
			return removed, err
		}
		l.segments = l.segments[1:]
		removed++
	}
	if removed > 0 {
		if err := l.fs.SyncDir(l.opts.Dir); err != nil {
			return removed, err
		}
		l.segsRemoved.Add(uint64(removed))
	}
	return removed, nil
}

// Close flushes and closes the active segment. Further Appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	var err error
	if l.failed == nil && l.active != nil {
		l.beginSealLocked()
		needSync := false
		if l.opts.Fsync == FsyncAlways {
			// Frames whose appenders are still in commit are flushed here;
			// the watermark advance releases those waiters with success.
			l.syncMu.Lock()
			needSync = l.syncUpTo > l.syncedLSN
			l.syncMu.Unlock()
		}
		if needSync {
			if serr := l.active.Sync(); serr != nil {
				err = serr
			} else {
				l.fsyncs.Add(1)
				l.advanceSynced(l.nextLSN - 1)
			}
		}
		if cerr := l.active.Close(); err == nil {
			err = cerr
		}
		l.endSeal()
	}
	l.closed = true
	l.mu.Unlock()
	return err
}

// SetRecoveryDuration records how long boot recovery took, exported as
// homeguard_wal_recovery_seconds.
func (l *Log) SetRecoveryDuration(d time.Duration) {
	l.recoverySecs.Store(math.Float64bits(d.Seconds()))
}

func (l *Log) register(reg *obs.Registry) {
	reg.RegisterCollector(func(e *obs.Emit) {
		e.Counter("homeguard_wal_appends_total", "WAL records appended.", float64(l.appends.Load()))
		e.Counter("homeguard_wal_fsyncs_total", "WAL fsync calls issued.", float64(l.fsyncs.Load()))
		e.Counter("homeguard_wal_bytes_total", "Bytes appended to the WAL (frames included).", float64(l.bytes.Load()))
		e.Counter("homeguard_wal_segments_removed_total", "WAL segments garbage-collected after checkpoints.", float64(l.segsRemoved.Load()))
		e.Gauge("homeguard_wal_segments", "Live WAL segment files.", float64(l.Segments()))
		e.Gauge("homeguard_wal_last_lsn", "LSN of the most recent WAL record.", float64(l.lastLSN.Load()))
		e.Gauge("homeguard_wal_recovery_seconds", "Duration of the last boot recovery (checkpoint load + replay).", math.Float64frombits(l.recoverySecs.Load()))
	})
}
