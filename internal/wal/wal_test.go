package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openTest(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	opts.Dir = dir
	if opts.Fsync == FsyncAlways {
		// Unit tests don't need real fsync latency.
		opts.Fsync = FsyncOff
	}
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func collect(t *testing.T, l *Log, after uint64) (lsns []uint64, kinds []byte, payloads []string) {
	t.Helper()
	err := l.Replay(after, func(lsn uint64, kind byte, payload []byte) error {
		lsns = append(lsns, lsn)
		kinds = append(kinds, kind)
		payloads = append(payloads, string(payload))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	for i := 0; i < 100; i++ {
		lsn, err := l.Append(byte(1+i%4), []byte(fmt.Sprintf("op-%03d", i)))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("Append %d: lsn %d, want %d", i, lsn, i+1)
		}
	}
	if got := l.LastLSN(); got != 100 {
		t.Fatalf("LastLSN = %d, want 100", got)
	}
	lsns, kinds, payloads := collect(t, l, 0)
	if len(lsns) != 100 {
		t.Fatalf("replayed %d records, want 100", len(lsns))
	}
	for i := range lsns {
		if lsns[i] != uint64(i+1) || kinds[i] != byte(1+i%4) || payloads[i] != fmt.Sprintf("op-%03d", i) {
			t.Fatalf("record %d = (%d,%d,%q)", i, lsns[i], kinds[i], payloads[i])
		}
	}
	// Replay above a watermark skips the prefix.
	lsns, _, _ = collect(t, l, 60)
	if len(lsns) != 40 || lsns[0] != 61 {
		t.Fatalf("Replay(60): %d records starting %d", len(lsns), lsns[0])
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestReopenContinuesLSNs(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(OpFleetInstall, []byte("a")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l = openTest(t, dir, Options{})
	if got := l.LastLSN(); got != 10 {
		t.Fatalf("LastLSN after reopen = %d, want 10", got)
	}
	lsn, err := l.Append(OpFleetInstall, []byte("b"))
	if err != nil || lsn != 11 {
		t.Fatalf("Append after reopen: lsn=%d err=%v", lsn, err)
	}
	l.Close()

	// A third generation still sees one contiguous history.
	l = openTest(t, dir, Options{})
	lsns, _, payloads := collect(t, l, 0)
	if len(lsns) != 11 || payloads[10] != "b" {
		t.Fatalf("full replay after two reopens: %d records", len(lsns))
	}
	l.Close()
}

func TestSegmentRotationAndGC(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{SegmentBytes: 256})
	payload := make([]byte, 64)
	for i := 0; i < 40; i++ {
		if _, err := l.Append(OpAuditBatch, payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Segments(); got < 3 {
		t.Fatalf("Segments = %d, want >= 3 after forced rotation", got)
	}
	// Everything must still replay across the segment boundaries.
	lsns, _, _ := collect(t, l, 0)
	if len(lsns) != 40 {
		t.Fatalf("replayed %d, want 40", len(lsns))
	}

	// GC below LSN 30: only whole segments strictly below survive the axe.
	removed, err := l.TruncateBefore(30)
	if err != nil {
		t.Fatalf("TruncateBefore: %v", err)
	}
	if removed == 0 {
		t.Fatal("TruncateBefore removed nothing")
	}
	// Records >= 30 are all still there.
	lsns, _, _ = collect(t, l, 29)
	if len(lsns) != 11 || lsns[0] != 30 {
		t.Fatalf("post-GC Replay(29): %d records starting %v", len(lsns), lsns)
	}

	// The active segment is never removed, even if the keep LSN is
	// beyond everything.
	if _, err := l.TruncateBefore(1 << 40); err != nil {
		t.Fatalf("TruncateBefore(max): %v", err)
	}
	if got := l.Segments(); got != 1 {
		t.Fatalf("Segments after full GC = %d, want 1 (active)", got)
	}
	if _, err := l.Append(OpAuditBatch, payload); err != nil {
		t.Fatalf("Append after GC: %v", err)
	}
	l.Close()

	// Reopen after GC: the chain now starts mid-history.
	l = openTest(t, dir, Options{SegmentBytes: 256})
	lsns, _, _ = collect(t, l, 0)
	if len(lsns) == 0 || lsns[len(lsns)-1] != 41 {
		t.Fatalf("reopen after GC: last lsn %v", lsns)
	}
	l.Close()
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(OpFleetInstall, []byte("whole")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Tear the final record by chopping 3 bytes off the file.
	name := segFiles(t, dir)[0]
	path := filepath.Join(dir, name)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	l = openTest(t, dir, Options{})
	if got := l.LastLSN(); got != 4 {
		t.Fatalf("LastLSN after torn tail = %d, want 4", got)
	}
	// The next append reuses the lost LSN.
	lsn, err := l.Append(OpFleetInstall, []byte("replacement"))
	if err != nil || lsn != 5 {
		t.Fatalf("Append after repair: lsn=%d err=%v", lsn, err)
	}
	_, _, payloads := collect(t, l, 0)
	if len(payloads) != 5 || payloads[4] != "replacement" {
		t.Fatalf("payloads after repair: %q", payloads)
	}
	l.Close()
}

func TestCorruptionMidLogRefused(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{SegmentBytes: 128})
	for i := 0; i < 20; i++ {
		if _, err := l.Append(OpFleetInstall, []byte("payloadpayload")); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 2 {
		t.Fatal("need >= 2 segments for mid-log corruption")
	}
	l.Close()

	// Flip a payload byte in the FIRST (non-final) segment: that is not
	// a torn tail, it is corruption, and Open must refuse.
	name := segFiles(t, dir)[0]
	path := filepath.Join(dir, name)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[headerSize+frameHead+recHead+2] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, SegmentBytes: 128, Fsync: FsyncOff}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt mid-log = %v, want ErrCorrupt", err)
	}
}

func TestLSNGapRefused(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{SegmentBytes: 128})
	for i := 0; i < 20; i++ {
		if _, err := l.Append(OpFleetInstall, []byte("payloadpayload")); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 3 {
		t.Fatal("need >= 3 segments")
	}
	l.Close()

	// Deleting a middle segment leaves a hole in the LSN chain.
	names := segFiles(t, dir)
	if err := os.Remove(filepath.Join(dir, names[1])); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, SegmentBytes: 128, Fsync: FsyncOff}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with missing middle segment = %v, want ErrCorrupt", err)
	}
}

func TestAppendFailureLatches(t *testing.T) {
	dir := t.TempDir()
	fs := NewCrashFS(int64(headerSize+frameHead+recHead+4), 0)
	l, err := Open(Options{Dir: dir, Fsync: FsyncAlways, FS: fs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(OpFleetInstall, []byte("okay")); err != nil {
		t.Fatalf("first append: %v", err)
	}
	if _, err := l.Append(OpFleetInstall, []byte("doomed")); err == nil {
		t.Fatal("second append succeeded past the crash point")
	}
	// The log is wedged: nothing can be acknowledged anymore.
	if _, err := l.Append(OpFleetInstall, []byte("after")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash append = %v, want ErrCrashed", err)
	}
	if l.Err() == nil {
		t.Fatal("Err() not latched")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"always", FsyncAlways, true},
		{"", FsyncAlways, true},
		{"interval", 0, false},
		{"off", FsyncOff, true},
		{"sometimes", 0, false},
	} {
		got, err := ParsePolicy(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Errorf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestFrameLayout(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	if _, err := l.Append(7, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	b, err := os.ReadFile(filepath.Join(dir, segFiles(t, dir)[0]))
	if err != nil {
		t.Fatal(err)
	}
	rec := b[headerSize:]
	if got := binary.LittleEndian.Uint32(rec[0:4]); got != uint32(recHead+3) {
		t.Fatalf("frame len = %d", got)
	}
	if got := binary.LittleEndian.Uint64(rec[8:16]); got != 1 {
		t.Fatalf("frame lsn = %d", got)
	}
	if rec[16] != 7 || string(rec[17:]) != "xyz" {
		t.Fatalf("frame kind/payload = %d %q", rec[16], rec[17:])
	}
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := OSFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := segmentNames(names)
	if len(segs) == 0 {
		t.Fatal("no segments on disk")
	}
	return segs
}
