package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// fuzzFirst is the first LSN of the fuzzed segment in FuzzWALOpen,
// both when it is the only segment and when it follows a valid one
// holding LSNs 1 and 2.
const fuzzFirst = 3

// segmentBytes lays out a segment as TestFrameLayout pins it: the
// magic, the version, then one frame per payload with consecutive LSNs
// from first, every payload of kind 7.
func segmentBytes(first uint64, payloads ...string) []byte {
	b := append([]byte(segMagic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(b[len(segMagic):], segVersion)
	for i, p := range payloads {
		rec := binary.LittleEndian.AppendUint64(nil, first+uint64(i))
		rec = append(append(rec, 7), p...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(rec)))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(rec, castagnoli))
		b = append(b, rec...)
	}
	return b
}

// tornClaim is a 20-byte final segment: a whole header, then a frame
// header claiming a MaxRecordBytes record of which no byte arrived.
func tornClaim() []byte {
	b := binary.LittleEndian.AppendUint32(segmentBytes(fuzzFirst), MaxRecordBytes)
	return binary.LittleEndian.AppendUint32(b, 0)
}

// TestOpenTornClaimAllocation: Open repairs a torn final frame whose
// header claims far more bytes than the segment holds, and allocates
// for the bytes present, not for the claim.
func TestOpenTornClaimAllocation(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, formatSegmentName(fuzzFirst)), tornClaim(), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, err := Open(Options{Dir: dir, Fsync: FsyncOff})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("Open of a %d-byte segment allocated %d bytes, want at most 1 MiB", len(tornClaim()), got)
	}
	if got := l.LastLSN(); got != fuzzFirst-1 {
		t.Errorf("LastLSN = %d after truncating the torn frame, want %d", got, fuzzFirst-1)
	}
}

// record is one replayed record.
type record struct {
	lsn     uint64
	kind    byte
	payload string
}

// replayAll opens dir and returns every record it replays, or the
// error Open or Replay failed with.
func replayAll(dir string) (*Log, []record, error) {
	l, err := Open(Options{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		return nil, nil, err
	}
	var recs []record
	err = l.Replay(0, func(lsn uint64, kind byte, payload []byte) error {
		recs = append(recs, record{lsn, kind, string(payload)})
		return nil
	})
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	return l, recs, nil
}

// FuzzWALOpen opens a log whose final segment is arbitrary bytes,
// first as the only segment and then as the second after a valid one.
// Open must end in a clean torn-tail truncation or an ErrCorrupt error,
// never a panic. After a successful Open, an Append followed by a
// reopen must replay every record the first Open did, then the
// appended one.
//
//	go test -run '^$' -fuzz FuzzWALOpen -fuzztime 30s -fuzzminimizetime 1x ./internal/wal
func FuzzWALOpen(f *testing.F) {
	whole := segmentBytes(fuzzFirst, "xyz", "", "second record")
	flip := slices.Clone(whole)
	flip[len(flip)-1] ^= 1
	for _, s := range [][]byte{
		nil,
		whole[:headerSize-1],
		whole[:headerSize],
		whole,
		whole[:len(whole)-3], // torn record
		whole[:len(segmentBytes(fuzzFirst, "xyz"))+5], // torn frame header
		flip,                             // crc mismatch in the last record
		segmentBytes(fuzzFirst+1, "gap"), // an lsn the chain does not expect
		segmentBytes(1, "early"),
		append([]byte("HGWALSEQ"), whole[len(segMagic):]...),    // bad magic
		append(slices.Clone(whole[:len(segMagic)]), 2, 0, 0, 0), // bad version
		tornClaim(), // a frame claiming far more bytes than follow
	} {
		f.Add(s)
	}
	prev := segmentBytes(1, "one", "two")
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, second := range []bool{false, true} {
			dir := t.TempDir()
			if second {
				if err := os.WriteFile(filepath.Join(dir, formatSegmentName(1)), prev, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, formatSegmentName(fuzzFirst)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			l, before, err := replayAll(dir)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("second=%v: Open failed with %v, want a torn-tail repair or ErrCorrupt", second, err)
				}
				continue
			}
			if second && (len(before) < 2 || before[0].payload != "one" || before[1].payload != "two") {
				t.Fatalf("the valid first segment replayed as %v", before)
			}
			lsn, err := l.Append(9, []byte("after"))
			if err != nil {
				t.Fatalf("second=%v: Append after Open: %v", second, err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			want := append(before, record{lsn, 9, "after"})
			if len(before) > 0 && lsn != before[len(before)-1].lsn+1 {
				t.Fatalf("second=%v: Append took lsn %d after replaying %v", second, lsn, before)
			}
			l, after, err := replayAll(dir)
			if err != nil {
				t.Fatalf("second=%v: reopen after Append: %v", second, err)
			}
			l.Close()
			if !slices.Equal(after, want) {
				t.Fatalf("second=%v: reopen replayed %v, want %v", second, after, want)
			}
		}
	})
}
