package snapcodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// TestSectionsCompose pins the property homeguardd's snapshot file relies
// on: two sections written back-to-back on one stream restore back-to-back
// from one reader — each reader consumes exactly its own trailer and not
// a byte more.
func TestSectionsCompose(t *testing.T) {
	var buf bytes.Buffer
	w1, err := NewWriter(&buf, "SECTONE\x00", 1)
	if err != nil {
		t.Fatal(err)
	}
	w1.Record([]byte("alpha"))
	w1.Record([]byte("beta"))
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := NewWriter(&buf, "SECTTWO\x00", 7)
	if err != nil {
		t.Fatal(err)
	}
	w2.Record([]byte("gamma"))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	r := bytes.NewReader(buf.Bytes())
	r1, err := NewReader(r, "SECTONE\x00", 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		rec, err := r1.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(rec))
	}
	if len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("section one records = %q", got)
	}
	r2, err := NewReader(r, "SECTTWO\x00", 7)
	if err != nil {
		t.Fatalf("section two header after section one trailer: %v", err)
	}
	rec, err := r2.Next()
	if err != nil || string(rec) != "gamma" {
		t.Fatalf("section two record = %q, %v", rec, err)
	}
	if _, err := r2.Next(); err != io.EOF {
		t.Fatalf("section two end: %v, want io.EOF", err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d unread bytes after both sections", r.Len())
	}
}

// TestEmptySection: zero records round-trip (a fleet may snapshot before
// any traffic).
func TestEmptySection(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "EMPTYSEC", 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), "EMPTYSEC", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("empty section: %v, want io.EOF", err)
	}
}

// TestOversizedRecordRejected: a length prefix beyond the bound is
// corruption, not an allocation request.
func TestOversizedRecordRejected(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "BOUNDSEC", 1)
	w.Record([]byte("ok"))
	w.Close()
	raw := buf.Bytes()
	// The first record's length prefix starts right after the 12-byte
	// header; rewrite it to a huge value.
	raw[12], raw[13], raw[14], raw[15] = 0xFE, 0xFF, 0xFF, 0xFF
	r, err := NewReader(bytes.NewReader(raw), "BOUNDSEC", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized record: %v, want ErrCorrupt", err)
	}
}

// TestEnd: End accepts exactly the end of a section — the sentinel and
// a matching checksum — and rejects a record where the section should
// end or a damaged trailer with ErrCorrupt.
func TestEnd(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "ENDSECT\x00", 1)
	w.Record([]byte("only"))
	w.Close()
	raw := buf.Bytes()

	r, _ := NewReader(bytes.NewReader(raw), "ENDSECT\x00", 1)
	if err := r.End(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("End before the last record: %v, want ErrCorrupt", err)
	}
	r, _ = NewReader(bytes.NewReader(raw), "ENDSECT\x00", 1)
	r.Next()
	if err := r.End(); err != nil {
		t.Errorf("End at the end: %v", err)
	}
	damaged := bytes.Clone(raw)
	damaged[len(damaged)-1] ^= 1
	r, _ = NewReader(bytes.NewReader(damaged), "ENDSECT\x00", 1)
	r.Next()
	if err := r.End(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("End over a damaged checksum: %v, want ErrCorrupt", err)
	}
}

// claimOnly is a section header followed by one record length claiming
// MaxRecordBytes and no record bytes.
func claimOnly() []byte {
	raw := append([]byte("CLAIMSEC"), 0, 0, 0, 1)
	return binary.BigEndian.AppendUint32(raw, MaxRecordBytes)
}

// TestNextClaimAllocation: a record's claimed length is untrusted, so a
// section that claims MaxRecordBytes and then ends fails ErrCorrupt
// without allocating the claim.
func TestNextClaimAllocation(t *testing.T) {
	r, err := NewReader(bytes.NewReader(claimOnly()), "CLAIMSEC", 1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = r.Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated record: %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("Next over a %d-byte section allocated %d bytes, want at most 1 MiB", len(claimOnly()), got)
	}
}

// TestNextLargeRecord: a record larger than the reader's first buffer
// arrives whole.
func TestNextLargeRecord(t *testing.T) {
	want := bytes.Repeat([]byte("0123456789abcdef"), 3*(64<<10)/16+5)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "LARGESEC", 1)
	w.Record(want)
	w.Record(nil)
	w.Close()
	r, err := NewReader(&buf, "LARGESEC", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := r.Next(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("large record: %d bytes, %v; want %d bytes", len(got), err, len(want))
	}
	if got, err := r.Next(); err != nil || len(got) != 0 {
		t.Fatalf("empty record: %q, %v", got, err)
	}
	if err := r.End(); err != nil {
		t.Fatalf("End: %v", err)
	}
}
