// Package snapcodec is the shared binary framing for persistent state:
// a magic+version header, a stream of length-prefixed records, and a
// SHA-256 checksum trailer covering every byte written before it. The
// extraction cache, the pair-verdict cache, the fleet homes, the store
// auditor and homeguardd's checkpoint meta each persist through it
// (each with its own magic and record payloads), and homeguardd
// concatenates the meta, verdict, homes and auditor sections into one
// checkpoint file — the codec never reads past its own trailer, so
// sections compose on a plain io.Reader.
//
// Layout:
//
//	magic   [8]byte  // per-section identity, e.g. "HGXCSNP\x00"
//	version uint32   // big-endian format version
//	records           // repeated: length uint32 | payload bytes
//	end     uint32   // sentinel length 0xFFFFFFFF
//	sum     [32]byte // SHA-256 of everything above
//
// Reading fails with ErrVersion on a known magic but unknown version and
// with ErrCorrupt on a bad magic, a truncated stream, an oversized record,
// a record where the section should end (Reader.End) or a checksum
// mismatch — a daemon booting from a damaged checkpoint gets a clean
// typed error and refuses to serve instead of loading garbage.
package snapcodec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
)

// ErrVersion reports a snapshot written by an incompatible format
// version.
var ErrVersion = errors.New("snapcodec: unsupported snapshot version")

// ErrCorrupt reports a snapshot that fails structural or checksum
// validation.
var ErrCorrupt = errors.New("snapcodec: corrupt snapshot")

// MaxRecordBytes bounds one record (64 MiB): a length prefix beyond it is
// treated as corruption rather than honored as an allocation request.
const MaxRecordBytes = 64 << 20

const magicLen = 8

// endSentinel terminates the record stream (no record length is ever
// 0xFFFFFFFF — MaxRecordBytes is far below it).
const endSentinel = ^uint32(0)

// Writer emits one snapshot section. Records are hashed as written; Close
// writes the sentinel and the checksum trailer. The Writer does not
// buffer — hand it a *bufio.Writer (and flush it) for small-record
// workloads.
type Writer struct {
	w   io.Writer
	h   hash.Hash
	err error
}

// NewWriter writes the section header and returns the record writer.
// magic must be exactly 8 bytes.
func NewWriter(w io.Writer, magic string, version uint32) (*Writer, error) {
	if len(magic) != magicLen {
		return nil, fmt.Errorf("snapcodec: magic %q must be %d bytes", magic, magicLen)
	}
	sw := &Writer{w: w, h: sha256.New()}
	var hdr [magicLen + 4]byte
	copy(hdr[:], magic)
	binary.BigEndian.PutUint32(hdr[magicLen:], version)
	sw.write(hdr[:])
	return sw, sw.err
}

// Record appends one length-prefixed record.
func (sw *Writer) Record(b []byte) error {
	if sw.err != nil {
		return sw.err
	}
	if len(b) > MaxRecordBytes {
		sw.err = fmt.Errorf("snapcodec: record of %d bytes exceeds the %d-byte bound", len(b), MaxRecordBytes)
		return sw.err
	}
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(b)))
	sw.write(n[:])
	sw.write(b)
	return sw.err
}

// Close writes the end sentinel and the checksum trailer. It does not
// close the underlying writer.
func (sw *Writer) Close() error {
	if sw.err != nil {
		return sw.err
	}
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], endSentinel)
	sw.write(n[:])
	if sw.err == nil {
		if _, err := sw.w.Write(sw.h.Sum(nil)); err != nil {
			sw.err = err
		}
	}
	return sw.err
}

func (sw *Writer) write(b []byte) {
	if sw.err != nil {
		return
	}
	if _, err := sw.w.Write(b); err != nil {
		sw.err = err
		return
	}
	sw.h.Write(b)
}

// Reader consumes one snapshot section written by Writer.
type Reader struct {
	r io.Reader
	h hash.Hash
}

// NewReader validates the section header. A wrong magic fails with
// ErrCorrupt (the stream is not this section type at all); a right magic
// with a different version fails with ErrVersion.
func NewReader(r io.Reader, magic string, version uint32) (*Reader, error) {
	if len(magic) != magicLen {
		return nil, fmt.Errorf("snapcodec: magic %q must be %d bytes", magic, magicLen)
	}
	sr := &Reader{r: r, h: sha256.New()}
	var hdr [magicLen + 4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	sr.h.Write(hdr[:])
	if string(hdr[:magicLen]) != magic {
		return nil, fmt.Errorf("%w: magic %q, want %q", ErrCorrupt, hdr[:magicLen], magic)
	}
	if got := binary.BigEndian.Uint32(hdr[magicLen:]); got != version {
		return nil, fmt.Errorf("%w: version %d, reader supports %d", ErrVersion, got, version)
	}
	return sr, nil
}

// Next returns the next record, or io.EOF after the last record once the
// checksum trailer verified. Any structural damage — truncation, an
// oversized length, a checksum mismatch — fails with ErrCorrupt.
func (sr *Reader) Next() ([]byte, error) {
	var n [4]byte
	if _, err := io.ReadFull(sr.r, n[:]); err != nil {
		return nil, fmt.Errorf("%w: short record length: %v", ErrCorrupt, err)
	}
	ln := binary.BigEndian.Uint32(n[:])
	if ln == endSentinel {
		sr.h.Write(n[:])
		want := sr.h.Sum(nil)
		got := make([]byte, sha256.Size)
		if _, err := io.ReadFull(sr.r, got); err != nil {
			return nil, fmt.Errorf("%w: short checksum: %v", ErrCorrupt, err)
		}
		for i := range want {
			if want[i] != got[i] {
				return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
			}
		}
		return nil, io.EOF
	}
	if ln > MaxRecordBytes {
		return nil, fmt.Errorf("%w: record length %d exceeds the %d-byte bound", ErrCorrupt, ln, MaxRecordBytes)
	}
	sr.h.Write(n[:])
	// The length is untrusted: the buffer starts at most 64 KiB long and
	// grows with the bytes that arrive (MinRead spares a regrow at EOF).
	var buf bytes.Buffer
	buf.Grow(min(int(ln), 64<<10) + bytes.MinRead)
	if m, _ := buf.ReadFrom(io.LimitReader(sr.r, int64(ln))); m < int64(ln) {
		return nil, fmt.Errorf("%w: short record", ErrCorrupt)
	}
	sr.h.Write(buf.Bytes())
	return buf.Bytes(), nil
}

// End consumes the end of the section: the sentinel and the checksum
// trailer, which it verifies. A further record where the section should
// end fails with ErrCorrupt, as does any damage Next reports.
func (sr *Reader) End() error {
	_, err := sr.Next()
	switch err {
	case io.EOF:
		return nil
	case nil:
		return fmt.Errorf("%w: records beyond the declared counts", ErrCorrupt)
	}
	return err
}
