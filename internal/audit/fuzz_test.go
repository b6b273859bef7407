package audit_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"homeguard/internal/audit"
	"homeguard/internal/snapcodec"
)

// FuzzAuditRestore feeds arbitrary bytes to Restore on an empty
// auditor: it never panics, bad input fails with snapcodec.ErrVersion
// or ErrCorrupt, the auditor answers Findings and FindingsSince
// whatever Restore left in it, and an accepted store snapshots again
// into a section that restores. Seeded from a real snapshot.
//
//	go test -run '^$' -fuzz FuzzAuditRestore -fuzztime 30s -fuzzminimizetime 1x ./internal/audit
func FuzzAuditRestore(f *testing.F) {
	aud := audit.NewAuditor(audit.AuditorOptions{Workers: 1})
	driveBatches(f, aud)
	var buf bytes.Buffer
	if err := aud.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	snap := buf.Bytes()
	for _, seed := range [][]byte{snap, snap[:len(snap)-1], snap[:len(snap)/2], snap[:12]} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAuditRestore(t, data)
		// Random bytes almost never carry a valid SHA-256 trailer, so
		// also try the input with its trailer recomputed: that reaches
		// the record decoders behind the checksum.
		if len(data) > sha256.Size {
			body := data[:len(data)-sha256.Size]
			sum := sha256.Sum256(body)
			checkAuditRestore(t, append(bytes.Clone(body), sum[:]...))
		}
	})
}

func checkAuditRestore(t *testing.T, data []byte) {
	g := audit.NewAuditor(audit.AuditorOptions{Workers: 1})
	err := g.Restore(bytes.NewReader(data))
	if err != nil && !errors.Is(err, snapcodec.ErrVersion) && !errors.Is(err, snapcodec.ErrCorrupt) {
		t.Fatalf("Restore failed with an untyped error: %v", err)
	}
	for _, fd := range g.Findings() {
		_ = fd.Threat.String()
	}
	for _, since := range []uint64{0, 1, g.Rev()} {
		g.FindingsSince(since)
	}
	if err != nil {
		return
	}
	var again bytes.Buffer
	if err := g.Snapshot(&again); err != nil {
		t.Fatalf("restored store does not snapshot again: %v", err)
	}
	if err := audit.NewAuditor(audit.AuditorOptions{Workers: 1}).Restore(&again); err != nil {
		t.Fatalf("re-snapshot of a restored store does not restore: %v", err)
	}
}
