package pairverdict

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"homeguard/internal/detect"
	"homeguard/internal/rule"
	"homeguard/internal/solver"
)

// verdictFor builds a realistic cached verdict: threats with full rules
// and a witness, as real detection produces.
func verdictFor(n int) []detect.Threat {
	r1 := &rule.Rule{
		App: fmt.Sprintf("AppA%d", n), ID: "R1",
		Trigger: rule.Trigger{Subject: "tv1", Attribute: "switch", Capability: "switch"},
		Action:  rule.Action{Subject: "window1", Capability: "switch", Command: "on"},
	}
	r2 := &rule.Rule{
		App: fmt.Sprintf("AppB%d", n), ID: "R2",
		Trigger: rule.Trigger{Subject: "temp1", Attribute: "temperature", Capability: "temperatureMeasurement"},
		Action:  rule.Action{Subject: "window1", Capability: "switch", Command: "off"},
	}
	return []detect.Threat{{
		Kind: detect.ActuatorRace, R1: r1, R2: r2,
		Witness: solver.Model{"dev-window.switch": {Enum: "on"}, "temp": {Int: 77}},
		Note:    "contradictory commands on the same actuator",
	}}
}

func renderVerdict(t *testing.T, ts []detect.Threat) string {
	t.Helper()
	b, err := detect.MarshalThreats(ts)
	if err != nil {
		t.Fatalf("marshal threats: %v", err)
	}
	return string(b)
}

// TestVerdictSnapshotRoundTrip: a restored cache serves hits whose
// threats re-marshal byte-identically — kind, rules, property, witness
// and note all preserved — and never invokes compute.
func TestVerdictSnapshotRoundTrip(t *testing.T) {
	warm := New()
	const entries = 10
	for i := 0; i < entries; i++ {
		i := i
		warm.Detect(keyN(byte(i)), func() []detect.Threat { return verdictFor(i) })
	}
	// One clean (empty) verdict: absence of threats is cacheable state.
	warm.Detect(keyN(200), func() []detect.Threat { return nil })

	var buf bytes.Buffer
	n, err := warm.Snapshot(&buf)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if n != entries+1 {
		t.Fatalf("snapshot wrote %d verdicts, want %d", n, entries+1)
	}

	cold := New()
	added, err := cold.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil || added != n {
		t.Fatalf("restore: added=%d err=%v", added, err)
	}
	for i := 0; i < entries; i++ {
		ts, hit := cold.Detect(keyN(byte(i)), func() []detect.Threat {
			t.Errorf("restored cache recomputed verdict %d", i)
			return nil
		})
		if !hit {
			t.Fatalf("verdict %d not a hit after restore", i)
		}
		if got, want := renderVerdict(t, ts), renderVerdict(t, verdictFor(i)); got != want {
			t.Errorf("verdict %d diverged after restore:\ngot  %s\nwant %s", i, got, want)
		}
		if ts[0].String() != verdictFor(i)[0].String() {
			t.Errorf("verdict %d rendering diverged", i)
		}
	}
	if ts, hit := cold.Detect(keyN(200), func() []detect.Threat {
		t.Error("restored cache recomputed the empty verdict")
		return nil
	}); !hit || len(ts) != 0 {
		t.Errorf("empty verdict: hit=%v len=%d, want hit with no threats", hit, len(ts))
	}
	if st := cold.Stats(); st.Misses != 0 {
		t.Errorf("warm-boot misses = %d, want 0", st.Misses)
	}
}

// TestVerdictSnapshotRejectsDamage: typed failures for version skew and
// corruption.
func TestVerdictSnapshotRejectsDamage(t *testing.T) {
	warm := New()
	warm.Detect(keyN(1), func() []detect.Threat { return verdictFor(1) })
	var buf bytes.Buffer
	if _, err := warm.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	bad := append([]byte(nil), snap...)
	bad[11]++ // header version field
	if _, err := New().Restore(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("version mismatch: err = %v, want ErrSnapshotVersion", err)
	}
	bad = append([]byte(nil), snap...)
	bad[len(bad)-40] ^= 0x01 // inside checksum-covered tail
	if _, err := New().Restore(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("damage: err = %v, want ErrSnapshotCorrupt", err)
	}
	if _, err := New().Restore(bytes.NewReader(snap[:len(snap)-3])); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("truncation: err = %v, want ErrSnapshotCorrupt", err)
	}
	// An extraction-cache snapshot is a different section type.
	if _, err := New().Restore(bytes.NewReader([]byte("HGXCSNP\x00garbagegarbage"))); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("foreign magic: err = %v, want ErrSnapshotCorrupt", err)
	}
}

// TestVerdictSnapshotConcurrent races Snapshot/Restore against live
// Detect traffic (meaningful under -race).
func TestVerdictSnapshotConcurrent(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := (g*13 + i) % 32
				c.Detect(keyN(byte(n)), func() []detect.Threat { return verdictFor(n) })
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var buf bytes.Buffer
				if _, err := c.Snapshot(&buf); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
				if _, err := c.Restore(bytes.NewReader(buf.Bytes())); err != nil {
					t.Errorf("restore: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() != 32 {
		t.Errorf("cache ended with %d verdicts, want 32", c.Len())
	}
}

// FuzzVerdictRestore feeds arbitrary bytes to Restore on an empty
// cache: it never panics, bad input fails with ErrSnapshotVersion or
// ErrSnapshotCorrupt, and every verdict it merged snapshots again and
// renders, the use a verdict hit makes of it. Seeded from a real
// snapshot.
//
//	go test -run '^$' -fuzz FuzzVerdictRestore -fuzztime 30s -fuzzminimizetime 1x ./internal/pairverdict
func FuzzVerdictRestore(f *testing.F) {
	warm := New()
	for i := 0; i < 2; i++ {
		warm.Detect(keyN(byte(i)), func() []detect.Threat { return verdictFor(i) })
	}
	warm.Detect(keyN(200), func() []detect.Threat { return nil })
	var buf bytes.Buffer
	if _, err := warm.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	snap := buf.Bytes()
	for _, seed := range [][]byte{snap, snap[:len(snap)-1], snap[:len(snap)/2], snap[:12]} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRestore(t, data)
		// Random bytes almost never carry a valid SHA-256 trailer, so
		// also try the input with its trailer recomputed: that reaches
		// the record decoders behind the checksum.
		if len(data) > sha256.Size {
			body := data[:len(data)-sha256.Size]
			sum := sha256.Sum256(body)
			checkRestore(t, append(bytes.Clone(body), sum[:]...))
		}
	})
}

func checkRestore(t *testing.T, data []byte) {
	c := New()
	if _, err := c.Restore(bytes.NewReader(data)); err != nil && !errors.Is(err, ErrSnapshotVersion) && !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("Restore failed with an untyped error: %v", err)
	}
	if _, err := c.Snapshot(io.Discard); err != nil {
		t.Fatalf("restored verdicts do not snapshot again: %v", err)
	}
	for _, e := range c.entries {
		for _, th := range e.threats {
			_ = th.String()
		}
	}
}
