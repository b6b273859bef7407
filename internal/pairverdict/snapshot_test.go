package pairverdict

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"homeguard/internal/detect"
	"homeguard/internal/rule"
	"homeguard/internal/snapcodec"
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

// readSnapshot decodes a Snapshot's records into key -> verdict.
func readSnapshot(r io.Reader) (map[Key][]detect.Threat, error) {
	sr, err := snapcodec.NewReader(r, snapshotMagic, snapshotVersion)
	if err != nil {
		return nil, err
	}
	out := map[Key][]detect.Threat{}
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		var k Key
		if len(rec) < len(k) {
			return nil, fmt.Errorf("record of %d bytes is shorter than a key", len(rec))
		}
		copy(k[:], rec)
		if out[k], err = detect.UnmarshalThreats(rec[len(k):]); err != nil {
			return nil, err
		}
	}
}

// TestVerdictSnapshotRoundTrip: every completed verdict is written once
// under its key, and its threats decode to what was cached — kind,
// rules, property, witness and note all preserved — including an empty
// verdict.
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
	got, err := readSnapshot(&buf)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	if len(got) != n {
		t.Fatalf("snapshot holds %d distinct keys, want %d", len(got), n)
	}
	for i := 0; i < entries; i++ {
		ts, ok := got[keyN(byte(i))]
		if !ok {
			t.Fatalf("verdict %d missing from the snapshot", i)
		}
		if got, want := renderVerdict(t, ts), renderVerdict(t, verdictFor(i)); got != want {
			t.Errorf("verdict %d diverged in the snapshot:\ngot  %s\nwant %s", i, got, want)
		}
		if ts[0].String() != verdictFor(i)[0].String() {
			t.Errorf("verdict %d rendering diverged", i)
		}
	}
	if ts, ok := got[keyN(200)]; !ok || len(ts) != 0 {
		t.Errorf("empty verdict: present=%v len=%d, want present with no threats", ok, len(ts))
	}
}

// TestVerdictSnapshotConcurrent races Snapshot against live Detect
// traffic (meaningful under -race): every snapshot decodes, and the
// last one holds every verdict.
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
				n, err := c.Snapshot(&buf)
				if err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
				if got, err := readSnapshot(&buf); err != nil || len(got) != n {
					t.Errorf("snapshot of %d verdicts decodes to %d (err %v)", n, len(got), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() != 32 {
		t.Errorf("cache ended with %d verdicts, want 32", c.Len())
	}
	var buf bytes.Buffer
	if n, err := c.Snapshot(&buf); err != nil || n != 32 {
		t.Fatalf("final snapshot: n=%d err=%v", n, err)
	}
	if got, err := readSnapshot(&buf); err != nil || len(got) != 32 {
		t.Errorf("final snapshot decodes to %d verdicts (err %v), want 32", len(got), err)
	}
}
