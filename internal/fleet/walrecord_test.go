package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"homeguard/internal/detect"
	"homeguard/internal/wal"
)

// walRecord is one fleet op record as the log returns it on replay.
type walRecord struct {
	kind    byte
	payload []byte
}

// pinnedWALRecords drives a fleet with a WAL attached through every op
// record kind — install with a nil and with a set config, reconfigure,
// accept by index, detach and adopt — and returns the log's records in
// LSN order.
func pinnedWALRecords(tb testing.TB) []walRecord {
	tb.Helper()
	dir := tb.TempDir()
	ctx := context.Background()
	f := New(Options{})
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncOff})
	if err != nil {
		tb.Fatalf("wal.Open: %v", err)
	}
	f.AttachWAL(l)
	if _, err := f.Install(ctx, "fig3", mustSource(tb, "ComfortTV"), nil); err != nil {
		tb.Fatalf("install: %v", err)
	}
	cfg := detect.NewConfig()
	cfg.Devices["tv1"] = "tv-42"
	if _, err := f.Install(ctx, "fig3", mustSource(tb, "ColdDefender"), cfg); err != nil {
		tb.Fatalf("install with config: %v", err)
	}
	if _, err := f.Reconfigure(ctx, "fig3", "ComfortTV", cfg); err != nil {
		tb.Fatalf("reconfigure: %v", err)
	}
	if err := f.AcceptByIndex("fig3", 0, 1); err != nil {
		tb.Fatalf("accept: %v", err)
	}
	blob, _, err := f.DetachHome("fig3")
	if err != nil {
		tb.Fatalf("detach: %v", err)
	}
	if _, err := f.ImportHome("fig3", blob); err != nil {
		tb.Fatalf("import: %v", err)
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	rl, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncOff})
	if err != nil {
		tb.Fatalf("wal.Open: %v", err)
	}
	defer rl.Close()
	var recs []walRecord
	if err := rl.Replay(0, func(_ uint64, kind byte, payload []byte) error {
		recs = append(recs, walRecord{kind, append([]byte(nil), payload...)})
		return nil
	}); err != nil {
		tb.Fatalf("replay: %v", err)
	}
	return recs
}

// TestFleetWALRecordBytesPinned pins every fleet op record's kind and
// payload bytes: the record type may be restructured, but a log written
// by one build must replay on the next. The five op payloads may not
// change by one byte without a new op kind. The adopt payload embeds the
// whole export blob and is pinned by its SHA-256, as
// TestHomesLayoutBytesPinned pins the blob itself, so it changes only
// with a homes-layout version bump.
func TestFleetWALRecordBytesPinned(t *testing.T) {
	const wantAdopt = "e4aaadeba67044df369f0e7e312b3d23d340f4412d4d6562c85c1e03904c915e"
	quote := func(s string) string {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := []struct {
		kind    byte
		payload string
	}{
		{wal.OpFleetInstall, `{"home":"fig3","source":` + quote(mustSource(t, "ComfortTV")) + `,"config":null}`},
		{wal.OpFleetInstall, `{"home":"fig3","source":` + quote(mustSource(t, "ColdDefender")) + `,"config":{"devices":{"tv1":"tv-42"}}}`},
		{wal.OpFleetReconfigure, `{"home":"fig3","app":"ComfortTV","config":{"devices":{"tv1":"tv-42"}}}`},
		{wal.OpFleetAccept, `{"home":"fig3","indices":[0,1]}`},
		{wal.OpFleetRemoveHome, `{"home":"fig3"}`},
	}
	recs := pinnedWALRecords(t)
	if len(recs) != len(want)+1 {
		t.Fatalf("log holds %d records, want %d", len(recs), len(want)+1)
	}
	for i, w := range want {
		if recs[i].kind != w.kind || string(recs[i].payload) != w.payload {
			t.Errorf("record %d = kind %d %s\nwant kind %d %s", i, recs[i].kind, recs[i].payload, w.kind, w.payload)
		}
	}
	adopt := recs[len(want)]
	sum := sha256.Sum256(adopt.payload)
	if got := hex.EncodeToString(sum[:]); adopt.kind != wal.OpFleetAdoptHome || got != wantAdopt {
		t.Errorf("adopt record = kind %d sha256 %s, want kind %d sha256 %s", adopt.kind, got, wal.OpFleetAdoptHome, wantAdopt)
	}
}
