package fleet

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"homeguard/internal/detect"
	"homeguard/internal/wal"
)

func openWAL(t *testing.T, dir string) *wal.Log {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return l
}

// driveOps runs a fixed mutation storm — installs across three homes, a
// reconfigure, an accept by index — used by every recovery
// test as "the acknowledged history".
func driveOps(t *testing.T, f *Fleet) {
	t.Helper()
	ctx := context.Background()
	apps := []string{"ComfortTV", "ColdDefender", "CatchLiveShow", "BurglarFinder", "NightCare"}
	for h := 0; h < 3; h++ {
		id := fmt.Sprintf("home-%d", h)
		for _, n := range apps[:3+h%2] {
			if _, err := f.Install(ctx, id, mustSource(t, n), nil); err != nil {
				t.Fatalf("install %s into %s: %v", n, id, err)
			}
		}
	}
	cfg := detect.NewConfig()
	cfg.Devices["tv1"] = "tv-42"
	if _, err := f.Reconfigure(ctx, "home-0", "ComfortTV", cfg); err != nil {
		t.Fatalf("reconfigure: %v", err)
	}
	ts, err := f.Threats("home-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) > 0 {
		if err := f.AcceptByIndex("home-0", 0); err != nil {
			t.Fatalf("accept by index: %v", err)
		}
	}
}

// assertFleetsEqual compares the durable state two fleets serve: home
// set, installed apps, the append-only threat log and the active ledger.
func assertFleetsEqual(t *testing.T, want, got *Fleet) {
	t.Helper()
	wantIDs, gotIDs := want.HomeIDs(), got.HomeIDs()
	if fmt.Sprint(wantIDs) != fmt.Sprint(gotIDs) {
		t.Fatalf("home IDs: got %v, want %v", gotIDs, wantIDs)
	}
	for _, id := range wantIDs {
		wa, _ := want.Apps(id)
		ga, _ := got.Apps(id)
		if fmt.Sprint(wa) != fmt.Sprint(ga) {
			t.Errorf("home %s apps: got %v, want %v", id, ga, wa)
		}
		wt, _ := want.Threats(id)
		gt, _ := got.Threats(id)
		wb, err := detect.MarshalThreats(wt)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := detect.MarshalThreats(gt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, gb) {
			t.Errorf("home %s threat log diverged: %d vs %d threats", id, len(gt), len(wt))
		}
		wat, _ := want.ActiveThreats(id)
		gat, _ := got.ActiveThreats(id)
		wab, _ := detect.MarshalThreats(wat)
		gab, _ := detect.MarshalThreats(gat)
		if !bytes.Equal(wab, gab) {
			t.Errorf("home %s active ledger diverged: %d vs %d threats", id, len(gat), len(wat))
		}
	}
}

// TestFleetWALReplayFromScratch rebuilds a fleet from nothing but the
// log: every acknowledged op replays into byte-identical serving state.
func TestFleetWALReplayFromScratch(t *testing.T) {
	dir := t.TempDir()
	f := New(Options{})
	l := openWAL(t, dir)
	f.AttachWAL(l)
	driveOps(t, f)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	g := New(Options{})
	rl := openWAL(t, dir)
	if err := rl.Replay(0, g.ReplayWALRecord); err != nil {
		t.Fatalf("replay: %v", err)
	}
	g.AttachWAL(rl)
	assertFleetsEqual(t, f, g)

	// The recovered fleet keeps serving — and keeps logging.
	if _, err := g.Install(context.Background(), "home-9", mustSource(t, "NightCare"), nil); err != nil {
		t.Fatalf("install after recovery: %v", err)
	}
	rl.Close()
}

// TestFleetSnapshotRestore round-trips homes through the checkpoint
// section alone (no log) and checks AcceptByIndex addressing survives.
func TestFleetSnapshotRestore(t *testing.T) {
	f := New(Options{})
	driveOps(t, f)

	var buf bytes.Buffer
	n, err := f.SnapshotHomes(&buf)
	if err != nil {
		t.Fatalf("SnapshotHomes: %v", err)
	}
	if n != f.NumHomes() {
		t.Fatalf("snapshot wrote %d homes, fleet has %d", n, f.NumHomes())
	}

	g := New(Options{})
	rn, err := g.RestoreHomes(&buf)
	if err != nil {
		t.Fatalf("RestoreHomes: %v", err)
	}
	if rn != n {
		t.Fatalf("restored %d homes, want %d", rn, n)
	}
	assertFleetsEqual(t, f, g)

	// The restored threat log still addresses: accept by index works on
	// the same indices the original fleet would accept.
	ts, err := g.Threats("home-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) > 0 {
		if err := g.AcceptByIndex("home-0", len(ts)-1); err != nil {
			t.Fatalf("AcceptByIndex after restore: %v", err)
		}
	}

	// And both fleets evolve identically from here (accepted threats,
	// configs and the index all came back: a further install must report
	// the same threats and chains on both sides).
	r1, err := f.Install(context.Background(), "home-1", mustSource(t, "NightCare"), nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g.Install(context.Background(), "home-1", mustSource(t, "NightCare"), nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := detect.MarshalThreats(r1.Threats)
	b2, _ := detect.MarshalThreats(r2.Threats)
	if !bytes.Equal(b1, b2) {
		t.Errorf("post-restore install diverged: %d vs %d threats", len(r2.Threats), len(r1.Threats))
	}
	if fmt.Sprint(r1.Chains) != fmt.Sprint(r2.Chains) {
		t.Errorf("post-restore chains diverged: %v vs %v", r2.Chains, r1.Chains)
	}
	if r1.ThreatLogBase != r2.ThreatLogBase {
		t.Errorf("ThreatLogBase diverged: %d vs %d", r2.ThreatLogBase, r1.ThreatLogBase)
	}
}

// TestFleetCheckpointPlusReplay is the full recovery path: a checkpoint
// taken mid-stream plus the log replayed on top must equal the final
// state — records at or below each home's watermark are skipped, records
// above it apply exactly once.
func TestFleetCheckpointPlusReplay(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	f := New(Options{})
	l := openWAL(t, dir)
	f.AttachWAL(l)

	// Phase 1: some ops, then the checkpoint.
	for h := 0; h < 2; h++ {
		id := fmt.Sprintf("home-%d", h)
		for _, n := range []string{"ComfortTV", "ColdDefender"} {
			if _, err := f.Install(ctx, id, mustSource(t, n), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	var ckpt bytes.Buffer
	if _, err := f.SnapshotHomes(&ckpt); err != nil {
		t.Fatal(err)
	}

	// Phase 2: more ops after the checkpoint — replay must apply exactly
	// these on top of the restore.
	if _, err := f.Install(ctx, "home-0", mustSource(t, "CatchLiveShow"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Install(ctx, "home-2", mustSource(t, "NightCare"), nil); err != nil {
		t.Fatal(err)
	}
	cfg := detect.NewConfig()
	cfg.Devices["tv1"] = "tv-7"
	if _, err := f.Reconfigure(ctx, "home-1", "ComfortTV", cfg); err != nil {
		t.Fatal(err)
	}
	if ts, _ := f.Threats("home-1"); len(ts) > 0 {
		if err := f.AcceptByIndex("home-1", 0); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	g := New(Options{})
	if _, err := g.RestoreHomes(&ckpt); err != nil {
		t.Fatalf("restore: %v", err)
	}
	rl := openWAL(t, dir)
	if err := rl.Replay(0, g.ReplayWALRecord); err != nil {
		t.Fatalf("replay: %v", err)
	}
	g.AttachWAL(rl)
	defer rl.Close()
	assertFleetsEqual(t, f, g)
}

// TestFleetWALCrashStops checks the crash-stop contract: once an append
// fails, every later mutation is refused un-acknowledged.
func TestFleetWALCrashStops(t *testing.T) {
	dir := t.TempDir()
	// Budget enough for the segment header and one or two records, then
	// the crash.
	fs := wal.NewCrashFS(600, 0)
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncAlways, FS: fs})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	f := New(Options{})
	f.AttachWAL(l)
	ctx := context.Background()
	apps := []string{"ComfortTV", "ColdDefender", "CatchLiveShow", "BurglarFinder", "NightCare"}
	acked := 0
	var firstErr error
	for i, n := range apps {
		if _, err := f.Install(ctx, fmt.Sprintf("home-%d", i), mustSource(t, n), nil); err != nil {
			firstErr = err
			break
		}
		acked++
	}
	if firstErr == nil {
		t.Fatal("no install hit the crash point; raise the op count or lower the budget")
	}
	// Everything after the crash is refused too.
	if _, err := f.Install(ctx, "home-z", mustSource(t, "NightCare"), nil); err == nil {
		t.Fatal("install acknowledged after a WAL append failure")
	}
	// Recovery from the real directory yields exactly the acked ops.
	g := New(Options{})
	rl := openWAL(t, dir)
	defer rl.Close()
	replayed := 0
	if err := rl.Replay(0, func(lsn uint64, kind byte, payload []byte) error {
		replayed++
		return g.ReplayWALRecord(lsn, kind, payload)
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if replayed < acked || replayed > acked+1 {
		t.Fatalf("recovered %d ops, acked %d (at most one in-flight record may survive)", replayed, acked)
	}
}
