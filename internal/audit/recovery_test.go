package audit_test

import (
	"bytes"
	"fmt"
	"testing"

	"homeguard/internal/audit"
	"homeguard/internal/corpus"
	"homeguard/internal/wal"
)

func openAuditWAL(t *testing.T, dir string) *wal.Log {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return l
}

// driveBatches runs a fixed store history — submits, an update, a
// remove, and a batch whose only op fails — used by every recovery test
// as "the acknowledged history". The all-errors batch matters: it still
// produced a revision, and recovery must reproduce the numbering.
func driveBatches(t testing.TB, aud *audit.Auditor) {
	t.Helper()
	src := func(name string) string {
		t.Helper()
		app, ok := corpus.Get(name)
		if !ok {
			t.Fatalf("corpus app %q not found", name)
		}
		return app.Source
	}
	apply := func(b audit.Batch) {
		t.Helper()
		if _, err := aud.Apply(b); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	apply(audit.Batch{Upserts: []audit.App{{Source: src("ComfortTV")}, {Source: src("ColdDefender")}}})
	apply(audit.Batch{Upserts: []audit.App{{Source: src("CatchLiveShow")}, {Source: src("BurglarFinder")}}})
	apply(audit.Batch{Removes: []string{"NoSuchApp"}}) // acked, rev bumped, zero effective ops
	apply(audit.Batch{
		Removes: []string{"ColdDefender"},
		Upserts: []audit.App{{Source: src("NightCare")}, {Source: src("ColdDefender")}},
	})
}

// assertAuditorsEqual compares the durable state two auditors serve:
// revision, store order, the active finding set and the feed history.
func assertAuditorsEqual(t *testing.T, want, got *audit.Auditor) {
	t.Helper()
	if w, g := want.Rev(), got.Rev(); w != g {
		t.Fatalf("rev: got %d, want %d", g, w)
	}
	if w, g := fmt.Sprint(want.Apps()), fmt.Sprint(got.Apps()); w != g {
		t.Fatalf("store order: got %s, want %s", g, w)
	}
	wf, gf := want.Findings(), got.Findings()
	for i := range wf {
		if i < len(gf) && (wf[i].App1 != gf[i].App1 || wf[i].App2 != gf[i].App2) {
			t.Fatalf("finding %d pair: got (%s,%s), want (%s,%s)", i, gf[i].App1, gf[i].App2, wf[i].App1, wf[i].App2)
		}
	}
	if !bytes.Equal(marshal(t, findingThreats(wf)), marshal(t, findingThreats(gf))) {
		t.Fatalf("findings diverged: %d vs %d", len(gf), len(wf))
	}
	if w, g := want.ActiveFindings(), got.ActiveFindings(); w != g {
		t.Fatalf("active findings: got %d, want %d", g, w)
	}
	wfeed, gfeed := want.FindingsSince(0), got.FindingsSince(0)
	if wfeed.Reset != gfeed.Reset ||
		!bytes.Equal(marshal(t, findingThreats(wfeed.Added)), marshal(t, findingThreats(gfeed.Added))) ||
		!bytes.Equal(marshal(t, findingThreats(wfeed.Resolved)), marshal(t, findingThreats(gfeed.Resolved))) {
		t.Fatalf("feed since 0 diverged")
	}
}

// TestAuditorWALReplay rebuilds the store from nothing but the log:
// every acknowledged batch replays into the same serving state, with the
// same revision numbering.
func TestAuditorWALReplay(t *testing.T) {
	dir := t.TempDir()
	aud := audit.NewAuditor(audit.AuditorOptions{Workers: 2})
	l := openAuditWAL(t, dir)
	aud.AttachWAL(l)
	driveBatches(t, aud)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	g := audit.NewAuditor(audit.AuditorOptions{Workers: 2})
	rl := openAuditWAL(t, dir)
	if err := rl.Replay(0, g.ReplayWALRecord); err != nil {
		t.Fatalf("replay: %v", err)
	}
	g.AttachWAL(rl)
	assertAuditorsEqual(t, aud, g)

	// The recovered auditor keeps serving — and keeps logging.
	before := rl.LastLSN()
	tv, _ := corpus.Get("ComfortTV")
	if _, err := g.Apply(audit.Batch{Removes: []string{"ComfortTV"}, Upserts: []audit.App{{Source: tv.Source}}}); err != nil {
		t.Fatalf("apply after recovery: %v", err)
	}
	if rl.LastLSN() != before+1 {
		t.Fatalf("post-recovery apply appended %d records, want 1", rl.LastLSN()-before)
	}
	rl.Close()
}

// TestAuditorSnapshotRestore round-trips the store through the
// checkpoint section alone and checks the findings feed — including the
// persisted revision history — survives the restart.
func TestAuditorSnapshotRestore(t *testing.T) {
	aud := audit.NewAuditor(audit.AuditorOptions{Workers: 2})
	driveBatches(t, aud)

	var buf bytes.Buffer
	if err := aud.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	g := audit.NewAuditor(audit.AuditorOptions{Workers: 2})
	if err := g.Restore(&buf); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	assertAuditorsEqual(t, aud, g)

	// A client that saw revision 1 before the restart gets a delta, not a
	// Reset: the retained history came through the checkpoint.
	feed := g.FindingsSince(1)
	if feed.Reset {
		t.Fatalf("FindingsSince(1) after restore degraded to Reset; history was not persisted")
	}
	if feed.Rev != aud.Rev() {
		t.Fatalf("feed rev = %d, want %d", feed.Rev, aud.Rev())
	}

	// Both stores evolve identically from here.
	cd, _ := corpus.Get("ColdDefender")
	r1, err := aud.Apply(audit.Batch{Removes: []string{"NightCare"}, Upserts: []audit.App{{Source: cd.Source}}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g.Apply(audit.Batch{Removes: []string{"NightCare"}, Upserts: []audit.App{{Source: cd.Source}}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rev != r2.Rev {
		t.Fatalf("post-restore revisions diverged: %d vs %d", r2.Rev, r1.Rev)
	}
	if !bytes.Equal(marshal(t, findingThreats(r1.Added)), marshal(t, findingThreats(r2.Added))) ||
		!bytes.Equal(marshal(t, findingThreats(r1.Resolved)), marshal(t, findingThreats(r2.Resolved))) {
		t.Fatalf("post-restore delta diverged")
	}
	assertAuditorsEqual(t, aud, g)

	// Restore refuses a live store.
	if err := g.Restore(bytes.NewReader(nil)); err == nil {
		t.Fatal("Restore into a non-empty auditor succeeded")
	}
}

// TestAuditorCheckpointPlusReplay is the full recovery path: a
// checkpoint taken mid-stream plus the log replayed on top must equal
// the final state — records at or below the persisted watermark are
// skipped, records above it apply exactly once.
func TestAuditorCheckpointPlusReplay(t *testing.T) {
	dir := t.TempDir()
	aud := audit.NewAuditor(audit.AuditorOptions{Workers: 2})
	l := openAuditWAL(t, dir)
	aud.AttachWAL(l)
	src := func(name string) string {
		app, _ := corpus.Get(name)
		return app.Source
	}

	// Phase 1: some batches, then the checkpoint.
	if _, err := aud.Apply(audit.Batch{Upserts: []audit.App{{Source: src("ComfortTV")}, {Source: src("ColdDefender")}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := aud.Apply(audit.Batch{Upserts: []audit.App{{Source: src("CatchLiveShow")}}}); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := aud.Snapshot(&ckpt); err != nil {
		t.Fatal(err)
	}

	// Phase 2: more batches after the checkpoint — replay must apply
	// exactly these on top of the restore.
	if _, err := aud.Apply(audit.Batch{Removes: []string{"ColdDefender"}, Upserts: []audit.App{{Source: src("NightCare")}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := aud.Apply(audit.Batch{Upserts: []audit.App{{Source: src("BurglarFinder")}}}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	g := audit.NewAuditor(audit.AuditorOptions{Workers: 2})
	if err := g.Restore(&ckpt); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if g.WALWatermark() == 0 {
		t.Fatal("restored watermark is 0; checkpoint lost the WAL position")
	}
	rl := openAuditWAL(t, dir)
	defer rl.Close()
	if err := rl.Replay(0, g.ReplayWALRecord); err != nil {
		t.Fatalf("replay: %v", err)
	}
	g.AttachWAL(rl)
	assertAuditorsEqual(t, aud, g)
}
