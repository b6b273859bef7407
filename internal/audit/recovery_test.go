package audit_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"

	"homeguard/internal/audit"
	"homeguard/internal/corpus"
	"homeguard/internal/detect"
	"homeguard/internal/extractcache"
	"homeguard/internal/snapcodec"
	"homeguard/internal/symexec"
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

// lockSource is a one-rule lock app: when the sensor lock reports state,
// command the actuator lock. Every version is a distinct source, and the
// definition name is shared, so a store tells its apps apart only by
// their name overrides.
func lockSource(version int, state, cmd string) string {
	return fmt.Sprintf(`definition(name: "LockApp", namespace: "test", author: "test",
    description: "Synthetic lock automation, version %d.")
input "sensor1", "capability.lock", title: "Lock to watch"
input "actuator1", "capability.lock", title: "Lock to command"
def installed() { subscribe(sensor1, "lock", onLock) }
def updated() { unsubscribe(); subscribe(sensor1, "lock", onLock) }
def onLock(evt) {
    if (evt.value == "%s") {
        actuator1.%s()
    }
}
`, version, state, cmd)
}

// lockApp is store app i at version v, submitted as store churn submits
// it: under the name override SynthLock%05d, bound to two of three locks
// drawn from a generator seeded by (i, v).
func lockApp(i, v int) audit.App {
	rng := rand.New(rand.NewSource(int64(i*1000 + v)))
	state, cmd := "locked", "unlock"
	if rng.Intn(2) == 0 {
		state, cmd = "unlocked", "lock"
	}
	cfg := detect.NewConfig()
	cfg.Devices["sensor1"] = fmt.Sprintf("lock-%d", rng.Intn(3))
	cfg.Devices["actuator1"] = fmt.Sprintf("lock-%d", rng.Intn(3))
	return audit.App{Name: fmt.Sprintf("SynthLock%05d", i), Source: lockSource(v, state, cmd), Config: cfg}
}

// TestAuditorSourceFormRestore: a store of name-overridden apps restored
// from a checkpoint plus a WAL tail extracts each persisted source under
// the key the live Apply used. It serves what the live store serves and
// what a from-scratch Apply of the final store finds, and the restore
// counts no lookup, so no miss, in the shared extraction cache.
func TestAuditorSourceFormRestore(t *testing.T) {
	dir := t.TempDir()
	aud := audit.NewAuditor(audit.AuditorOptions{Workers: 2, Extract: extractcache.New()})
	l := openAuditWAL(t, dir)
	aud.AttachWAL(l)
	latest := map[string]audit.App{}
	apply := func(removes []string, ups ...audit.App) {
		t.Helper()
		rev, err := aud.Apply(audit.Batch{Removes: removes, Upserts: ups})
		if err != nil || len(rev.Errors) > 0 {
			t.Fatalf("apply: %v %v", err, rev.Errors)
		}
		for _, name := range removes {
			delete(latest, name)
		}
		for _, a := range ups {
			latest[a.Name] = a
		}
	}
	var initial []audit.App
	for i := 0; i < 12; i++ {
		initial = append(initial, lockApp(i, 0))
	}
	apply(nil, initial...)
	apply([]string{"SynthLock00004"}, lockApp(1, 1), lockApp(2, 1), lockApp(7, 1))
	var ckpt bytes.Buffer
	if err := aud.Snapshot(&ckpt); err != nil {
		t.Fatal(err)
	}
	apply(nil, lockApp(2, 2), lockApp(9, 1), lockApp(12, 0), lockApp(4, 3))
	apply([]string{"SynthLock00000"}, lockApp(13, 0))
	l.Close()

	cache := extractcache.New()
	g := audit.NewAuditor(audit.AuditorOptions{Workers: 2, Extract: cache})
	if err := g.Restore(&ckpt); err != nil {
		t.Fatalf("restore: %v", err)
	}
	rl := openAuditWAL(t, dir)
	defer rl.Close()
	if err := rl.Replay(0, g.ReplayWALRecord); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if st := cache.Stats(); st.Lookups != 0 || st.Misses != 0 {
		t.Errorf("restore plus replay counted %d lookups and %d misses, want none", st.Lookups, st.Misses)
	}
	assertAuditorsEqual(t, aud, g)

	var final []audit.App
	for _, name := range g.Apps() {
		final = append(final, latest[name])
	}
	scratch := audit.NewAuditor(audit.AuditorOptions{Workers: 2})
	if _, err := scratch.Apply(audit.Batch{Upserts: final}); err != nil {
		t.Fatal(err)
	}
	want, got := scratch.Findings(), g.Findings()
	if len(want) == 0 {
		t.Fatal("the final store has no findings; the comparison checks nothing")
	}
	for i := range want {
		if i < len(got) && (want[i].App1 != got[i].App1 || want[i].App2 != got[i].App2) {
			t.Fatalf("finding %d pair: got (%s,%s), want (%s,%s)", i, got[i].App1, got[i].App2, want[i].App1, want[i].App2)
		}
	}
	if !bytes.Equal(marshal(t, findingThreats(want)), marshal(t, findingThreats(got))) {
		t.Fatalf("restored findings differ from a from-scratch Apply: %d vs %d", len(got), len(want))
	}
}

// TestAuditorResOnlyHasNoPersistedForm: with a WAL attached, an upsert
// given only a pre-extracted Res fails ErrNoSource and is not logged,
// while the batch's source upserts apply; without a WAL it applies, and
// Snapshot of a store holding it fails, naming the app.
func TestAuditorResOnlyHasNoPersistedForm(t *testing.T) {
	tv, _ := corpus.Get("ComfortTV")
	cd, _ := corpus.Get("ColdDefender")
	res, err := symexec.Extract(cd.Source, "")
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	aud := audit.NewAuditor(audit.AuditorOptions{Workers: 1})
	l := openAuditWAL(t, dir)
	aud.AttachWAL(l)
	rev, err := aud.Apply(audit.Batch{Upserts: []audit.App{{Source: tv.Source}, {Name: "Pre", Res: res}}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rev.Errors["Pre"], audit.ErrNoSource) {
		t.Errorf("Res-only upsert under a WAL: errors %v, want ErrNoSource for Pre", rev.Errors)
	}
	if got := fmt.Sprint(aud.Apps()); got != "[ComfortTV]" {
		t.Errorf("store holds %s, want [ComfortTV]", got)
	}
	l.Close()
	rl := openAuditWAL(t, dir)
	defer rl.Close()
	if err := rl.Replay(0, func(_ uint64, _ byte, payload []byte) error {
		if bytes.Contains(payload, []byte("Pre")) {
			t.Errorf("the log names the Res-only app: %s", payload)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	mem := audit.NewAuditor(audit.AuditorOptions{Workers: 1})
	if rev, err := mem.Apply(audit.Batch{Upserts: []audit.App{{Source: tv.Source}, {Res: res}}}); err != nil || len(rev.Errors) > 0 {
		t.Fatalf("Res-only upsert without a WAL: %v %v", err, rev.Errors)
	}
	err = mem.Snapshot(io.Discard)
	if !errors.Is(err, audit.ErrNoSource) || !strings.Contains(err.Error(), `"ColdDefender"`) {
		t.Errorf("Snapshot of a store holding a Res-only app: %v, want ErrNoSource naming ColdDefender", err)
	}
}

// TestAuditRestoreRejectsV1: a version-1 store section, which held each
// app's encoded extraction result, fails snapcodec.ErrVersion and leaves
// the auditor empty. The fixture is a one-app store as the v1 writer
// produced it.
func TestAuditRestoreRejectsV1(t *testing.T) {
	b, err := os.ReadFile("testdata/audit-v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != "01e1329b690f690a3357286f946cb72d235d611d0b1bb3526b0198dfdd7cda0c" {
		t.Fatal("testdata/audit-v1.bin is not the pinned bytes")
	}
	g := audit.NewAuditor(audit.AuditorOptions{Workers: 1})
	if err := g.Restore(bytes.NewReader(b)); !errors.Is(err, snapcodec.ErrVersion) {
		t.Errorf("Restore of a v1 section: %v, want ErrVersion", err)
	}
	if g.Rev() != 0 || len(g.Apps()) != 0 {
		t.Errorf("rejected section left rev %d, apps %v", g.Rev(), g.Apps())
	}
}
