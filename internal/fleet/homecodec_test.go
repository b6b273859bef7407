package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"runtime"
	"testing"

	"homeguard/internal/detect"
	"homeguard/internal/extractcache"
	"homeguard/internal/snapcodec"
	"homeguard/internal/wal"
)

// pinnedFleet builds the fixed fleet whose homes-layout bytes are
// pinned: two Fig. 3 homes (ComfortTV + ColdDefender) sharing one app
// table, one accepted threat and one reconfigure in "fig3", and a third
// home migrated away so the homes section carries a tombstone.
func pinnedFleet(tb testing.TB) *Fleet {
	tb.Helper()
	ctx := context.Background()
	f := New(Options{})
	l, err := wal.Open(wal.Options{Dir: tb.TempDir(), Fsync: wal.FsyncOff})
	if err != nil {
		tb.Fatalf("wal.Open: %v", err)
	}
	tb.Cleanup(func() { l.Close() })
	f.AttachWAL(l)
	for _, home := range []string{"fig3", "fig3-b", "moved"} {
		for _, app := range []string{"ComfortTV", "ColdDefender"} {
			if _, err := f.Install(ctx, home, mustSource(tb, app), nil); err != nil {
				tb.Fatalf("install %s into %s: %v", app, home, err)
			}
		}
	}
	if err := f.AcceptByIndex("fig3", 0); err != nil {
		tb.Fatalf("accept: %v", err)
	}
	cfg := detect.NewConfig()
	cfg.Devices["tv1"] = "tv-42"
	if _, err := f.Reconfigure(ctx, "fig3", "ComfortTV", cfg); err != nil {
		tb.Fatalf("reconfigure: %v", err)
	}
	if _, _, err := f.DetachHome("moved"); err != nil {
		tb.Fatalf("detach: %v", err)
	}
	return f
}

// TestHomesLayoutBytesPinned pins the SHA-256 of the ExportHome blob and
// the SnapshotHomes section for pinnedFleet: the homes-layout codec may
// be restructured, but not one byte it writes may change without a
// version bump.
func TestHomesLayoutBytesPinned(t *testing.T) {
	const (
		wantExport   = "59ef5936f9b9041d7d89bb07367a82cf6a83f5873aa006c2bd2c8c16e365fb61"
		wantSnapshot = "7c2984747cdca18ad388ff0de2bedfc0cd5578cd991228f3b1509c4e8fd91d2e"
	)
	f := pinnedFleet(t)
	blob, _, err := f.ExportHome("fig3")
	if err != nil {
		t.Fatalf("ExportHome: %v", err)
	}
	var snap bytes.Buffer
	if _, err := f.SnapshotHomes(&snap); err != nil {
		t.Fatalf("SnapshotHomes: %v", err)
	}
	digest := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
	if got := digest(blob); got != wantExport {
		t.Errorf("ExportHome blob sha256 = %s, want %s", got, wantExport)
	}
	if got := digest(snap.Bytes()); got != wantSnapshot {
		t.Errorf("SnapshotHomes section sha256 = %s, want %s", got, wantSnapshot)
	}
}

// craftSection seals raw records into one homes-layout section, so a
// test can hand the reader any meta, table and home records it likes.
func craftSection(magic string, version uint32, recs ...string) []byte {
	var buf bytes.Buffer
	sw, _ := snapcodec.NewWriter(&buf, magic, version)
	for _, rec := range recs {
		sw.Record([]byte(rec))
	}
	sw.Close()
	return buf.Bytes()
}

// TestHomesLayoutRejectsDeclaredCounts: the counts in the meta record
// are untrusted input. A negative count, or one far beyond the records
// that follow, fails with ErrCorrupt on both readers — no panic, no
// allocation sized from the declaration, and no home left behind.
func TestHomesLayoutRejectsDeclaredCounts(t *testing.T) {
	for _, meta := range []string{`{"apps":-1,"homes":1}`, `{"apps":1073741824,"homes":1}`, `{"apps":0,"homes":-1}`} {
		f := New(Options{})
		if _, err := f.ImportHome("fig3", craftSection(homeExportMagic, homeExportVersion, meta)); !errors.Is(err, snapcodec.ErrCorrupt) {
			t.Errorf("ImportHome with meta %s: %v, want ErrCorrupt", meta, err)
		}
		if _, err := f.RestoreHomes(bytes.NewReader(craftSection(homesSnapshotMagic, homesSnapshotVersion, meta))); !errors.Is(err, snapcodec.ErrCorrupt) {
			t.Errorf("RestoreHomes with meta %s: %v, want ErrCorrupt", meta, err)
		}
		if n := f.NumHomes(); n != 0 {
			t.Errorf("meta %s left %d homes behind", meta, n)
		}
	}
}

// installX is a home record whose one op installs app-table entry 0.
const installX = `{"id":"fig3","ops":[{"kind":1,"config":null}]}`

// tableEntry is an app-table record holding payload as the entry JSON
// under the extraction key of the source "X".
func tableEntry(payload string) string {
	k := extractcache.KeyOf("X", "")
	return string(k[:]) + payload
}

// badIndexExport is a single-home export whose home record installs
// app-table index 5 of an empty table.
func badIndexExport() []byte {
	return craftSection(homeExportMagic, homeExportVersion,
		`{"apps":0,"homes":1}`, `{"id":"fig3","ops":[{"kind":1,"t":5,"config":null}]}`)
}

// nullRuleExport is a single-home export whose app's rule set holds a
// null rule (a crasher: detection compiled the rule and dereferenced
// nil under the home lock).
func nullRuleExport() []byte {
	return craftSection(homeExportMagic, homeExportVersion, `{"apps":1,"homes":1}`,
		tableEntry(`{"hasResult":true,"name":"X","rules":{"app":"X","rules":[null]}}`), installX)
}

// TestImportHomeFailureCreatesNoHome: a blob that fails validation, or
// whose ops fail partway through their replay, must leave no trace — no
// empty home in the counts, the ID list or the next checkpoint.
func TestImportHomeFailureCreatesNoHome(t *testing.T) {
	app := tableEntry(`{"hasResult":true,"name":"X","rules":{"app":"X","rules":[]}}`)
	withOps := func(ops string) []byte {
		return craftSection(homeExportMagic, homeExportVersion, `{"apps":1,"homes":1}`,
			app, `{"id":"fig3","ops":[{"kind":1,"config":null},`+ops+`]}`)
	}
	for name, blob := range map[string][]byte{
		"bad table index": badIndexExport(),
		"null rule":       nullRuleExport(),
		"no rule set": craftSection(homeExportMagic, homeExportVersion, `{"apps":1,"homes":1}`,
			tableEntry(`{"hasResult":true,"name":"X"}`), installX),
		"app installed twice":          withOps(`{"kind":1,"config":null}`),
		"reconfigure of a missing app": withOps(`{"kind":2,"app":"Y","config":null}`),
		"accept past the log":          withOps(`{"kind":3,"indices":[0]}`),
		"bad op config":                withOps(`{"kind":2,"app":"X","config":[]}`),
		"unknown op kind":              withOps(`{"kind":5}`),
	} {
		f := New(Options{})
		if _, err := f.ImportHome("fig3", blob); !errors.Is(err, snapcodec.ErrCorrupt) {
			t.Errorf("%s: import: %v, want ErrCorrupt", name, err)
		}
		if n, m, ids := f.NumHomes(), f.Metrics().Homes, f.HomeIDs(); n != 0 || m != 0 || len(ids) != 0 {
			t.Errorf("%s: failed import left homes behind: NumHomes %d, Metrics().Homes %d, HomeIDs %v", name, n, m, ids)
		}
	}
}

// TestHomesTableRejectsNonResults: an app-table entry must hold an
// extraction result under a whole key. An entry with a cached error,
// with no result, or shorter than a key fails ErrCorrupt on both
// readers and leaves no home.
func TestHomesTableRejectsNonResults(t *testing.T) {
	for name, entry := range map[string]string{
		"no result":    tableEntry(`{}`),
		"cached error": tableEntry(`{"err":"parse error","hasResult":true,"name":"X","rules":{"app":"X","rules":[]}}`),
		"short key":    `{}`,
	} {
		f := New(Options{})
		if _, err := f.ImportHome("fig3", craftSection(homeExportMagic, homeExportVersion, `{"apps":1,"homes":1}`, entry, installX)); !errors.Is(err, snapcodec.ErrCorrupt) {
			t.Errorf("%s: import: %v, want ErrCorrupt", name, err)
		}
		if _, err := f.RestoreHomes(bytes.NewReader(craftSection(homesSnapshotMagic, homesSnapshotVersion, `{"apps":1,"homes":1}`, entry, installX))); !errors.Is(err, snapcodec.ErrCorrupt) {
			t.Errorf("%s: restore: %v, want ErrCorrupt", name, err)
		}
		if n := f.NumHomes(); n != 0 {
			t.Errorf("%s: rejected table left %d homes", name, n)
		}
	}
}

// TestImportHomeMislabelledKey: an export blob carries no sources, so
// it cannot file a result under a key. A blob whose one entry holds an
// app "Evil" under the extraction key of a real source must leave that
// key's extraction alone — after the import, and after a checkpoint of
// the importing fleet is restored — whether the importer has the key
// cached, has not seen it, or caches an error for it.
func TestImportHomeMislabelledKey(t *testing.T) {
	real, bad := mustSource(t, "ComfortTV"), "definition(name: broken"
	for name, tc := range map[string]struct {
		src     string
		warm    bool   // extract src before the import
		install string // app name the imported home installs
	}{
		"cached":       {real, true, "ComfortTV"},
		"not cached":   {real, false, "Evil"},
		"cached error": {bad, true, "Evil"},
	} {
		k := extractcache.KeyOf(tc.src, "")
		blob := craftSection(homeExportMagic, homeExportVersion, `{"apps":1,"homes":1}`,
			string(k[:])+`{"hasResult":true,"name":"Evil","rules":{"app":"Evil","rules":[]}}`, installX)
		f := New(Options{})
		if tc.warm {
			f.Cache().Extract(tc.src, "")
		}
		if _, err := f.ImportHome("fig3", blob); err != nil {
			t.Fatalf("%s: import: %v", name, err)
		}
		if got := installedResults(t, f, "fig3"); len(got) != 1 || got[0].App.Name != tc.install {
			t.Errorf("%s: imported home installs %v, want %s", name, got, tc.install)
		}
		// A live install in a home sorted after fig3 makes the
		// checkpoint meet the imported entry first.
		if tc.src == real {
			if _, err := f.Install(context.Background(), "h2", real, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, g := range []*Fleet{f, restoreCopy(t, f, Options{})} {
			res, err := g.Cache().Extract(tc.src, "")
			if tc.src == bad {
				if err == nil {
					t.Errorf("%s: the unparsable source now extracts to %s", name, res.App.Name)
				}
				continue
			}
			if err != nil || res.App.Name != "ComfortTV" {
				t.Errorf("%s: Extract of the ComfortTV source gives %v, %v", name, res, err)
			}
		}
	}
}

// claimExport is a 16-byte export blob: the section header, then a
// record length claiming snapcodec.MaxRecordBytes and no record bytes.
func claimExport() []byte {
	raw := binary.BigEndian.AppendUint32([]byte(homeExportMagic), homeExportVersion)
	return binary.BigEndian.AppendUint32(raw, snapcodec.MaxRecordBytes)
}

// TestImportHomeClaimAllocation: an AdoptHome blob's record lengths are
// untrusted, so a 16-byte blob claiming a 64 MiB record fails ErrCorrupt
// without allocating the claim.
func TestImportHomeClaimAllocation(t *testing.T) {
	f := New(Options{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := f.ImportHome("fig3", claimExport())
	runtime.ReadMemStats(&after)
	if !errors.Is(err, snapcodec.ErrCorrupt) {
		t.Fatalf("import: %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("ImportHome of a %d-byte blob allocated %d bytes, want at most 1 MiB", len(claimExport()), got)
	}
}

// TestReplayFailureCreatesNoHome: a WAL record that fails replay — an
// install whose source does not parse, an adopt whose blob is corrupt,
// an update of a home that does not exist — leaves no home behind,
// just as a rejected ImportHome does.
func TestReplayFailureCreatesNoHome(t *testing.T) {
	for name, rec := range map[string]struct {
		kind    byte
		payload string
	}{
		"unparsable source": {wal.OpFleetInstall, `{"home":"ghost","source":"definition(","config":null}`},
		"bad config":        {wal.OpFleetInstall, `{"home":"ghost","source":"","config":[]}`},
		"corrupt blob":      {wal.OpFleetAdoptHome, `{"home":"fig3","snapshot":"` + base64.StdEncoding.EncodeToString(badIndexExport()) + `"}`},
		"reconfigure":       {wal.OpFleetReconfigure, `{"home":"ghost","app":"ComfortTV","config":null}`},
		"accept":            {wal.OpFleetAccept, `{"home":"ghost","indices":[0]}`},
	} {
		f := New(Options{})
		if err := f.ReplayWALRecord(1, rec.kind, []byte(rec.payload)); err == nil {
			t.Errorf("%s: replay succeeded", name)
		}
		if n, m, ids := f.NumHomes(), f.Metrics().Homes, f.HomeIDs(); n != 0 || m != 0 || len(ids) != 0 {
			t.Errorf("%s: failed replay left homes behind: NumHomes %d, Metrics().Homes %d, HomeIDs %v", name, n, m, ids)
		}
	}
}

// FuzzImportHome feeds arbitrary bytes to ImportHome on a fresh fleet:
// it never panics, a rejected blob leaves no home, and an accepted one
// survives a second export/import hop with the same threat log.
func FuzzImportHome(f *testing.F) {
	blob, _, err := pinnedFleet(f).ExportHome("fig3")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		blob,
		craftSection(homeExportMagic, homeExportVersion, `{"apps":-1,"homes":1}`),
		badIndexExport(),
		nullRuleExport(),
		blob[:len(blob)-1],
		blob[:len(blob)/2],
		blob[:12],
		claimExport(),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkImport(t, data)
		// Random bytes almost never carry a valid SHA-256 trailer, so
		// also try the input with its trailer recomputed: that reaches
		// the record decoders behind the checksum.
		if len(data) > sha256.Size {
			body := data[:len(data)-sha256.Size]
			sum := sha256.Sum256(body)
			checkImport(t, append(bytes.Clone(body), sum[:]...))
		}
	})
}

func checkImport(t *testing.T, data []byte) {
	f := New(Options{})
	if _, err := f.ImportHome("fig3", data); err != nil {
		if n := f.NumHomes(); n != 0 {
			t.Fatalf("rejected import (%v) left %d homes", err, n)
		}
		return
	}
	want, err := f.Threats("fig3")
	if err != nil {
		t.Fatalf("threats after import: %v", err)
	}
	again, _, err := f.ExportHome("fig3")
	if err != nil {
		t.Fatalf("re-export: %v", err)
	}
	g := New(Options{})
	if _, err := g.ImportHome("fig3", again); err != nil {
		t.Fatalf("import of the re-export: %v", err)
	}
	got, _ := g.Threats("fig3")
	wb, _ := detect.MarshalThreats(want)
	gb, _ := detect.MarshalThreats(got)
	if !bytes.Equal(wb, gb) {
		t.Fatalf("threat log changed across export/import:\n got %s\nwant %s", gb, wb)
	}
}
