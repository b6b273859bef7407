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
	"strings"
	"testing"

	"homeguard/internal/detect"
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
		wantExport   = "d57932ac0de97f18ac5ee635d5434d7c47f25ae283b391a4c0797aa9b9f0af26"
		wantSnapshot = "967b805f992ac487daf087c6c51ae62ab6bf49de24f657f5015bfc6b5984ec30"
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

// srcX is the source of an app "X" with no rules.
const srcX = `definition(name: "X")`

// badIndexExport is a single-home export whose home record installs
// app-table index 5 of an empty table.
func badIndexExport() []byte {
	return craftSection(homeExportMagic, homeExportVersion,
		`{"apps":0,"homes":1}`, `{"id":"fig3","ops":[{"kind":1,"t":5,"config":null}]}`)
}

// unparsableExport is a single-home export whose one table source does
// not parse.
func unparsableExport() []byte {
	return craftSection(homeExportMagic, homeExportVersion, `{"apps":1,"homes":1}`, "definition(", installX)
}

// noDefinitionExport is a single-home export whose table source, "{}",
// parses but declares no app.
func noDefinitionExport() []byte {
	return craftSection(homeExportMagic, homeExportVersion, `{"apps":1,"homes":1}`, "{}", installX)
}

// renamedExport is a single-home export whose table source is app "X",
// while the home's ops reconfigure the ComfortTV the record claims.
func renamedExport() []byte {
	return craftSection(homeExportMagic, homeExportVersion, `{"apps":1,"homes":1}`, srcX,
		`{"id":"fig3","ops":[{"kind":1,"config":null},{"kind":2,"app":"ComfortTV","config":null}]}`)
}

// TestImportHomeFailureCreatesNoHome: a blob that fails validation, or
// whose ops fail partway through their replay, must leave no trace — no
// empty home in the counts, the ID list or the next checkpoint.
func TestImportHomeFailureCreatesNoHome(t *testing.T) {
	withOps := func(ops string) []byte {
		return craftSection(homeExportMagic, homeExportVersion, `{"apps":1,"homes":1}`,
			srcX, `{"id":"fig3","ops":[{"kind":1,"config":null},`+ops+`]}`)
	}
	for name, blob := range map[string][]byte{
		"bad table index":              badIndexExport(),
		"unparsable source":            unparsableExport(),
		"source declaring no app":      noDefinitionExport(),
		"renamed app":                  renamedExport(),
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

// TestHomesTableRejectsNonResults: a table source that does not
// extract — it does not lex, does not parse, or is cut short — fails
// ErrCorrupt on both readers and leaves no home.
func TestHomesTableRejectsNonResults(t *testing.T) {
	for name, entry := range map[string]string{
		"lex error":   "\x00\xff",
		"parse error": "definition(",
		"cut short":   mustSource(t, "ComfortTV")[:100],
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

// TestImportHomeMislabelledKey: an export blob carries sources, and
// the importer computes each one's extraction key itself, so a blob
// cannot file a result under another source's key. A blob whose one
// source is an app "Evil" must leave the extraction of a real source
// alone — after the import, and after a checkpoint of the importing
// fleet is restored — whether the importer has that source cached, has
// not seen it, or caches an error for it.
func TestImportHomeMislabelledKey(t *testing.T) {
	real, bad := mustSource(t, "ComfortTV"), "definition(name: broken"
	evil := strings.Replace(real, `name: "ComfortTV"`, `name: "Evil"`, 1)
	if evil == real {
		t.Fatal("the ComfortTV source does not name itself")
	}
	for name, tc := range map[string]struct {
		src  string
		warm bool // extract src before the import
	}{
		"cached":       {real, true},
		"not cached":   {real, false},
		"cached error": {bad, true},
	} {
		blob := craftSection(homeExportMagic, homeExportVersion, `{"apps":1,"homes":1}`, evil, installX)
		f := New(Options{})
		if tc.warm {
			f.Cache().Extract(tc.src, "")
		}
		if _, err := f.ImportHome("fig3", blob); err != nil {
			t.Fatalf("%s: import: %v", name, err)
		}
		if got := installedResults(t, f, "fig3"); len(got) != 1 || got[0].App.Name != "Evil" {
			t.Errorf("%s: imported home installs %v, want Evil", name, got)
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
// survives a second export/import hop with the same threat log. The
// blob's app table holds untrusted Groovy sources, so the fuzzer drives
// the parser and symexec through the reader as well.
func FuzzImportHome(f *testing.F) {
	blob, _, err := pinnedFleet(f).ExportHome("fig3")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		blob,
		craftSection(homeExportMagic, homeExportVersion, `{"apps":-1,"homes":1}`),
		badIndexExport(),
		unparsableExport(),
		noDefinitionExport(),
		blob[:len(blob)-1],
		blob[:len(blob)/2],
		blob[:12],
		claimExport(),
		renamedExport(),
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
