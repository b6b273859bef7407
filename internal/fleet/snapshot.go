// Persistent home state: SnapshotHomes serializes every home as its op
// history — the installs, reconfigures and accepts that built it, each
// with the resolved config it ran with — plus its WAL watermark, through
// the shared snapcodec framing; RestoreHomes rebuilds each home by
// replaying those ops. A home's threat log, ledger and accepted set are
// a deterministic function of its ops, so they are derived again, never
// stored. Together with the WAL, a checkpoint restore plus a log replay
// reproduces the exact acknowledged state.
//
// The homes layout — a meta record, the app table, then one record per
// home — has one writer (writeHomes) and one reader (readHomes), shared
// by the checkpoint's homes section and the single-home migration blob
// (migrate.go); only the magic and the meta's tombstones differ. Every
// home record, from either, is rebuilt by rebuildHome, which the
// checkpoint restore, ImportHome and the WAL adopt record all run.
//
// The app table holds each installed app once, as its Groovy source;
// install ops reference it by index. An app's rules are a deterministic
// function of its source, so the reader extracts each table source
// again through the fleet's extraction cache (Cache.Warm, which counts
// no lookup): a rebuilt home installs the very *symexec.Result a live
// install of that source gets, and the intern table and verdict cache
// deduplicate as for live installs. A checkpoint section and an export
// blob are read the same way, since a key the reader computes from the
// source cannot be mislabelled; a table source that does not extract
// fails the section with snapcodec.ErrCorrupt. The price is the fleet
// WAL's: an engine upgrade that extracts a source differently changes
// what a restored home holds.

package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"homeguard/internal/detect"
	"homeguard/internal/snapcodec"
	"homeguard/internal/symexec"
	"homeguard/internal/wal"
)

// Snapshot format identity for the fleet-homes section.
const (
	homesSnapshotMagic   = "HGFLSNP\x00"
	homesSnapshotVersion = 4
)

type homesMetaJSON struct {
	Apps  int `json:"apps"`  // app-table records following the meta record
	Homes int `json:"homes"` // home records following the app table
	// Tombstones maps removed (migrated-away) home IDs to the LSN of
	// their removal record, so replay after this checkpoint never lets an
	// older install record resurrect a removed home. Absent in snapshots
	// from fleets that never migrated.
	Tombstones map[string]uint64 `json:"tombstones,omitempty"`
}

// homeSnapJSON is one home record: the home's ops as walOp records
// whose kind is set and whose install ops name an app-table index in
// place of the source.
type homeSnapJSON struct {
	ID     string  `json:"id"`
	WalLSN uint64  `json:"walLSN,omitempty"`
	Ops    []walOp `json:"ops,omitempty"`
}

// appEntry is one app-table entry: the extraction cache's canonical
// copy of the source and its extraction.
type appEntry struct {
	src string
	res *symexec.Result
}

// SnapshotHomes writes every home's durable state to w, returning the
// number of homes written. Each home is serialized under its own lock
// (briefly — one home at a time), so concurrent traffic to other homes
// proceeds; the snapshot is a consistent per-home cut, and the per-home
// WAL watermark lets replay bridge homes captured at different LSNs.
func (f *Fleet) SnapshotHomes(w io.Writer) (int, error) {
	var homes []*home
	for _, s := range f.shards {
		s.mu.RLock()
		for _, h := range s.homes {
			homes = append(homes, h)
		}
		s.mu.RUnlock()
	}
	sort.Slice(homes, func(i, j int) bool { return homes[i].id < homes[j].id })

	tableIdx := map[string]int{}
	var table []string
	var homeRecs [][]byte
	for _, h := range homes {
		rec, err := h.snapshotLocked(tableIdx, &table)
		if err != nil {
			return 0, fmt.Errorf("fleet: snapshot home %s: %w", h.id, err)
		}
		if rec == nil {
			continue // detached concurrently: its removal record owns the story
		}
		homeRecs = append(homeRecs, rec)
	}

	meta := homesMetaJSON{Tombstones: f.tombstoneSnapshot()}
	if err := writeHomes(w, homesSnapshotMagic, homesSnapshotVersion, meta, table, homeRecs); err != nil {
		return 0, fmt.Errorf("fleet: snapshot: %w", err)
	}
	return len(homeRecs), nil
}

// snapshotLocked serializes one home under its lock, interning each
// installed app's source into the shared app table. It returns a nil
// record (no error) for a home that was detached after the caller
// collected its pointer — a removed home must not reappear in a
// checkpoint.
func (h *home) snapshotLocked(tableIdx map[string]int, table *[]string) ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.migrated {
		return nil, nil
	}
	return h.encodeUnderLock(tableIdx, table, h.walLSN)
}

// encodeUnderLock serializes the home's ops with the given WAL
// watermark. Callers hold h.mu. Export paths pass watermark 0: the
// importing fleet's log assigns the adopted home a fresh LSN story.
func (h *home) encodeUnderLock(tableIdx map[string]int, table *[]string, walLSN uint64) ([]byte, error) {
	hs := homeSnapJSON{ID: h.id, WalLSN: walLSN, Ops: make([]walOp, len(h.ops))}
	for i, op := range h.ops {
		rec := &hs.Ops[i]
		rec.Kind, rec.App, rec.Indices = op.kind, op.app, op.indices
		if op.kind == wal.OpFleetAccept {
			continue
		}
		if op.kind == wal.OpFleetInstall {
			idx, ok := tableIdx[op.src]
			if !ok {
				idx = len(*table)
				*table = append(*table, op.src)
				tableIdx[op.src] = idx
			}
			rec.Table = idx
		}
		var err error
		if rec.Config, err = detect.MarshalConfig(op.cfg); err != nil {
			return nil, fmt.Errorf("op %d config: %w", i, err)
		}
	}
	return json.Marshal(hs)
}

// writeHomes writes one section in the homes layout shared by the
// checkpoint's homes section and the single-home export: the meta
// record (with the app and home counts filled in), the app table, then
// one record per home.
func writeHomes(w io.Writer, magic string, version uint32, meta homesMetaJSON, table []string, homes [][]byte) error {
	sw, err := snapcodec.NewWriter(w, magic, version)
	if err != nil {
		return err
	}
	meta.Apps, meta.Homes = len(table), len(homes)
	rec, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	// Writer errors are sticky: Close reports the first failed Record.
	sw.Record(rec)
	for _, src := range table {
		sw.Record([]byte(src))
	}
	for _, rec := range homes {
		sw.Record(rec)
	}
	return sw.Close()
}

// readHomes reads one homes-layout section written by writeHomes,
// extracting each table source through the cache (see the file comment)
// and calling home once per home record with the app table, so a caller
// holds one decoded home at a time. The declared counts never size an
// allocation: a negative count, a section that ends early, or a table
// source that does not extract fails with snapcodec.ErrCorrupt.
func (f *Fleet) readHomes(r io.Reader, magic string, version uint32, home func(*homeSnapJSON, []appEntry) error) (homesMetaJSON, error) {
	var meta homesMetaJSON
	sr, err := snapcodec.NewReader(r, magic, version)
	if err != nil {
		return meta, err
	}
	rec, err := sr.Next()
	if err != nil {
		return meta, fmt.Errorf("meta: %w", err)
	}
	if err := json.Unmarshal(rec, &meta); err != nil {
		return meta, fmt.Errorf("%w: meta: %v", snapcodec.ErrCorrupt, err)
	}
	if meta.Apps < 0 || meta.Homes < 0 {
		return meta, fmt.Errorf("%w: meta declares %d apps and %d homes", snapcodec.ErrCorrupt, meta.Apps, meta.Homes)
	}
	next := func() ([]byte, error) {
		rec, err := sr.Next()
		if err == io.EOF {
			err = fmt.Errorf("%w: section ends before its declared %d apps and %d homes", snapcodec.ErrCorrupt, meta.Apps, meta.Homes)
		}
		return rec, err
	}
	var table []appEntry
	for i := 0; i < meta.Apps; i++ {
		rec, err := next()
		if err != nil {
			return meta, fmt.Errorf("app table entry %d: %w", i, err)
		}
		src, res, err := f.cache.Warm(string(rec), "")
		if err != nil {
			return meta, fmt.Errorf("%w: app table entry %d: %v", snapcodec.ErrCorrupt, i, err)
		}
		table = append(table, appEntry{src, res})
	}
	for i := 0; i < meta.Homes; i++ {
		rec, err := next()
		if err != nil {
			return meta, fmt.Errorf("home %d: %w", i, err)
		}
		var hs homeSnapJSON
		if err := json.Unmarshal(rec, &hs); err != nil {
			return meta, fmt.Errorf("%w: home %d: %v", snapcodec.ErrCorrupt, i, err)
		}
		if err := home(&hs, table); err != nil {
			return meta, err
		}
	}
	return meta, sr.End()
}

// RestoreHomes rebuilds homes from a snapshot written by SnapshotHomes,
// returning the number of homes restored. Each home's ops are replayed
// through the live mutations (rebuildHome): the threat log, ledger and
// accepted set are derived again, and each pair verdict is solved once
// into the verdict cache (when the fleet has one) and shared from there.
// Restoring into a fleet that already has one of the snapshot's homes
// populated is an error (restore is a boot-time operation).
func (f *Fleet) RestoreHomes(r io.Reader) (int, error) {
	meta, err := f.readHomes(r, homesSnapshotMagic, homesSnapshotVersion, func(hs *homeSnapJSON, table []appEntry) error {
		src, err := f.rebuildHome(hs, table)
		if err != nil {
			return err
		}
		h := f.homeFor(hs.ID)
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.adopt(src)
	})
	if err != nil {
		return 0, fmt.Errorf("fleet: restore: %w", err)
	}
	f.tombMu.Lock()
	for id, lsn := range meta.Tombstones {
		if lsn > f.tombstones[id] {
			f.tombstones[id] = lsn
		}
	}
	f.tombMu.Unlock()
	return meta.Homes, nil
}

// rebuildHome replays one home record's ops, against its section's app
// table, into a new home outside the shard map, so a record that fails
// at any op leaves the fleet as it was. The ops run through the live
// mutations (install, reconfigure, acceptByIndex) against the table's
// extractions.
func (f *Fleet) rebuildHome(hs *homeSnapJSON, table []appEntry) (*home, error) {
	h := &home{id: hs.ID, det: detect.New(f.opts.Detector), walLSN: hs.WalLSN}
	for i := range hs.Ops {
		if err := h.replayOp(&hs.Ops[i], table); err != nil {
			return nil, fmt.Errorf("%w: home %q op %d: %w", snapcodec.ErrCorrupt, hs.ID, i, err)
		}
	}
	return h, nil
}

// replayOp applies one persisted op to h.
func (h *home) replayOp(op *walOp, table []appEntry) error {
	if op.Kind == wal.OpFleetAccept {
		return h.acceptByIndex(op.Indices)
	}
	cfg, err := detect.UnmarshalConfig(op.Config)
	if err != nil {
		return err
	}
	switch op.Kind {
	case wal.OpFleetInstall:
		if op.Table < 0 || op.Table >= len(table) {
			return fmt.Errorf("app table index %d of %d", op.Table, len(table))
		}
		e := table[op.Table]
		_, err = h.install(nil, e.src, e.res, cfg)
	case wal.OpFleetReconfigure:
		_, err = h.reconfigure(nil, op.App, cfg)
	default:
		err = fmt.Errorf("unknown op kind %d", op.Kind)
	}
	return err
}

// adopt moves the state of src, a home rebuilt outside the shard map,
// into h, which must hold no state yet (else ErrHomeExists, changing
// nothing). Callers hold h.mu.
func (h *home) adopt(src *home) error {
	if len(h.ops) > 0 {
		return fmt.Errorf("%w: %q", ErrHomeExists, h.id)
	}
	h.det, h.log, h.ledger, h.ops, h.walLSN = src.det, src.log, src.ledger, src.ops, src.walLSN
	h.detSeen = detectorTotalsOf(h.det.Stats())
	return nil
}
