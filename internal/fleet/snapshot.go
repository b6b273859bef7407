// Persistent home state: SnapshotHomes serializes every home — installed
// apps with their configurations, the append-only threat log, the active
// ledger, accepted threats and the per-home WAL watermark — through the
// shared snapcodec framing; RestoreHomes rebuilds the homes in a fresh
// fleet. Together with the extraction/verdict cache sections and the WAL
// a checkpoint restore plus a log replay reproduces the exact
// acknowledged state.
//
// The homes layout — a meta record, the app table, then one record per
// home — has one writer (writeHomes) and one reader (readHomes), shared
// by the checkpoint's homes section and the single-home migration blob
// (migrate.go); only the magic and the meta's tombstones differ.
//
// Extraction results are deduplicated by rule-set pointer identity: homes
// sharing a catalog share *symexec.Result values through the extraction
// cache, so a hot app is serialized once into an app table and homes
// reference it by index. On restore each home gets its own InstalledApp
// (the compiled fields are unsynchronized writes) around the shared
// table entry; the fleet-wide compile cache deduplicates the compilation
// work just as it does for live installs.

package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"homeguard/internal/detect"
	"homeguard/internal/extractcache"
	"homeguard/internal/rule"
	"homeguard/internal/snapcodec"
	"homeguard/internal/symexec"
)

// Snapshot format identity for the fleet-homes section.
const (
	homesSnapshotMagic   = "HGFLSNP\x00"
	homesSnapshotVersion = 1
)

type homesMetaJSON struct {
	Apps  int `json:"apps"`  // app-table records following the meta record
	Homes int `json:"homes"` // home records following the app table
	// Tombstones maps removed (migrated-away) home IDs to the LSN of
	// their removal record, so replay after this checkpoint never lets an
	// older install record resurrect a removed home. Absent in snapshots
	// from fleets that never migrated (and in pre-migration snapshots —
	// the field rides format v1 compatibly).
	Tombstones map[string]uint64 `json:"tombstones,omitempty"`
}

type homeAppJSON struct {
	// Table is the app's index into the snapshot's app table.
	Table  int             `json:"t"`
	Config json.RawMessage `json:"config,omitempty"`
}

type ledgerJSON struct {
	A       string          `json:"a"`
	B       string          `json:"b"`
	Threats json.RawMessage `json:"threats"`
}

type homeSnapJSON struct {
	ID       string          `json:"id"`
	WalLSN   uint64          `json:"walLSN,omitempty"`
	Apps     []homeAppJSON   `json:"apps,omitempty"`
	Threats  json.RawMessage `json:"threats,omitempty"`
	Ledger   []ledgerJSON    `json:"ledger,omitempty"`
	Accepted json.RawMessage `json:"accepted,omitempty"`
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

	tableIdx := map[*rule.RuleSet]int{}
	var table [][]byte
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
// app's extraction result into the shared app table. It returns a nil
// record (no error) for a home that was detached after the caller
// collected its pointer — a removed home must not reappear in a
// checkpoint.
func (h *home) snapshotLocked(tableIdx map[*rule.RuleSet]int, table *[][]byte) ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.migrated {
		return nil, nil
	}
	return h.encodeUnderLock(tableIdx, table, h.walLSN)
}

// encodeUnderLock serializes the home's durable state with the given
// WAL watermark. Callers hold h.mu. Export paths pass watermark 0: the
// importing fleet's log assigns the adopted home a fresh LSN story.
func (h *home) encodeUnderLock(tableIdx map[*rule.RuleSet]int, table *[][]byte, walLSN uint64) ([]byte, error) {
	hs := homeSnapJSON{ID: h.id, WalLSN: walLSN}
	for _, a := range h.det.Apps() {
		idx, ok := tableIdx[a.Rules]
		if !ok {
			// The synthetic Result carries exactly what detection needs:
			// the app metadata and its rules. Warnings and path counts are
			// extraction diagnostics, reported at install time and gone.
			rec, err := extractcache.MarshalResult(&symexec.Result{App: a.Info, Rules: a.Rules})
			if err != nil {
				return nil, fmt.Errorf("app %q: %w", a.Info.Name, err)
			}
			idx = len(*table)
			*table = append(*table, rec)
			tableIdx[a.Rules] = idx
		}
		cb, err := detect.MarshalConfig(a.Config)
		if err != nil {
			return nil, fmt.Errorf("app %q config: %w", a.Info.Name, err)
		}
		hs.Apps = append(hs.Apps, homeAppJSON{Table: idx, Config: cb})
	}
	var err error
	if hs.Threats, err = detect.MarshalThreats(h.threats); err != nil {
		return nil, fmt.Errorf("threat log: %w", err)
	}
	for _, e := range h.ledger {
		tb, err := detect.MarshalThreats(e.threats)
		if err != nil {
			return nil, fmt.Errorf("ledger pair (%s,%s): %w", e.a, e.b, err)
		}
		hs.Ledger = append(hs.Ledger, ledgerJSON{A: e.a, B: e.b, Threats: tb})
	}
	if hs.Accepted, err = detect.MarshalThreats(h.det.Accepted()); err != nil {
		return nil, fmt.Errorf("accepted: %w", err)
	}
	return json.Marshal(hs)
}

// writeHomes writes one section in the homes layout shared by the
// checkpoint's homes section and the single-home export: the meta
// record (with the app and home counts filled in), the app table, then
// one record per home.
func writeHomes(w io.Writer, magic string, version uint32, meta homesMetaJSON, table, homes [][]byte) error {
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
	for _, rec := range table {
		sw.Record(rec)
	}
	for _, rec := range homes {
		sw.Record(rec)
	}
	return sw.Close()
}

// readHomes reads one homes-layout section written by writeHomes,
// calling home once per home record with the decoded app table, so a
// caller holds one decoded home at a time. The declared counts are
// checked against the records that actually arrive and never size an
// allocation: a negative count, or a section that ends early, fails
// with snapcodec.ErrCorrupt.
func readHomes(r io.Reader, magic string, version uint32, home func(*homeSnapJSON, []*symexec.Result) error) (homesMetaJSON, error) {
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
	var table []*symexec.Result
	for i := 0; i < meta.Apps; i++ {
		rec, err := next()
		if err != nil {
			return meta, fmt.Errorf("app table entry %d: %w", i, err)
		}
		res, err := extractcache.UnmarshalResult(rec)
		if err != nil {
			return meta, fmt.Errorf("app table entry %d: %w", i, err)
		}
		if res.Rules == nil {
			return meta, fmt.Errorf("%w: app table entry %d has no rule set", snapcodec.ErrCorrupt, i)
		}
		table = append(table, res)
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
// returning the number of homes restored. Apps are re-registered through
// detect.RestoreInstalled — bookkeeping only, no re-detection: the
// threats the original installs produced are restored verbatim, so
// recovery time is deserialization plus compilation (deduplicated
// fleet-wide), not a re-run of every solver call since the beginning of
// time. Restoring into a fleet that already has one of the snapshot's
// homes populated is an error (restore is a boot-time operation).
func (f *Fleet) RestoreHomes(r io.Reader) (int, error) {
	meta, err := readHomes(r, homesSnapshotMagic, homesSnapshotVersion, func(hs *homeSnapJSON, table []*symexec.Result) error {
		st, err := decodeHome(hs, table)
		if err != nil {
			return err
		}
		h := f.homeFor(hs.ID)
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.adopt(st)
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

// homeState is one home's durable state, decoded and validated but not
// yet attached to any home: a corrupt record fails before the fleet
// gains a home for it.
type homeState struct {
	apps     []*detect.InstalledApp
	threats  []detect.Threat
	ledger   []ledgerEntry
	accepted []detect.Threat
	walLSN   uint64
}

// decodeHome validates one home record against the section's app table.
func decodeHome(hs *homeSnapJSON, table []*symexec.Result) (*homeState, error) {
	st := &homeState{walLSN: hs.WalLSN}
	names := map[string]bool{}
	for _, ha := range hs.Apps {
		if ha.Table < 0 || ha.Table >= len(table) {
			return nil, fmt.Errorf("%w: home %q: app table index %d of %d", snapcodec.ErrCorrupt, hs.ID, ha.Table, len(table))
		}
		res := table[ha.Table]
		if names[res.App.Name] {
			return nil, fmt.Errorf("%w: home %q lists app %q twice", snapcodec.ErrCorrupt, hs.ID, res.App.Name)
		}
		names[res.App.Name] = true
		cfg, err := detect.UnmarshalConfig(ha.Config)
		if err != nil {
			return nil, fmt.Errorf("%w: home %q config: %w", snapcodec.ErrCorrupt, hs.ID, err)
		}
		st.apps = append(st.apps, detect.NewInstalledApp(res, cfg))
	}
	var err error
	if st.threats, err = detect.UnmarshalThreats(hs.Threats); err != nil {
		return nil, fmt.Errorf("%w: home %q threat log: %w", snapcodec.ErrCorrupt, hs.ID, err)
	}
	for _, le := range hs.Ledger {
		ts, err := detect.UnmarshalThreats(le.Threats)
		if err != nil {
			return nil, fmt.Errorf("%w: home %q ledger: %w", snapcodec.ErrCorrupt, hs.ID, err)
		}
		st.ledger = append(st.ledger, ledgerEntry{a: le.A, b: le.B, threats: ts})
	}
	if len(hs.Accepted) > 0 {
		if st.accepted, err = detect.UnmarshalThreats(hs.Accepted); err != nil {
			return nil, fmt.Errorf("%w: home %q accepted: %w", snapcodec.ErrCorrupt, hs.ID, err)
		}
	}
	return st, nil
}

// adopt attaches decoded state to h, which must hold no state yet (else
// ErrHomeExists, changing nothing). Callers hold h.mu.
func (h *home) adopt(st *homeState) error {
	if len(h.det.Apps()) > 0 || len(h.threats) > 0 {
		return fmt.Errorf("%w: %q", ErrHomeExists, h.id)
	}
	for _, a := range st.apps {
		h.det.RestoreInstalled(a)
	}
	for _, t := range st.accepted {
		h.det.Accept(t)
	}
	h.threats, h.ledger, h.walLSN = st.threats, st.ledger, st.walLSN
	h.detSeen = detectorTotalsOf(h.det.Stats())
	return nil
}
