// Persistent store-auditor state: Snapshot serializes the audited store
// — apps in install order, each as its persisted form (name override,
// Groovy source and configuration, as the WAL logs it), every pair's
// current verdict, the retained revision history and the WAL watermark —
// through the shared snapcodec framing; Restore rebuilds it in a fresh
// auditor, extracting each source again under the key the live Apply
// used. Persisting the revision history means a restarted store
// daemon keeps serving FindingsSince deltas from each client's last-seen
// revision instead of forcing every feed consumer through a Reset.
//
// What does NOT survive: per-revision Errors maps (failure reports to
// the submitting client, not store state — a restored Revision has a nil
// Errors map) and the index freelist (restore re-adds apps compactly, so
// slot numbers may differ; slots are internal addressing, never exposed).

package audit

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"homeguard/internal/detect"
	"homeguard/internal/snapcodec"
)

// Snapshot format identity for the audit-store section. Version 1 held
// each app's encoded extraction result.
const (
	auditSnapshotMagic   = "HGAUSNP\x00"
	auditSnapshotVersion = 2
)

type auditMetaJSON struct {
	Rev     uint64 `json:"rev"`
	WalLSN  uint64 `json:"walLSN,omitempty"`
	Apps    int    `json:"apps"`    // app records following the meta record
	Pairs   int    `json:"pairs"`   // verdict records following the apps
	History int    `json:"history"` // revision records following the verdicts
}

type auditPairJSON struct {
	A       string          `json:"a"`
	B       string          `json:"b"`
	Threats json.RawMessage `json:"threats"`
}

// findingsJSON carries an ordered finding list: Pairs[i] names the two
// apps of the i-th finding, Threats is the parallel threat list.
type findingsJSON struct {
	Pairs   [][2]string     `json:"pairs,omitempty"`
	Threats json.RawMessage `json:"threats,omitempty"`
}

type revisionJSON struct {
	Rev        uint64       `json:"rev"`
	Added      findingsJSON `json:"added"`
	Resolved   findingsJSON `json:"resolved"`
	Apps       int          `json:"apps"`
	Pairs      int          `json:"pairs"`
	Stats      detect.Stats `json:"stats"`
	DurationNs int64        `json:"durationNs"`
}

func encodeFindings(fs []Finding) (findingsJSON, error) {
	var fj findingsJSON
	ts := make([]detect.Threat, 0, len(fs))
	for _, f := range fs {
		fj.Pairs = append(fj.Pairs, [2]string{f.App1, f.App2})
		ts = append(ts, f.Threat)
	}
	var err error
	fj.Threats, err = detect.MarshalThreats(ts)
	return fj, err
}

func decodeFindings(fj findingsJSON) ([]Finding, error) {
	ts, err := detect.UnmarshalThreats(fj.Threats)
	if err != nil {
		return nil, err
	}
	if len(ts) != len(fj.Pairs) {
		return nil, fmt.Errorf("%w: %d finding pairs but %d threats", snapcodec.ErrCorrupt, len(fj.Pairs), len(ts))
	}
	fs := make([]Finding, len(ts))
	for i := range ts {
		fs[i] = Finding{App1: fj.Pairs[i][0], App2: fj.Pairs[i][1], Threat: ts[i]}
	}
	return fs, nil
}

// Snapshot writes the auditor's durable state to w. It holds the store
// lock for the duration — checkpoints are a background operation racing
// only with Apply, which serializes on the same lock anyway. A store
// holding an app submitted as a Res has no persisted form: Snapshot
// fails with ErrNoSource, naming the app.
func (a *Auditor) Snapshot(w io.Writer) error {
	a.mu.Lock()
	defer a.mu.Unlock()

	sw, err := snapcodec.NewWriter(w, auditSnapshotMagic, auditSnapshotVersion)
	if err != nil {
		return fmt.Errorf("audit: snapshot: %w", err)
	}
	write := func(v any) error {
		rec, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if err := sw.Record(rec); err != nil {
			return fmt.Errorf("audit: snapshot: %w", err)
		}
		return nil
	}

	// Pairs in name order, earlier-installed side first.
	type pair struct{ lo, hi *storeApp }
	var pairs []pair
	for _, st := range a.order {
		for other := range st.verdicts {
			if other.pos >= st.pos {
				pairs = append(pairs, pair{st, other})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].lo.name != pairs[j].lo.name {
			return pairs[i].lo.name < pairs[j].lo.name
		}
		return pairs[i].hi.name < pairs[j].hi.name
	})

	if err := write(auditMetaJSON{
		Rev: a.rev, WalLSN: a.walLSN,
		Apps: len(a.order), Pairs: len(pairs), History: len(a.history),
	}); err != nil {
		return err
	}
	for _, st := range a.order {
		if st.preExtracted {
			return fmt.Errorf("audit: snapshot: app %q: %w", st.name, ErrNoSource)
		}
		aj, err := encodeUpsert(walUpsert{override: st.override, src: st.src, cfg: st.app.Config})
		if err != nil {
			return fmt.Errorf("audit: snapshot: app %q config: %w", st.name, err)
		}
		if err := write(aj); err != nil {
			return err
		}
	}
	for _, p := range pairs {
		tb, err := detect.MarshalThreats(p.lo.verdicts[p.hi])
		if err != nil {
			return fmt.Errorf("audit: snapshot: pair (%s,%s): %w", p.lo.name, p.hi.name, err)
		}
		if err := write(auditPairJSON{A: p.lo.name, B: p.hi.name, Threats: tb}); err != nil {
			return err
		}
	}
	for _, rev := range a.history {
		rj := revisionJSON{
			Rev: rev.Rev, Apps: rev.Apps, Pairs: rev.Pairs,
			Stats: rev.Stats, DurationNs: rev.Duration.Nanoseconds(),
		}
		if rj.Added, err = encodeFindings(rev.Added); err != nil {
			return fmt.Errorf("audit: snapshot: rev %d: %w", rev.Rev, err)
		}
		if rj.Resolved, err = encodeFindings(rev.Resolved); err != nil {
			return fmt.Errorf("audit: snapshot: rev %d: %w", rev.Rev, err)
		}
		if err := write(rj); err != nil {
			return err
		}
	}
	if err := sw.Close(); err != nil {
		return fmt.Errorf("audit: snapshot: %w", err)
	}
	return nil
}

// Restore rebuilds the auditor from a snapshot written by Snapshot.
// Restoring is extraction (through the shared cache's Warm, which counts
// no lookup), compilation and bookkeeping, with no solving: verdicts
// come back verbatim, so recovery cost is independent of how many
// revisions the store has lived through. An app source that does not
// extract fails with snapcodec.ErrCorrupt. Restore into an
// auditor that has already applied a batch is an error (restore is a
// boot-time operation).
func (a *Auditor) Restore(r io.Reader) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.rev != 0 || len(a.order) > 0 {
		return fmt.Errorf("audit: restore: auditor is not empty (rev %d, %d apps)", a.rev, len(a.order))
	}

	sr, err := snapcodec.NewReader(r, auditSnapshotMagic, auditSnapshotVersion)
	if err != nil {
		return fmt.Errorf("audit: restore: %w", err)
	}
	read := func(what string, v any) error {
		rec, err := sr.Next()
		if err == io.EOF {
			err = fmt.Errorf("%w: section ends before its declared records", snapcodec.ErrCorrupt)
		}
		if err != nil {
			return fmt.Errorf("audit: restore: %s: %w", what, err)
		}
		if err := json.Unmarshal(rec, v); err != nil {
			return fmt.Errorf("%w: %s: %v", snapcodec.ErrCorrupt, what, err)
		}
		return nil
	}

	var meta auditMetaJSON
	if err := read("meta", &meta); err != nil {
		return err
	}
	compiler := detect.New(a.opts.Detector)
	for i := 0; i < meta.Apps; i++ {
		var aj upsertOpJSON
		if err := read(fmt.Sprintf("app %d", i), &aj); err != nil {
			return err
		}
		src, res, err := a.extract(aj.Source, aj.Name, true)
		if err != nil {
			return fmt.Errorf("%w: app %d: %v", snapcodec.ErrCorrupt, i, err)
		}
		name := aj.Name
		if name == "" {
			name = res.App.Name
		}
		cfg, err := detect.UnmarshalConfig(aj.Config)
		if err != nil {
			return fmt.Errorf("%w: app %q config: %w", snapcodec.ErrCorrupt, name, err)
		}
		if name == "" || a.byName[name] != nil {
			return fmt.Errorf("%w: app %d: empty or duplicate name %q", snapcodec.ErrCorrupt, i, name)
		}
		ia := detect.NewInstalledApp(res, cfg)
		compiler.Precompile(ia)
		st := &storeApp{name: name, override: aj.Name, src: src, app: ia, slot: a.idx.Add(ia.Footprint()), pos: i}
		a.slots = append(a.slots, st)
		a.order = append(a.order, st)
		a.byName[name] = st
	}
	for i := 0; i < meta.Pairs; i++ {
		var pj auditPairJSON
		if err := read(fmt.Sprintf("pair %d", i), &pj); err != nil {
			return err
		}
		x, y := a.byName[pj.A], a.byName[pj.B]
		if x == nil || y == nil {
			return fmt.Errorf("%w: pair (%s,%s) names an app not in the store", snapcodec.ErrCorrupt, pj.A, pj.B)
		}
		ts, err := detect.UnmarshalThreats(pj.Threats)
		if err != nil {
			return fmt.Errorf("%w: pair (%s,%s): %w", snapcodec.ErrCorrupt, pj.A, pj.B, err)
		}
		setVerdict(x, y, ts)
		a.active += len(ts)
	}
	for i := 0; i < meta.History; i++ {
		var rj revisionJSON
		if err := read(fmt.Sprintf("revision %d", i), &rj); err != nil {
			return err
		}
		rev := &Revision{
			Rev: rj.Rev, Apps: rj.Apps, Pairs: rj.Pairs,
			Stats: rj.Stats, Duration: time.Duration(rj.DurationNs),
		}
		if rev.Added, err = decodeFindings(rj.Added); err != nil {
			return fmt.Errorf("%w: rev %d: %w", snapcodec.ErrCorrupt, rj.Rev, err)
		}
		if rev.Resolved, err = decodeFindings(rj.Resolved); err != nil {
			return fmt.Errorf("%w: rev %d: %w", snapcodec.ErrCorrupt, rj.Rev, err)
		}
		a.history = append(a.history, rev)
	}
	// The section ends here: verify the trailer so the reader stops at
	// the section boundary (sections concatenate in one file).
	if err := sr.End(); err != nil {
		return fmt.Errorf("audit: restore: %w", err)
	}
	a.rev = meta.Rev
	a.walLSN = meta.WalLSN
	return nil
}
