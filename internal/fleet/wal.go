// WAL integration: every fleet mutation — install, reconfigure, accept,
// detach, adopt — appends one op record inside the home lock, after the
// mutation and before the caller is acknowledged, so a record's presence
// in the log is exactly the operation having happened (commit-log
// semantics). On a WAL append failure the log latches the error and the
// operation returns it un-acknowledged; the in-memory mutation may be
// ahead of the log at that point, but no later operation can append (or
// be checkpointed past), so recovery never resurrects an un-acked op.
//
// Each home mutation is defined once, as a method on home (install,
// reconfigure, acceptByIndex, adopt). The live op wraps it in spans,
// chains, the report, events and the append; replay calls the same
// method and adds only its checks: a removal tombstone skips records
// that predate a home's migration, and a home's persisted walLSN
// watermark skips records already reflected in the checkpoint it was
// restored from.

package fleet

import (
	"encoding/json"
	"fmt"

	"homeguard/internal/detect"
	"homeguard/internal/obs"
	"homeguard/internal/wal"
)

// walOp is the payload of every fleet op record; the record's kind says
// which fields are set. The field order is the wire order:
//   - install: home, source, config;
//   - reconfigure: home, app and the RESOLVED config (a nil request
//     config keeps the app's current bindings, and replay must not
//     re-resolve against state that has since moved on);
//   - accept: home and threat-log indices;
//   - remove home (DetachHome): home alone;
//   - adopt home (ImportHome): home and the full single-home export
//     blob, so replay rebuilds the home without the exporting node.
//
// A log written by one build must replay on the next, so these bytes
// are pinned (TestFleetWALRecordBytesPinned).
//
// The same type is one op of a home's persisted history (homeSnapJSON):
// there the record kind rides in kind, the home is implied, and an
// install names, in t, the index of its source in the section's app
// table in place of the source itself.
type walOp struct {
	Kind     byte            `json:"kind,omitempty"`
	Home     string          `json:"home,omitempty"`
	App      string          `json:"app,omitempty"`
	Source   string          `json:"source,omitempty"`
	Table    int             `json:"t,omitempty"`
	Config   json.RawMessage `json:"config,omitempty"`
	Indices  []int           `json:"indices,omitempty"`
	Snapshot []byte          `json:"snapshot,omitempty"`
}

// encodeConfigOp encodes an install or reconfigure record, whose config
// field is always present (JSON null for a nil cfg).
func encodeConfigOp(op walOp, cfg *detect.Config) ([]byte, error) {
	var err error
	if op.Config, err = detect.MarshalConfig(cfg); err != nil {
		return nil, err
	}
	return json.Marshal(op)
}

// AttachWAL connects the fleet to its write-ahead log. Call it after
// construction and recovery, before serving traffic: replay must run
// with the WAL detached so replayed operations are not re-appended.
func (f *Fleet) AttachWAL(l *wal.Log) { f.wal = l }

// commit appends a live op's record under h.mu, after the mutation it
// describes, and advances the home's watermark, so the home's state at
// any watermark is exactly the prefix of its ops up to that LSN. It is
// a no-op without an attached log.
func (f *Fleet) commit(sp *obs.Span, h *home, kind byte, rec []byte) error {
	if f.wal == nil {
		return nil
	}
	wsp := sp.Child("wal.append")
	lsn, err := f.wal.Append(kind, rec)
	wsp.End()
	if err != nil {
		return err
	}
	h.walLSN = lsn
	return nil
}

// ReplayWALRecord applies one fleet op record during boot recovery
// through the live ops' mutation methods, minus their side effects: no
// report, no chains, no events, no re-append, and no detector work
// folded into fleet metrics. The WAL must not be attached yet.
//
// A record is validated (its source extracted, its blob decoded and
// its home rebuilt) before the home it names is created, so a rejected
// record leaves no home behind. A record at or below its home's
// watermark, or predating the home's removal, is skipped. Sources are
// extracted through the cache's Warm, so replay counts no cache lookup.
func (f *Fleet) ReplayWALRecord(lsn uint64, kind byte, payload []byte) error {
	var op walOp
	if err := json.Unmarshal(payload, &op); err != nil {
		return fmt.Errorf("fleet: replay lsn %d: op kind %d: %w", lsn, kind, err)
	}
	if kind == wal.OpFleetRemoveHome {
		f.replayRemoveHome(lsn, op.Home)
		return nil
	}
	// A tombstone at a later LSN means the home was migrated away after
	// this record: applying it would resurrect the home. A covered
	// record is skipped before extraction.
	if f.tombstoneCovers(op.Home, lsn) || f.lookup(op.Home).covers(lsn) {
		return nil
	}
	var (
		apply  func(h *home) error
		create bool // the op may create its home (install, adopt)
	)
	switch kind {
	case wal.OpFleetInstall:
		cfg, err := detect.UnmarshalConfig(op.Config)
		if err != nil {
			return fmt.Errorf("fleet: replay lsn %d: %w", lsn, err)
		}
		src, res, err := f.cache.Warm(op.Source, "")
		if err != nil {
			return fmt.Errorf("fleet: replay lsn %d: home %s: %w", lsn, op.Home, err)
		}
		apply = func(h *home) error { _, err := h.install(nil, src, res, cfg); return err }
		create = true
	case wal.OpFleetReconfigure:
		cfg, err := detect.UnmarshalConfig(op.Config)
		if err != nil {
			return fmt.Errorf("fleet: replay lsn %d: %w", lsn, err)
		}
		apply = func(h *home) error { _, err := h.reconfigure(nil, op.App, cfg); return err }
	case wal.OpFleetAccept:
		apply = func(h *home) error { return h.acceptByIndex(op.Indices) }
	case wal.OpFleetAdoptHome:
		src, err := f.decodeExport(op.Home, op.Snapshot)
		if err != nil {
			return fmt.Errorf("fleet: replay lsn %d: adopt record for home %q: %w", lsn, op.Home, err)
		}
		apply = func(h *home) error { return h.adopt(src) }
		create = true
	default:
		return fmt.Errorf("fleet: replay lsn %d: unknown op kind %d", lsn, kind)
	}
	h := f.lookup(op.Home)
	if h == nil {
		if !create {
			return fmt.Errorf("fleet: replay lsn %d: %w %q", lsn, ErrUnknownHome, op.Home)
		}
		h = f.homeFor(op.Home)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := apply(h); err != nil {
		return fmt.Errorf("fleet: replay lsn %d: home %s: %w", lsn, op.Home, err)
	}
	h.walLSN = lsn
	h.detSeen = detectorTotalsOf(h.det.Stats())
	return nil
}

// covers reports whether the record at lsn is already reflected in the
// home's state. Nil-safe: a missing home covers nothing.
func (h *home) covers(lsn uint64) bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.walLSN >= lsn
}

// replayRemoveHome re-applies a DetachHome: the home leaves the map and
// its tombstone is (re-)recorded. The home being absent already — the
// checkpoint captured the removal, or it was never recreated by earlier
// records thanks to the tombstone — is the normal case, not an error.
func (f *Fleet) replayRemoveHome(lsn uint64, homeID string) {
	f.setTombstone(homeID, lsn)
	s := f.shardFor(homeID)
	s.mu.Lock()
	h := s.homes[homeID]
	if h == nil {
		s.mu.Unlock()
		return
	}
	h.mu.Lock()
	if h.walLSN >= lsn {
		// The home was recreated (adopted back) at a later LSN the
		// checkpoint already captured; this stale removal must not touch it.
		h.mu.Unlock()
		s.mu.Unlock()
		return
	}
	h.migrated = true
	h.mu.Unlock()
	delete(s.homes, homeID)
	s.mu.Unlock()
	f.metrics.homeRemoved()
}
