// WAL integration: every fleet mutation — install, reconfigure, accept —
// appends one logical op record inside the home lock, after the mutation
// and before the caller is acknowledged, so a record's presence in the
// log is exactly the operation having happened (commit-log semantics).
// On a WAL append failure the log latches the error and the operation
// returns it un-acknowledged; the in-memory mutation may be ahead of the
// log at that point, but no later operation can append (or be
// checkpointed past), so recovery never resurrects an un-acked op.
//
// Replay applies records back through the same mutation logic minus
// side effects (no events, no report rendering, no re-append): a home's
// persisted walLSN watermark skips records already reflected in the
// checkpoint it was restored from.

package fleet

import (
	"encoding/json"
	"fmt"

	"homeguard/internal/detect"
	"homeguard/internal/wal"
)

// installOp is the payload of an OpFleetInstall record.
type installOp struct {
	Home   string          `json:"home"`
	Source string          `json:"source"`
	Config json.RawMessage `json:"config,omitempty"`
}

// reconfigureOp is the payload of an OpFleetReconfigure record. Config
// is the RESOLVED configuration (a nil request config keeps the app's
// current bindings, and replay must not re-resolve against state that
// has since moved on).
type reconfigureOp struct {
	Home   string          `json:"home"`
	App    string          `json:"app"`
	Config json.RawMessage `json:"config,omitempty"`
}

// acceptOp is the payload of an OpFleetAccept record: threat-log indices
// for AcceptByIndex, marshaled threats for Accept. Exactly one of the
// two is set.
type acceptOp struct {
	Home    string          `json:"home"`
	Indices []int           `json:"indices,omitempty"`
	Threats json.RawMessage `json:"threats,omitempty"`
}

// removeHomeOp is the payload of an OpFleetRemoveHome record (a
// DetachHome — home migrated away).
type removeHomeOp struct {
	Home string `json:"home"`
}

// adoptHomeOp is the payload of an OpFleetAdoptHome record. Snapshot is
// the full single-home export blob: replay must rebuild the home
// without the exporting node existing anymore, so the record carries
// the state, not a reference to it.
type adoptHomeOp struct {
	Home     string `json:"home"`
	Snapshot []byte `json:"snapshot"`
}

// AttachWAL connects the fleet to its write-ahead log. Call it after
// construction and recovery, before serving traffic: replay must run
// with the WAL detached so replayed operations are not re-appended.
func (f *Fleet) AttachWAL(l *wal.Log) { f.wal = l }

// WAL returns the attached log, or nil.
func (f *Fleet) WAL() *wal.Log { return f.wal }

func encodeInstallOp(homeID, src string, cfg *detect.Config) ([]byte, error) {
	cb, err := detect.MarshalConfig(cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(installOp{Home: homeID, Source: src, Config: cb})
}

func encodeReconfigureOp(homeID, app string, cfg *detect.Config) ([]byte, error) {
	cb, err := detect.MarshalConfig(cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(reconfigureOp{Home: homeID, App: app, Config: cb})
}

func encodeAcceptIndicesOp(homeID string, indices []int) ([]byte, error) {
	return json.Marshal(acceptOp{Home: homeID, Indices: indices})
}

func encodeAcceptThreatsOp(homeID string, ts []detect.Threat) ([]byte, error) {
	tb, err := detect.MarshalThreats(ts)
	if err != nil {
		return nil, err
	}
	return json.Marshal(acceptOp{Home: homeID, Threats: tb})
}

// ReplayWALRecord applies one fleet op record during boot recovery. A
// record at or below the target home's persisted watermark is already
// reflected in the restored checkpoint and is skipped. The WAL must not
// be attached yet (replayed ops are not re-appended).
func (f *Fleet) ReplayWALRecord(lsn uint64, kind byte, payload []byte) error {
	switch kind {
	case wal.OpFleetInstall:
		var op installOp
		if err := json.Unmarshal(payload, &op); err != nil {
			return fmt.Errorf("fleet: replay lsn %d: install op: %w", lsn, err)
		}
		cfg, err := detect.UnmarshalConfig(op.Config)
		if err != nil {
			return fmt.Errorf("fleet: replay lsn %d: %w", lsn, err)
		}
		return f.replayInstall(lsn, op.Home, op.Source, cfg)
	case wal.OpFleetReconfigure:
		var op reconfigureOp
		if err := json.Unmarshal(payload, &op); err != nil {
			return fmt.Errorf("fleet: replay lsn %d: reconfigure op: %w", lsn, err)
		}
		cfg, err := detect.UnmarshalConfig(op.Config)
		if err != nil {
			return fmt.Errorf("fleet: replay lsn %d: %w", lsn, err)
		}
		return f.replayReconfigure(lsn, op.Home, op.App, cfg)
	case wal.OpFleetAccept:
		var op acceptOp
		if err := json.Unmarshal(payload, &op); err != nil {
			return fmt.Errorf("fleet: replay lsn %d: accept op: %w", lsn, err)
		}
		return f.replayAccept(lsn, op)
	case wal.OpFleetRemoveHome:
		var op removeHomeOp
		if err := json.Unmarshal(payload, &op); err != nil {
			return fmt.Errorf("fleet: replay lsn %d: remove-home op: %w", lsn, err)
		}
		return f.replayRemoveHome(lsn, op.Home)
	case wal.OpFleetAdoptHome:
		var op adoptHomeOp
		if err := json.Unmarshal(payload, &op); err != nil {
			return fmt.Errorf("fleet: replay lsn %d: adopt-home op: %w", lsn, err)
		}
		return f.replayAdoptHome(lsn, op.Home, op.Snapshot)
	}
	return fmt.Errorf("fleet: replay lsn %d: unknown op kind %d", lsn, kind)
}

// replayInstall re-applies one acknowledged install: extraction through
// the shared cache (warm after a checkpoint restore), then the same
// locked mutations Install performs. Chains, the rendered report and
// events are presentation, not state — they are skipped.
func (f *Fleet) replayInstall(lsn uint64, homeID, src string, cfg *detect.Config) error {
	if f.tombstoneCovers(homeID, lsn) {
		// The home was removed (migrated away) at a later LSN: applying
		// this record would resurrect it. Checked before homeFor so the
		// skip does not even create an empty home.
		return nil
	}
	h := f.homeFor(homeID)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.walLSN >= lsn {
		// Already in the checkpoint: skipped before the extraction-cache
		// lookup, so a warm boot's covered records leave no trace in the
		// cache's hit ratio.
		return nil
	}
	res, err := f.cache.Extract(src, "")
	if err != nil {
		return fmt.Errorf("fleet: replay lsn %d: home %s: %w", lsn, homeID, err)
	}
	for _, a := range h.det.Apps() {
		if a.Info.Name == res.App.Name {
			return fmt.Errorf("fleet: replay lsn %d: home %s: app %q already installed", lsn, homeID, res.App.Name)
		}
	}
	threats := h.det.Install(detect.NewInstalledApp(res, cfg))
	h.threats = append(h.threats, threats...)
	h.ledger = append(h.ledger, h.groupRuns(threats)...)
	h.walLSN = lsn
	h.detSeen = detectorTotalsOf(h.det.Stats())
	return nil
}

func (f *Fleet) replayReconfigure(lsn uint64, homeID, appName string, cfg *detect.Config) error {
	if f.tombstoneCovers(homeID, lsn) {
		return nil // home removed at a later LSN; see replayInstall
	}
	h := f.lookup(homeID)
	if h == nil {
		return fmt.Errorf("fleet: replay lsn %d: %w %q", lsn, ErrUnknownHome, homeID)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.walLSN >= lsn {
		return nil
	}
	threats, err := h.det.Reconfigure(appName, cfg)
	if err != nil {
		return fmt.Errorf("fleet: replay lsn %d: home %s: %w", lsn, homeID, err)
	}
	h.threats = append(h.threats, threats...)
	h.spliceLedger(appName, threats)
	h.walLSN = lsn
	h.detSeen = detectorTotalsOf(h.det.Stats())
	return nil
}

func (f *Fleet) replayAccept(lsn uint64, op acceptOp) error {
	if f.tombstoneCovers(op.Home, lsn) {
		return nil // home removed at a later LSN; see replayInstall
	}
	h := f.lookup(op.Home)
	if h == nil {
		return fmt.Errorf("fleet: replay lsn %d: %w %q", lsn, ErrUnknownHome, op.Home)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.walLSN >= lsn {
		return nil
	}
	if len(op.Threats) > 0 {
		ts, err := detect.UnmarshalThreats(op.Threats)
		if err != nil {
			return fmt.Errorf("fleet: replay lsn %d: home %s: %w", lsn, op.Home, err)
		}
		for _, t := range ts {
			h.det.Accept(t)
		}
	}
	for _, i := range op.Indices {
		if i < 0 || i >= len(h.threats) {
			return fmt.Errorf("fleet: replay lsn %d: home %s: %w: %d (log has %d)",
				lsn, op.Home, ErrBadThreatIndex, i, len(h.threats))
		}
		h.det.Accept(h.threats[i])
	}
	h.walLSN = lsn
	return nil
}

// replayRemoveHome re-applies a DetachHome: the home leaves the map and
// its tombstone is (re-)recorded. The home being absent already — the
// checkpoint captured the removal, or it was never recreated by earlier
// records thanks to the tombstone — is the normal case, not an error.
func (f *Fleet) replayRemoveHome(lsn uint64, homeID string) error {
	f.setTombstone(homeID, lsn)
	s := f.shardFor(homeID)
	s.mu.Lock()
	h := s.homes[homeID]
	if h == nil {
		s.mu.Unlock()
		return nil
	}
	h.mu.Lock()
	if h.walLSN >= lsn {
		// The home was recreated (adopted back) at a later LSN the
		// checkpoint already captured; this stale removal must not touch it.
		h.mu.Unlock()
		s.mu.Unlock()
		return nil
	}
	h.migrated = true
	h.mu.Unlock()
	delete(s.homes, homeID)
	s.mu.Unlock()
	f.metrics.homeRemoved()
	return nil
}

// replayAdoptHome re-applies an ImportHome from the blob the record
// carries. An already-populated home below the record's LSN is state
// divergence (the checkpoint cannot contain a different home under the
// same ID unless the log is inconsistent) and fails recovery.
func (f *Fleet) replayAdoptHome(lsn uint64, homeID string, blob []byte) error {
	if f.tombstoneCovers(homeID, lsn) {
		return nil // adopted home was migrated away again at a later LSN
	}
	st, err := decodeExport(homeID, blob)
	if err != nil {
		return fmt.Errorf("fleet: replay lsn %d: adopt record for home %q: %w", lsn, homeID, err)
	}
	h := f.homeFor(homeID)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.walLSN >= lsn {
		return nil // already in the checkpoint
	}
	if err := h.adoptUnderLock(st); err != nil {
		return fmt.Errorf("fleet: replay lsn %d: %w", lsn, err)
	}
	h.walLSN = lsn
	return nil
}
