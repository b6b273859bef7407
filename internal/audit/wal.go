// WAL integration for the incremental store auditor: every acknowledged
// Apply appends exactly one OpAuditBatch record carrying the batch's
// EFFECTIVE operations — the removes that hit an installed app and the
// winning upsert per name, each upsert as its post-extraction result
// (app metadata + rules) plus configuration. Logging resolved results
// instead of raw sources makes replay deterministic and extraction-free:
// a source that extracts differently after an engine upgrade, or an
// upsert submitted as a pre-extracted Res with no source at all, replays
// identically. Failed inputs are not logged, so a replayed revision's
// Errors map is empty — per-app failures are a report to the submitting
// client, not store state.

package audit

import (
	"encoding/json"
	"fmt"

	"homeguard/internal/detect"
	"homeguard/internal/extractcache"
	"homeguard/internal/symexec"
	"homeguard/internal/wal"
)

// walUpsert is one effective upsert captured for the op record.
type walUpsert struct {
	name string
	res  *symexec.Result
	cfg  *detect.Config
}

// upsertOpJSON is one upsert inside an OpAuditBatch payload.
type upsertOpJSON struct {
	Name   string          `json:"name"`
	Res    json.RawMessage `json:"res"`
	Config json.RawMessage `json:"config,omitempty"`
}

// batchOpJSON is the payload of an OpAuditBatch record.
type batchOpJSON struct {
	Removes []string       `json:"removes,omitempty"`
	Upserts []upsertOpJSON `json:"upserts,omitempty"`
}

// AttachWAL connects the auditor to its write-ahead log. Call it after
// construction and recovery, before serving traffic: replay must run
// with the WAL detached so replayed batches are not re-appended.
func (a *Auditor) AttachWAL(l *wal.Log) {
	a.mu.Lock()
	a.wal = l
	a.mu.Unlock()
}

// WALWatermark returns the LSN of the last batch reflected in the
// auditor's state (restored from a checkpoint or set by Apply/replay).
func (a *Auditor) WALWatermark() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.walLSN
}

func encodeBatchOp(removes []string, upserts []walUpsert) ([]byte, error) {
	op := batchOpJSON{Removes: removes}
	for _, u := range upserts {
		// The synthetic Result carries exactly what replay needs to rebuild
		// the InstalledApp; extraction warnings and path counts are
		// install-time diagnostics, reported once and gone.
		rb, err := extractcache.MarshalResult(&symexec.Result{App: u.res.App, Rules: u.res.Rules})
		if err != nil {
			return nil, fmt.Errorf("audit: wal op: app %q: %w", u.name, err)
		}
		cb, err := detect.MarshalConfig(u.cfg)
		if err != nil {
			return nil, fmt.Errorf("audit: wal op: app %q config: %w", u.name, err)
		}
		op.Upserts = append(op.Upserts, upsertOpJSON{Name: u.name, Res: rb, Config: cb})
	}
	return json.Marshal(op)
}

// ReplayWALRecord applies one audit op record during boot recovery. A
// record at or below the persisted watermark is already reflected in the
// restored checkpoint and is skipped. The WAL must not be attached yet
// (replayed batches are not re-appended).
func (a *Auditor) ReplayWALRecord(lsn uint64, kind byte, payload []byte) error {
	if kind != wal.OpAuditBatch {
		return fmt.Errorf("audit: replay lsn %d: unknown op kind %d", lsn, kind)
	}
	var op batchOpJSON
	if err := json.Unmarshal(payload, &op); err != nil {
		return fmt.Errorf("audit: replay lsn %d: batch op: %w", lsn, err)
	}
	batch := Batch{Removes: op.Removes}
	for _, u := range op.Upserts {
		res, err := extractcache.UnmarshalResult(u.Res)
		if err != nil {
			return fmt.Errorf("audit: replay lsn %d: app %q: %w", lsn, u.Name, err)
		}
		cfg, err := detect.UnmarshalConfig(u.Config)
		if err != nil {
			return fmt.Errorf("audit: replay lsn %d: app %q config: %w", lsn, u.Name, err)
		}
		batch.Upserts = append(batch.Upserts, App{Name: u.Name, Res: res, Config: cfg})
	}
	_, err := a.apply(batch, lsn)
	return err
}
