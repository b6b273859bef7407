// WAL integration for the incremental store auditor: every acknowledged
// Apply appends exactly one OpAuditBatch record carrying the batch's
// EFFECTIVE operations — the removes that hit an installed app and the
// winning upsert per name, each upsert as the app's persisted form: its
// name override (when it has one), its Groovy source and its
// configuration. Replay extracts each source again under the same key
// the live Apply used, through the shared extraction cache's Warm, so a
// replayed store holds the very results a live submission of those
// sources gets. This is the trade the fleet WAL makes: an engine upgrade
// that extracts a source differently changes the replayed store, and a
// logged source that no longer extracts fails the replay. An app
// submitted as a pre-extracted Res has no persisted form, so with a log
// attached Apply fails it with ErrNoSource and logs nothing for it.
// Failed inputs are not logged, so a replayed revision's Errors map is
// empty — per-app failures are a report to the submitting client, not
// store state.

package audit

import (
	"bytes"
	"encoding/json"
	"fmt"

	"homeguard/internal/detect"
	"homeguard/internal/wal"
)

// walUpsert is one effective upsert captured for the op record.
type walUpsert struct {
	override, src string
	cfg           *detect.Config
}

// upsertOpJSON is one upsert inside an OpAuditBatch payload, and one
// app record of the checkpoint's store section: the app's persisted
// form.
type upsertOpJSON struct {
	Name   string          `json:"name,omitempty"`
	Source string          `json:"source"`
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

// encodeUpsert encodes one app's persisted form.
func encodeUpsert(u walUpsert) (upsertOpJSON, error) {
	cb, err := detect.MarshalConfig(u.cfg)
	return upsertOpJSON{Name: u.override, Source: u.src, Config: cb}, err
}

func encodeBatchOp(removes []string, upserts []walUpsert) ([]byte, error) {
	op := batchOpJSON{Removes: removes}
	for _, u := range upserts {
		uj, err := encodeUpsert(u)
		if err != nil {
			return nil, fmt.Errorf("audit: wal op: config: %w", err)
		}
		op.Upserts = append(op.Upserts, uj)
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
	// A record of an earlier layout (one that logged extraction results)
	// fails on its unknown fields instead of replaying as empty sources.
	var op batchOpJSON
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&op); err != nil {
		return fmt.Errorf("audit: replay lsn %d: batch op: %w", lsn, err)
	}
	batch := Batch{Removes: op.Removes}
	for i, u := range op.Upserts {
		cfg, err := detect.UnmarshalConfig(u.Config)
		if err != nil {
			return fmt.Errorf("audit: replay lsn %d: upsert %d config: %w", lsn, i, err)
		}
		batch.Upserts = append(batch.Upserts, App{Name: u.Name, Source: u.Source, Config: cfg})
	}
	_, err := a.apply(batch, lsn)
	return err
}
