// Crash-safe durability for the daemon: with -wal-dir set, every fleet
// and store mutation is appended to a segmented write-ahead log before
// the client is acknowledged, and a background checkpointer periodically
// writes the full daemon state — pair verdicts, fleet homes with the
// extraction of every installed app, audited store — to one checkpoint
// file, then garbage-collects the log segments the checkpoint covers.
// Boot recovery restores the last checkpoint and replays the log's tail
// on top; per-entity LSN watermarks persisted in the checkpoint make the
// replay exactly-once. /readyz answers 503 for the whole recovery and
// flips to 200 only when the replayed state is serving.
//
// The checkpoint file is four snapcodec sections back to back: a meta
// section ("HGCKSNP\x00" v2, one JSON record naming the checkpoint LSN
// and whether the verdict section follows), then the pair-verdict cache
// ("HGPVSNP\x00"), the fleet homes ("HGFLSNP\x00", whose app table
// restores into the extraction cache) and the audited store
// ("HGAUSNP\x00"). It is the daemon's one persistence format: a file
// that does not start with the meta section fails boot with
// snapcodec.ErrCorrupt, and a v1 file fails snapcodec.ErrVersion.

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"homeguard/internal/audit"
	"homeguard/internal/fleet"
	"homeguard/internal/snapcodec"
	"homeguard/internal/wal"
)

// Checkpoint-file meta section identity.
const (
	ckptMagic   = "HGCKSNP\x00"
	ckptVersion = 2
)

// ckptMetaJSON is the meta section's single record.
type ckptMetaJSON struct {
	// LSN is the checkpoint LSN: every WAL record at or below it is
	// reflected in the sections that follow, so segments whose records
	// are all <= LSN are garbage.
	LSN uint64 `json:"lsn"`
	// Verdicts reports whether a pair-verdict section follows the meta
	// section (absent when the cache is disabled).
	Verdicts bool `json:"verdicts"`
}

// saveCheckpoint writes the full daemon state to a temp file and
// atomically renames it over path, then fsyncs the parent directory so
// the rename itself is durable. The checkpoint LSN is read BEFORE any
// state is captured: mutations precede their append under the same lock,
// so every record at or below it is already reflected in the capture
// (records appended during the capture may be partially reflected — the
// per-entity watermarks make replay skip exactly what each entity
// already holds).
func saveCheckpoint(path string, l *wal.Log, f *fleet.Fleet, aud *audit.Auditor) (uint64, error) {
	lsn := l.LastLSN()
	tmp := path + ".tmp"
	file, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	fail := func(err error) (uint64, error) {
		file.Close()
		os.Remove(tmp)
		return 0, err
	}
	w := bufio.NewWriter(file)

	meta := ckptMetaJSON{LSN: lsn, Verdicts: f.Verdicts() != nil}
	sw, err := snapcodec.NewWriter(w, ckptMagic, ckptVersion)
	if err != nil {
		return fail(err)
	}
	rec, err := json.Marshal(meta)
	if err != nil {
		return fail(err)
	}
	sw.Record(rec) // a failed Record is sticky: Close reports it
	if err := sw.Close(); err != nil {
		return fail(err)
	}
	if v := f.Verdicts(); v != nil {
		if _, err := v.Snapshot(w); err != nil {
			return fail(err)
		}
	}
	if _, err := f.SnapshotHomes(w); err != nil {
		return fail(err)
	}
	if err := aud.Snapshot(w); err != nil {
		return fail(err)
	}

	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := file.Sync(); err != nil {
		return fail(err)
	}
	if err := file.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	// The rename is atomic but not durable until the directory entry is
	// flushed; without this a crash can revive the previous checkpoint
	// AFTER its covered segments were GC'd.
	if err := wal.SyncDir(filepath.Dir(path)); err != nil {
		return 0, err
	}
	return lsn, nil
}

// loadCheckpoint restores daemon state from path, returning the
// checkpoint LSN. A missing file is a cold start (LSN 0, replay the
// whole log). Any other failure is returned for the caller to treat as
// fatal: the checkpoint's covered log segments may already be
// collected, so serving from partial state would silently drop
// acknowledged operations.
func loadCheckpoint(path string, f *fleet.Fleet, aud *audit.Auditor) (uint64, error) {
	file, err := os.Open(path)
	if os.IsNotExist(err) {
		log.Printf("homeguardd: no checkpoint at %s, recovering from the log alone", path)
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer file.Close()
	r := bufio.NewReader(file)
	sr, err := snapcodec.NewReader(r, ckptMagic, ckptVersion)
	if err != nil {
		return 0, err
	}
	rec, err := sr.Next()
	if err != nil {
		return 0, fmt.Errorf("meta: %w", err)
	}
	var meta ckptMetaJSON
	if err := json.Unmarshal(rec, &meta); err != nil {
		return 0, fmt.Errorf("%w: meta: %v", snapcodec.ErrCorrupt, err)
	}
	if err := sr.End(); err != nil {
		return 0, fmt.Errorf("meta: %w", err)
	}
	nv := 0
	if meta.Verdicts {
		v := f.Verdicts()
		if v == nil {
			return 0, errors.New("a pair-verdict section follows but the verdict cache is disabled")
		}
		if nv, err = v.Restore(r); err != nil {
			return 0, fmt.Errorf("pair verdicts: %w", err)
		}
	}
	nh, err := f.RestoreHomes(r)
	if err != nil {
		return 0, fmt.Errorf("fleet homes: %w", err)
	}
	if err := aud.Restore(r); err != nil {
		return 0, fmt.Errorf("audit store: %w", err)
	}
	log.Printf("homeguardd: checkpoint restored from %s (lsn %d, %d pair verdicts, %d homes, %d cached extractions, store rev %d)",
		path, meta.LSN, nv, nh, f.Cache().Len(), aud.Rev())
	return meta.LSN, nil
}

// replayRecord dispatches one WAL record to its owner: audit-store
// batches to the auditor, everything else to the fleet.
func (s *server) replayRecord(lsn uint64, kind byte, payload []byte) error {
	if kind == wal.OpAuditBatch {
		return s.auditor.ReplayWALRecord(lsn, kind, payload)
	}
	return s.fleet.ReplayWALRecord(lsn, kind, payload)
}

// bootRecover is the WAL-mode boot path: restore the last checkpoint,
// open the log (repairing a torn tail), replay every record above each
// entity's watermark, and only then attach the log so replay is never
// re-appended. The caller flips /readyz to 200 after this returns.
func bootRecover(srv *server, walDir, ckptPath string, opts wal.Options) *wal.Log {
	start := time.Now()
	sp := srv.obs.Tracer.Start("wal.recover")
	if _, err := loadCheckpoint(ckptPath, srv.fleet, srv.auditor); err != nil {
		log.Fatalf("homeguardd: checkpoint %s: %v", ckptPath, err)
	}
	l, err := wal.Open(opts)
	if err != nil {
		log.Fatalf("homeguardd: wal open: %v", err)
	}
	replayed := 0
	if err := l.Replay(0, func(lsn uint64, kind byte, payload []byte) error {
		replayed++
		return srv.replayRecord(lsn, kind, payload)
	}); err != nil {
		log.Fatalf("homeguardd: wal replay: %v", err)
	}
	srv.fleet.AttachWAL(l)
	srv.auditor.AttachWAL(l)
	d := time.Since(start)
	l.SetRecoveryDuration(d)
	sp.SetInt("records", int64(replayed))
	sp.End()
	log.Printf("homeguardd: recovered from %s in %s (%d records replayed, last lsn %d, %d homes, store rev %d)",
		walDir, d.Round(time.Millisecond), replayed, l.LastLSN(), srv.fleet.NumHomes(), srv.auditor.Rev())
	return l
}

// checkpoint writes one checkpoint and collects the log segments it
// covers. Skipped while the log is failed: after a crash-stop the state
// may be ahead of the last durable record, and checkpointing it would
// persist un-acknowledged operations.
func checkpoint(path string, l *wal.Log, f *fleet.Fleet, aud *audit.Auditor) error {
	if err := l.Err(); err != nil {
		return fmt.Errorf("wal failed, not checkpointing: %w", err)
	}
	lsn, err := saveCheckpoint(path, l, f, aud)
	if err != nil {
		return err
	}
	removed, err := l.TruncateBefore(lsn + 1)
	if err != nil {
		return fmt.Errorf("segment gc: %w", err)
	}
	log.Printf("homeguardd: checkpoint at lsn %d written to %s (%d log segments collected)", lsn, path, removed)
	return nil
}

// runCheckpointer checkpoints every interval until ctx is canceled,
// replacing save-on-shutdown-only persistence: a crashed daemon's replay
// is bounded by one interval of log, not its whole uptime.
func runCheckpointer(ctx context.Context, interval time.Duration, path string, l *wal.Log, f *fleet.Fleet, aud *audit.Auditor) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := checkpoint(path, l, f, aud); err != nil {
				log.Printf("homeguardd: checkpoint: %v", err)
			}
		}
	}
}
