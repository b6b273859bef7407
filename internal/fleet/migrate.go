// Planned home migration: ExportHome serializes one home's durable
// state — its op history with the app table of sources its installs
// reference (snapshot.go) — as a self-contained snapcodec section;
// DetachHome exports and then removes the home (WAL-logging the removal
// before it returns, so a crash between migrate and adopt never
// resurrects it here); ImportHome rebuilds the home on the adopting
// fleet by extracting those sources through its extraction cache and
// replaying the ops, and logs the adopt record carrying the full blob,
// so recovery on the new owner replays the adoption without the old
// owner existing anymore.
//
// The export zeroes the per-home WAL watermark: LSNs are meaningful
// only within one log, and the adopting fleet's log assigns the home a
// fresh one at the adopt record. Removal tombstones (home ID → removal
// LSN) are kept in memory and persisted in the homes snapshot so
// replay never lets a pre-removal install record resurrect a migrated
// home (per-home watermarks alone cannot catch this: a recreated home
// starts back at watermark zero).

package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"

	"homeguard/internal/snapcodec"
	"homeguard/internal/wal"
)

// Export format identity for the single-home section.
const (
	homeExportMagic   = "HGHMSNP\x00"
	homeExportVersion = 4
)

// ExportHome serializes one home's durable state without removing it
// (a read-only copy — DetachHome is the move). The blob is a
// self-contained snapcodec section ImportHome consumes. Returns the
// blob and the number of apps the home holds.
func (f *Fleet) ExportHome(homeID string) ([]byte, int, error) {
	h := f.lookup(homeID)
	if h == nil {
		return nil, 0, fmt.Errorf("fleet: %w %q", ErrUnknownHome, homeID)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.migrated {
		return nil, 0, fmt.Errorf("fleet: %w %q", ErrUnknownHome, homeID)
	}
	return h.exportUnderLock()
}

// exportUnderLock encodes the home as a single-home section. Callers
// hold h.mu.
func (h *home) exportUnderLock() ([]byte, int, error) {
	tableIdx := map[string]int{}
	var table []string
	rec, err := h.encodeUnderLock(tableIdx, &table, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("fleet: export home %s: %w", h.id, err)
	}
	var buf bytes.Buffer
	if err := writeHomes(&buf, homeExportMagic, homeExportVersion, homesMetaJSON{}, table, [][]byte{rec}); err != nil {
		return nil, 0, fmt.Errorf("fleet: export home %s: %w", h.id, err)
	}
	return buf.Bytes(), len(h.det.Apps()), nil
}

// DetachHome exports the home and removes it from this fleet in one
// atomic step: after it returns the home answers ErrUnknownHome here
// and the returned blob is the one copy of its state. The removal is
// WAL-logged (OpFleetRemoveHome) before the return, and a tombstone
// keeps replay from resurrecting the home from pre-removal records.
// In-flight operations that already hold the home's pointer fail with
// ErrUnknownHome when they acquire its lock.
func (f *Fleet) DetachHome(homeID string) ([]byte, int, error) {
	s := f.shardFor(homeID)
	s.mu.Lock()
	h := s.homes[homeID]
	if h == nil {
		s.mu.Unlock()
		return nil, 0, fmt.Errorf("fleet: %w %q", ErrUnknownHome, homeID)
	}
	// Lock order shard → home is safe: no path acquires the shard lock
	// while holding a home lock. Holding the shard lock across the
	// export keeps homeFor from handing out the dying home (or creating
	// a doppelgänger) mid-detach; migration is rare enough that stalling
	// one shard briefly is fine.
	h.mu.Lock()
	defer h.mu.Unlock()
	blob, apps, err := h.exportUnderLock()
	if err != nil {
		s.mu.Unlock()
		return nil, 0, err
	}
	var opRec []byte
	if f.wal != nil {
		if opRec, err = json.Marshal(walOp{Home: homeID}); err != nil {
			s.mu.Unlock()
			return nil, 0, fmt.Errorf("fleet: detach home %s: wal encode: %w", homeID, err)
		}
	}
	// Point of no return: the home leaves the map and late waiters on
	// its lock see migrated.
	h.migrated = true
	delete(s.homes, homeID)
	s.mu.Unlock()
	if f.wal != nil {
		lsn, err := f.wal.Append(wal.OpFleetRemoveHome, opRec)
		if err != nil {
			// Crash-stop: the home is gone in memory and the log is
			// latched, so nothing further can be acknowledged anyway.
			return nil, 0, fmt.Errorf("fleet: detach home %s: wal append: %w", homeID, err)
		}
		f.setTombstone(homeID, lsn)
	}
	f.metrics.homeRemoved()
	return blob, apps, nil
}

// ImportHome rebuilds a home exported by ExportHome/DetachHome on this
// fleet and WAL-logs the adoption (OpFleetAdoptHome carries the whole
// blob, so recovery replays the adopt without the exporter existing).
// The blob is decoded and its ops replayed into a home outside the
// shard map before the target home exists, so a rejected blob leaves
// the fleet as it was. Importing onto a home ID that already has state
// fails ErrHomeExists. Returns the number of apps the home now holds.
func (f *Fleet) ImportHome(homeID string, blob []byte) (int, error) {
	src, err := f.decodeExport(homeID, blob)
	if err != nil {
		return 0, fmt.Errorf("fleet: import: %w", err)
	}
	var opRec []byte
	if f.wal != nil {
		if opRec, err = json.Marshal(walOp{Home: homeID, Snapshot: blob}); err != nil {
			return 0, fmt.Errorf("fleet: import home %s: wal encode: %w", homeID, err)
		}
	}
	h := f.homeFor(homeID)
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.adopt(src); err != nil {
		return 0, fmt.Errorf("fleet: import: %w", err)
	}
	if err := f.commit(nil, h, wal.OpFleetAdoptHome, opRec); err != nil {
		return 0, fmt.Errorf("fleet: import home %s: wal append: %w", homeID, err)
	}
	return len(h.det.Apps()), nil
}

// decodeExport reads a single-home export section addressed to homeID
// and rebuilds the home it holds, outside the shard map.
func (f *Fleet) decodeExport(homeID string, blob []byte) (*home, error) {
	var src *home
	meta, err := f.readHomes(bytes.NewReader(blob), homeExportMagic, homeExportVersion, func(hs *homeSnapJSON, table []appEntry) error {
		if hs.ID != homeID {
			return fmt.Errorf("snapshot is for home %q, not %q", hs.ID, homeID)
		}
		var err error
		src, err = f.rebuildHome(hs, table)
		return err
	})
	if err == nil && meta.Homes != 1 {
		err = fmt.Errorf("%w: export section declares %d homes, want 1", snapcodec.ErrCorrupt, meta.Homes)
	}
	return src, err
}

// ---------- tombstones ----------

// setTombstone records homeID's removal LSN (keeping the largest).
func (f *Fleet) setTombstone(homeID string, lsn uint64) {
	f.tombMu.Lock()
	if lsn > f.tombstones[homeID] {
		f.tombstones[homeID] = lsn
	}
	f.tombMu.Unlock()
}

// tombstoneCovers reports whether homeID was removed at or after lsn —
// i.e. whether a replayed record at lsn predates the home's removal
// and must be skipped.
func (f *Fleet) tombstoneCovers(homeID string, lsn uint64) bool {
	f.tombMu.Lock()
	defer f.tombMu.Unlock()
	return f.tombstones[homeID] >= lsn
}

// tombstoneSnapshot copies the tombstone map for the homes snapshot
// (nil when there are none, keeping old snapshots byte-identical).
func (f *Fleet) tombstoneSnapshot() map[string]uint64 {
	f.tombMu.Lock()
	defer f.tombMu.Unlock()
	if len(f.tombstones) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(f.tombstones))
	for k, v := range f.tombstones {
		out[k] = v
	}
	return out
}
