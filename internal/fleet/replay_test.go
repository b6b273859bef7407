package fleet

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"homeguard/internal/extractcache"
	"homeguard/internal/pairverdict"
	"homeguard/internal/symexec"
	"homeguard/internal/wal"
)

// FuzzReplayWALRecord feeds an arbitrary (kind, payload) record to
// ReplayWALRecord on a fresh fleet and on a fleet that already serves
// one Fig. 3 home: replay never panics, and a rejected record leaves the
// home set as it was. Seeded from the pinned records.
func FuzzReplayWALRecord(f *testing.F) {
	for _, rec := range pinnedWALRecords(f) {
		f.Add(rec.kind, rec.payload)
	}
	f.Add(wal.OpFleetInstall, []byte(`{"home":"ghost","source":"definition(","config":null}`))
	f.Add(wal.OpFleetAccept, []byte(`{"home":"fig3","indices":[0,99]}`))
	opts := Options{Cache: extractcache.NewBounded(256), Verdicts: pairverdict.NewBounded(1024)}
	var srcs []string
	for _, app := range []string{"ComfortTV", "ColdDefender"} {
		srcs = append(srcs, mustSource(f, app))
	}
	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		fresh := New(opts)
		oneHome := New(opts)
		for _, src := range srcs {
			if _, err := oneHome.Install(context.Background(), "fig3", src, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, g := range []*Fleet{fresh, oneHome} {
			before := fmt.Sprint(g.HomeIDs())
			if err := g.ReplayWALRecord(1, kind, payload); err != nil {
				if after := fmt.Sprint(g.HomeIDs()); after != before {
					t.Fatalf("rejected record (%v) changed the homes from %s to %s", err, before, after)
				}
			}
		}
	})
}

// TestReplayAcceptAllOrNothing: an accept record with one index out of
// range fails replay without accepting the in-range ones, as the live
// AcceptByIndex does.
func TestReplayAcceptAllOrNothing(t *testing.T) {
	ctx := context.Background()
	f := New(Options{})
	for _, app := range []string{"ComfortTV", "ColdDefender"} {
		if _, err := f.Install(ctx, "fig3", mustSource(t, app), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.ReplayWALRecord(1, wal.OpFleetAccept, []byte(`{"home":"fig3","indices":[0,99]}`)); !errors.Is(err, ErrBadThreatIndex) {
		t.Fatalf("replay: %v, want ErrBadThreatIndex", err)
	}
	h := f.lookup("fig3")
	if n := len(h.det.Accepted()); n != 0 {
		t.Fatalf("failed accept record accepted %d threats", n)
	}
}

// TestReplayNoDefinitionInstall pins the outcome for an install record
// logged before sources declaring no app were refused: such a source
// (here "{}") used to install an app named "app" with no rules, and its
// record now fails replay with symexec.ErrNoDefinition, leaving no home
// behind, like any logged source that no longer extracts.
func TestReplayNoDefinitionInstall(t *testing.T) {
	f := New(Options{})
	err := f.ReplayWALRecord(1, wal.OpFleetInstall, []byte(`{"home":"legacy","source":"{}","config":null}`))
	if !errors.Is(err, symexec.ErrNoDefinition) {
		t.Fatalf("replay: %v, want ErrNoDefinition", err)
	}
	if n := f.NumHomes(); n != 0 {
		t.Fatalf("failed replay left %d homes", n)
	}
}
