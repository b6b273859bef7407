package detect

import (
	"fmt"
	"math/rand"
	"testing"

	"homeguard/internal/rule"
)

// randomFootprint draws a footprint over a universe of nChan channel
// names: each channel is read with pRead and written with pWrite,
// independently, so footprints can read-only, write-only, overlap
// themselves, or be empty.
func randomFootprint(rng *rand.Rand, nChan int, pRead, pWrite float64) *rule.Footprint {
	fp := rule.NewFootprint()
	for c := 0; c < nChan; c++ {
		name := fmt.Sprintf("chan%d", c)
		if rng.Float64() < pRead {
			fp.AddRead(name)
		}
		if rng.Float64() < pWrite {
			fp.AddWrite(name)
		}
	}
	return fp
}

// TestIndexCandidatesMatchBruteForce is the posting lists' soundness and
// completeness property: for randomized footprints at several densities,
// the candidate set the index generates for each app must equal the
// brute-force all-pairs set filtered by SharesChannel — no pair missed
// (soundness of skipping the rest), no disjoint pair generated
// (completeness of the prune).
func TestIndexCandidatesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, cfg := range []struct {
		apps, chans   int
		pRead, pWrite float64
	}{
		{apps: 40, chans: 200, pRead: 0.02, pWrite: 0.01}, // sparse
		{apps: 30, chans: 20, pRead: 0.3, pWrite: 0.2},    // dense
		{apps: 25, chans: 8, pRead: 0.6, pWrite: 0.5},     // near-total overlap
		{apps: 20, chans: 50, pRead: 0.1, pWrite: 0.0},    // read-only writers absent
	} {
		for trial := 0; trial < 20; trial++ {
			fps := make([]*rule.Footprint, cfg.apps)
			idx := NewFootprintIndex()
			for i := range fps {
				fps[i] = randomFootprint(rng, cfg.chans, cfg.pRead, cfg.pWrite)
				if slot := idx.Add(ChannelsOf(fps[i])); slot != i {
					t.Fatalf("Add returned slot %d, want %d", slot, i)
				}
			}
			for j := range fps {
				got := map[int]bool{}
				for _, s := range idx.AppendCandidates(ChannelsOf(fps[j]), nil) {
					got[int(s)] = true
				}
				for i := range fps {
					want := fps[j].SharesChannel(fps[i])
					if got[i] != want {
						t.Fatalf("cfg %+v trial %d: candidate(%d,%d) = %v, brute force = %v\nfp[i]=%s\nfp[j]=%s",
							cfg, trial, i, j, got[i], want, fps[i], fps[j])
					}
				}
			}
		}
	}
}

// TestIndexUpdateRewritesPostings pins the reconfigure path: after Update,
// candidates reflect only the new footprint — stale postings from the old
// channels are gone, new channels are live.
func TestIndexUpdateRewritesPostings(t *testing.T) {
	idx := NewFootprintIndex()
	a := rule.NewFootprint()
	a.AddWrite("light.switch")
	idx.Add(ChannelsOf(a))

	b := rule.NewFootprint()
	b.AddRead("light.switch")
	slotB := idx.Add(ChannelsOf(b))

	query := rule.NewFootprint()
	query.AddWrite("light.switch")
	if got := idx.AppendCandidates(ChannelsOf(query), nil); len(got) != 2 {
		t.Fatalf("precondition: both apps touch light.switch, candidates = %v", got)
	}

	// B is rebound: it now reads the lock channel instead.
	b2 := rule.NewFootprint()
	b2.AddRead("lock.lock")
	idx.Update(slotB, ChannelsOf(b2))

	if got := idx.AppendCandidates(ChannelsOf(query), nil); len(got) != 1 || got[0] != 0 {
		t.Errorf("after Update, light.switch candidates = %v, want [0]", got)
	}
	lockQ := rule.NewFootprint()
	lockQ.AddWrite("lock.lock")
	if got := idx.AppendCandidates(ChannelsOf(lockQ), nil); len(got) != 1 || int(got[0]) != slotB {
		t.Errorf("after Update, lock.lock candidates = %v, want [%d]", got, slotB)
	}

	// Randomized update churn against brute force.
	rng := rand.New(rand.NewSource(7))
	fps := make([]*rule.Footprint, 15)
	churn := NewFootprintIndex()
	for i := range fps {
		fps[i] = randomFootprint(rng, 30, 0.2, 0.15)
		churn.Add(ChannelsOf(fps[i]))
	}
	for step := 0; step < 50; step++ {
		slot := rng.Intn(len(fps))
		fps[slot] = randomFootprint(rng, 30, 0.2, 0.15)
		churn.Update(slot, ChannelsOf(fps[slot]))
		j := rng.Intn(len(fps))
		got := map[int]bool{}
		for _, s := range churn.AppendCandidates(ChannelsOf(fps[j]), nil) {
			got[int(s)] = true
		}
		for i := range fps {
			if want := fps[j].SharesChannel(fps[i]); got[i] != want {
				t.Fatalf("step %d: candidate(%d,%d) = %v, brute force = %v", step, i, j, got[i], want)
			}
		}
	}
}

// TestIndexBatchedMaintenance: runs of adds and updates with no query in
// between — the same slot updated twice, cleared and refilled, new slots
// added empty and filled later — leave the index answering exactly as if
// each change had been merged at once.
func TestIndexBatchedMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var fps []*rule.Footprint
	idx := NewFootprintIndex()
	for step := 0; step < 200; step++ {
		for n := rng.Intn(6); n > 0; n-- {
			switch slot := rng.Intn(len(fps) + 1); {
			case slot == len(fps) && rng.Intn(2) == 0:
				fps = append(fps, randomFootprint(rng, 30, 0.2, 0.15))
				idx.Add(ChannelsOf(fps[slot]))
			case slot == len(fps):
				fps = append(fps, nil)
				idx.Add(nil)
			case rng.Intn(3) == 0:
				fps[slot] = nil
				idx.Update(slot, nil)
			default:
				fps[slot] = randomFootprint(rng, 30, 0.2, 0.15)
				idx.Update(slot, ChannelsOf(fps[slot]))
			}
		}
		if len(fps) == 0 {
			continue
		}
		q := randomFootprint(rng, 30, 0.2, 0.15)
		got := map[int]bool{}
		for _, s := range idx.AppendCandidates(ChannelsOf(q), nil) {
			got[int(s)] = true
		}
		for i, fp := range fps {
			if want := fp != nil && q.SharesChannel(fp); got[i] != want {
				t.Fatalf("step %d: candidate %d = %v, brute force = %v", step, i, got[i], want)
			}
		}
	}
}

// TestInstallIndexStats checks the install path's index accounting: the
// skipped rule pairs land in both PairsPruned and PairsSkippedByIndex,
// and candidates in PairsIndexed.
func TestInstallIndexStats(t *testing.T) {
	apps := storeSubset(t, 25)
	d := New(Options{})
	for _, ia := range apps {
		d.Install(ia)
	}
	st := d.Stats()
	if st.PairsIndexed == 0 {
		t.Error("index generated no candidate pairs on the store corpus")
	}
	if st.PairsSkippedByIndex == 0 {
		t.Error("index skipped no pairs on the store corpus; expected sparse overlap")
	}
	if st.PairsSkippedByIndex != st.PairsPruned {
		t.Errorf("on the index path every pruned pair is index-skipped: skipped=%d pruned=%d",
			st.PairsSkippedByIndex, st.PairsPruned)
	}
	// The ablation path reports no index work at all.
	d2 := New(Options{DisablePruning: true})
	for _, ia := range storeSubset(t, 25) {
		d2.Install(ia)
	}
	if st2 := d2.Stats(); st2.PairsIndexed != 0 || st2.PairsSkippedByIndex != 0 {
		t.Errorf("DisablePruning must bypass the index: indexed=%d skipped=%d",
			st2.PairsIndexed, st2.PairsSkippedByIndex)
	}
}
