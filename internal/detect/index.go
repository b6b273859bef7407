package detect

import (
	"sort"

	"homeguard/internal/rule"
)

// FootprintIndex is an inverted index over footprint channels: every
// canonical name some app's rules read or write maps to a posting list of
// the apps touching it, each posting carrying the app's read/write
// membership for that channel as a flag bit. It makes candidate generation
// for pair detection proportional to the actual channel overlap instead
// of the number of installed apps: where the scan path enumerates every
// counterpart and rejects disjoint pairs one by one (the PR 2 footprint
// prune), the index walks only the posting lists of the querying app's
// channels and never materializes a disjoint pair at all.
//
// Candidate semantics mirror rule.Footprint.SharesChannel exactly: app A
// is a candidate counterpart of footprint f iff some name f writes is
// touched (read or written) by A, or some name A writes is touched by f.
// AppendCandidates is therefore sound (it never misses a pair
// SharesChannel would keep) and complete (it never yields a pair
// SharesChannel would prune) — the property test in index_test.go pins
// both directions against the brute-force all-pairs filter.
//
// The index is NOT goroutine-safe; it follows the owning detector's
// serialization contract. Slots are dense app indices assigned by Add in
// call order (the detector keeps them aligned with its install order; the
// store auditor reuses freed slots and maps them to apps itself).
type FootprintIndex struct {
	// chanIDs interns channel names to dense ids; postings[id] holds the
	// packed posting list of that channel: slot<<1 | writeBit. One posting
	// per (channel, app) — an app that both reads and writes a channel
	// carries the write posting, which satisfies read-or-write queries too.
	chanIDs  map[string]int32
	postings [][]int32

	// appChans[slot] lists the channel ids slot posted to, so Update can
	// remove exactly its postings when a reconfigure changes the footprint.
	appChans [][]int32

	// mark/stamp implement O(1)-reset candidate deduplication: a slot is
	// marked for the current query iff mark[slot] == stamp.
	mark  []uint64
	stamp uint64
}

// NewFootprintIndex returns an empty index.
func NewFootprintIndex() *FootprintIndex {
	return &FootprintIndex{chanIDs: map[string]int32{}}
}

// Len returns the number of indexed apps (slots).
func (x *FootprintIndex) Len() int { return len(x.appChans) }

// Add indexes a footprint under the next free slot and returns the slot.
// A nil footprint indexes no channels (such an app is never yielded as a
// candidate — callers that can see nil footprints must not prune on the
// index, mirroring SharesChannel's nil-is-unprunable rule; the detector
// always compiles a footprint before adding).
func (x *FootprintIndex) Add(fp *rule.Footprint) int {
	slot := len(x.appChans)
	x.appChans = append(x.appChans, nil)
	x.mark = append(x.mark, 0)
	x.insert(slot, fp)
	return slot
}

// Update replaces slot's postings with the given footprint (the
// reconfigure path: new config bindings rename the app's channels).
func (x *FootprintIndex) Update(slot int, fp *rule.Footprint) {
	for _, id := range x.appChans[slot] {
		ps := x.postings[id]
		for i, p := range ps {
			if int(p>>1) == slot {
				ps[i] = ps[len(ps)-1]
				x.postings[id] = ps[:len(ps)-1]
				break
			}
		}
	}
	x.insert(slot, fp)
}

// insert posts slot's channels; slot's per-app structures must be empty.
func (x *FootprintIndex) insert(slot int, fp *rule.Footprint) {
	if fp == nil {
		x.appChans[slot] = x.appChans[slot][:0]
		return
	}
	chans := x.appChans[slot][:0]
	for name := range fp.Writes {
		id := x.intern(name)
		x.postings[id] = append(x.postings[id], int32(slot)<<1|1)
		chans = append(chans, id)
	}
	for name := range fp.Reads {
		if _, alsoWritten := fp.Writes[name]; alsoWritten {
			continue // the write posting already covers touch queries
		}
		id := x.intern(name)
		x.postings[id] = append(x.postings[id], int32(slot)<<1)
		chans = append(chans, id)
	}
	x.appChans[slot] = chans
}

func (x *FootprintIndex) intern(name string) int32 {
	if id, ok := x.chanIDs[name]; ok {
		return id
	}
	id := int32(len(x.postings))
	x.chanIDs[name] = id
	x.postings = append(x.postings, nil)
	return id
}

// AppendCandidates appends to buf the sorted slots of every indexed app
// that shares an interference channel with fp — exactly the pairs
// SharesChannel would keep — and returns the extended buffer. The
// querying app's own slot is included when fp overlaps itself and the
// slot is indexed; callers pairing a new app against its predecessors
// query before Add, so self never appears on the install path. Cost is
// proportional to the total length of fp's channels' posting lists, not
// to the number of indexed apps.
func (x *FootprintIndex) AppendCandidates(fp *rule.Footprint, buf []int32) []int32 {
	if fp == nil {
		return buf
	}
	x.stamp++
	base := len(buf)
	// Channels fp writes: any toucher is a counterpart.
	for name := range fp.Writes {
		id, ok := x.chanIDs[name]
		if !ok {
			continue
		}
		for _, p := range x.postings[id] {
			slot := p >> 1
			if x.mark[slot] != x.stamp {
				x.mark[slot] = x.stamp
				buf = append(buf, slot)
			}
		}
	}
	// Channels fp only reads: writers are counterparts (write∩write was
	// covered above, so written names can be skipped here).
	for name := range fp.Reads {
		if _, alsoWritten := fp.Writes[name]; alsoWritten {
			continue
		}
		id, ok := x.chanIDs[name]
		if !ok {
			continue
		}
		for _, p := range x.postings[id] {
			if p&1 == 0 {
				continue
			}
			slot := p >> 1
			if x.mark[slot] != x.stamp {
				x.mark[slot] = x.stamp
				buf = append(buf, slot)
			}
		}
	}
	tail := buf[base:]
	sort.Slice(tail, func(i, j int) bool { return tail[i] < tail[j] })
	return buf
}
