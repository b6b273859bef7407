package detect

import (
	"cmp"
	"slices"
	"sort"
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
// Candidate semantics mirror Channels.SharesChannel exactly (and so
// rule.Footprint.SharesChannel, up to a channel-id collision, which could
// only add a candidate; see Channels): app A is a candidate counterpart
// of footprint f iff some name f writes is touched (read or written) by
// A, or some name A writes is touched by f. AppendCandidates is therefore
// sound (it never misses a pair SharesChannel would keep) and complete
// (it never yields a pair SharesChannel would prune) — the property tests
// in index_test.go pin both directions against the brute-force all-pairs
// filter.
//
// The index is NOT goroutine-safe; it follows the owning detector's
// serialization contract. Slots are dense app indices assigned by Add in
// call order (the detector keeps them aligned with its install order; the
// store auditor reuses freed slots and maps them to apps itself).
//
// Maintenance is batched: Add and Update only queue their postings and
// mark the slot's old ones stale, and the next query merges everything
// queued since the last one in one filter pass, one sort and one merge.
// A run of adds or updates with no query in between (a store restore, an
// audit batch) then costs one pass over the posting list, not one per
// app.
type FootprintIndex struct {
	// posts holds one posting per (channel, app), sorted by channel, then
	// slot. An app that both reads and writes a channel carries the write
	// posting, which satisfies read-or-write queries too. Postings hold no
	// pointers and no names (see Channels).
	posts []posting
	// queue holds the postings added since the last merge, unsorted;
	// queued[slot] reports whether slot has any there.
	queue  []posting
	queued []bool
	// stale[slot] drops slot's postings in posts at the next merge;
	// nstale counts the marked slots.
	stale  []bool
	nstale int

	// mark/stamp implement O(1)-reset candidate deduplication: a slot is
	// marked for the current query iff mark[slot] == stamp. len(mark) is
	// the number of slots.
	mark  []uint64
	stamp uint64
}

// posting is one app's membership in one channel: the channel id and
// slot<<1 | writeBit.
type posting struct {
	ch uint64
	sw uint32
}

func (p posting) slot() int32 { return int32(p.sw >> 1) }

func cmpPosting(a, b posting) int {
	if a.ch != b.ch {
		return cmp.Compare(a.ch, b.ch)
	}
	return cmp.Compare(a.sw, b.sw)
}

// NewFootprintIndex returns an empty index.
func NewFootprintIndex() *FootprintIndex { return &FootprintIndex{} }

// Len returns the number of indexed apps (slots).
func (x *FootprintIndex) Len() int { return len(x.mark) }

// Add indexes an app's channels under the next free slot and returns the
// slot. Nil channels index nothing (such an app is never yielded as a
// candidate).
func (x *FootprintIndex) Add(ch Channels) int {
	slot := len(x.mark)
	x.mark = append(x.mark, 0)
	x.queued = append(x.queued, false)
	x.stale = append(x.stale, false)
	x.enqueue(slot, ch)
	return slot
}

// Update replaces slot's postings with the given channels (the reconfigure
// path: new config bindings rename the app's channels).
func (x *FootprintIndex) Update(slot int, ch Channels) {
	if x.queued[slot] {
		x.merge() // updated twice between queries: settle the first
	}
	if !x.stale[slot] {
		x.stale[slot] = true
		x.nstale++
	}
	x.enqueue(slot, ch)
}

func (x *FootprintIndex) enqueue(slot int, ch Channels) {
	for _, c := range ch {
		x.queue = append(x.queue, posting{ch: c >> 1, sw: uint32(slot)<<1 | uint32(c&1)})
	}
	x.queued[slot] = len(ch) > 0
}

// merge drops the stale postings and merges the queued ones into posts.
func (x *FootprintIndex) merge() {
	if x.nstale > 0 {
		out := x.posts[:0]
		for _, p := range x.posts {
			if !x.stale[p.slot()] {
				out = append(out, p)
			}
		}
		x.posts = out
		clear(x.stale)
		x.nstale = 0
	}
	if len(x.queue) == 0 {
		return
	}
	slices.SortFunc(x.queue, cmpPosting)
	// Merge from the back into the grown slice: each step places the
	// larger of the two tails.
	n, k := len(x.posts), len(x.queue)
	x.posts = slices.Grow(x.posts, k)[:n+k]
	i, j := n-1, k-1
	for w := n + k - 1; j >= 0; w-- {
		if i >= 0 && cmpPosting(x.posts[i], x.queue[j]) > 0 {
			x.posts[w] = x.posts[i]
			i--
		} else {
			x.posts[w] = x.queue[j]
			j--
		}
	}
	x.queue = x.queue[:0]
	clear(x.queued)
}

// AppendCandidates appends to buf the sorted slots of every indexed app
// that shares an interference channel with ch — exactly the pairs
// SharesChannel would keep — and returns the extended buffer. The
// querying app's own slot is included when it is indexed; callers pairing
// a new app against its predecessors query before Add, so self never
// appears on the install path. Cost is proportional to the total length
// of ch's channels' posting lists (plus a binary search per channel), not
// to the number of indexed apps.
func (x *FootprintIndex) AppendCandidates(ch Channels, buf []int32) []int32 {
	if len(ch) == 0 {
		return buf
	}
	if x.nstale > 0 || len(x.queue) > 0 {
		x.merge()
	}
	x.stamp++
	base := len(buf)
	for _, c := range ch {
		id := c >> 1
		// A written channel pairs with any toucher; a read-only one only
		// with writers.
		write := c&1 != 0
		for k := sort.Search(len(x.posts), func(k int) bool { return x.posts[k].ch >= id }); k < len(x.posts) && x.posts[k].ch == id; k++ {
			p := x.posts[k]
			if !write && p.sw&1 == 0 {
				continue
			}
			slot := p.slot()
			if x.mark[slot] != x.stamp {
				x.mark[slot] = x.stamp
				buf = append(buf, slot)
			}
		}
	}
	tail := buf[base:]
	slices.Sort(tail)
	return buf
}
