package rule

import "sync"

// A process-wide intern table for the canonical variable names that both
// the symbolic executor and the detect compile step construct by joining
// two parts ("<subject>.<attribute>", "<app>!<input>", "<device>.<attr>").
// These names are built on every evaluation of every path of every
// extraction and every per-pair canonicalization; interning makes the
// repeat constructions allocation-free and gives equal names one shared
// backing string across both layers.
//
// The table is keyed two-level so a lookup never has to concatenate: the
// joined string is built only on first sight of a pair. Its parts include
// each extracted source's own input names, so every never-seen source can
// add entries; the table is therefore dropped whole once it holds
// maxInterned pairs. Dropping only loses sharing: a name built after the
// drop is equal to, but no longer shares storage with, one built before.
var internTab = struct {
	sync.RWMutex
	tabs [2]map[string]map[string]string // "a.b", "a!b"
	n    int                             // pairs held in tabs
}{tabs: newInternTabs()}

// maxInterned caps the pairs the intern table holds; far above the
// vocabulary of a real app catalog.
const maxInterned = 1 << 16

func newInternTabs() [2]map[string]map[string]string {
	return [2]map[string]map[string]string{{}, {}}
}

// InternDotted returns the canonical "a.b" string, allocating only the
// first time a pair is seen.
func InternDotted(a, b string) string { return internJoin(a, b, '.') }

// InternBanged returns the canonical "a!b" string (the app-qualified
// input-variable form used by canonicalization), allocating only the
// first time a pair is seen.
func InternBanged(a, b string) string { return internJoin(a, b, '!') }

func internJoin(a, b string, sep byte) string {
	t := 0
	if sep == '!' {
		t = 1
	}
	internTab.RLock()
	s, ok := internTab.tabs[t][a][b]
	internTab.RUnlock()
	if ok {
		return s
	}

	joined := a + string(sep) + b
	internTab.Lock()
	defer internTab.Unlock()
	if s, ok := internTab.tabs[t][a][b]; ok {
		return s
	}
	if internTab.n >= maxInterned {
		internTab.tabs = newInternTabs()
		internTab.n = 0
	}
	m := internTab.tabs[t][a]
	if m == nil {
		m = map[string]string{}
		internTab.tabs[t][a] = m
	}
	m[b] = joined
	internTab.n++
	return joined
}
