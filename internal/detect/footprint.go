package detect

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
	"sort"
	"strconv"
	"strings"

	"homeguard/internal/envmodel"
	"homeguard/internal/rule"
	"homeguard/internal/symexec"
)

// This file builds the per-app footprint and the content addresses
// behind the fleet-shared pair-verdict cache. Both are computed once per
// app instance when it is interned (see intern.go) and depend only on the
// app's extracted rules, its input declarations and its installation
// config, never on detector state.

// propKey namespaces an environment property apart from canonical variable
// names (variable names never contain NUL).
func propKey(p envmodel.Property) string { return "prop\x00" + string(p) }

// The app footprint covers, in canonical names: reads — every variable of
// every rule's situation formula, the trigger subscription variable (an
// any-change trigger never appears in the formula but is still a
// covert-triggering channel), and the environment property behind each
// sensed attribute; writes — every device-attribute effect of each action
// plus every environment property the action drives. Each Table I
// detection needs a name written by one rule and read or written by the
// other (see rule.Footprint), so two apps whose footprints share no such
// channel cannot interfere. The footprint is assembled from the compiled
// rule set (footprintFromCompiled in compile.go), so it costs no extra
// canonicalization pass.

// addReadName records a read of a canonical variable plus the environment
// property its attribute suffix senses (the EC/DC and CT environment
// channels match on properties, not variable names).
func addReadName(fp *rule.Footprint, name string) {
	fp.AddRead(name)
	attr := name
	if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
		attr = name[dot+1:]
	}
	if p, ok := envmodel.AttributeProperty(attr); ok {
		fp.AddRead(propKey(p))
	}
}

// PairKey is the content address of an app-pair detection verdict:
// SHA-256 over both apps' canonical rule sets and configuration bindings
// plus the home's mode list. Two homes that installed the same two app
// sources with the same configurations under the same mode universe get
// the same key — and provably the same verdict, since the key covers every
// input the pair detections read.
type PairKey [sha256.Size]byte

// verdictKey derives the verdict address for the ordered pair (appA, appB).
// The pair is kept ordered (installation order) so cached threats carry
// R1/R2 in the exact orientation local detection would produce — a
// deliberate tradeoff: homes that reach the same pair in opposite orders
// cache the two orientations separately (at most doubling entries per
// unordered pair) in exchange for sharing verdicts verbatim with no
// threat-rewriting on retrieval. intra tags the intra-app domain apart
// from the cross-app one: one detector can hold the same interned app in
// two slots, and their cross verdict (n*n rule pairs, including each rule
// against its own duplicate) differs from the single slot's intra verdict
// (n(n-1)/2 pairs).
func (d *Detector) verdictKey(appA, appB *InstalledApp, intra bool) PairKey {
	h := sha256.New()
	if intra {
		h.Write([]byte{'i'})
	} else {
		h.Write([]byte{'x'})
	}
	// The per-app signatures were computed when the apps were interned,
	// and the mode-list rendering once at New: keying a pair is three
	// writes and one SHA-256 finalization, no re-serialization.
	h.Write(appA.comp.sig)
	h.Write([]byte{0})
	h.Write(appB.comp.sig)
	h.Write([]byte{0})
	h.Write(d.modesSig)
	var k PairKey
	h.Sum(k[:0])
	return k
}

// modesSignature renders the home's mode universe for PairKey hashing,
// each mode length-prefixed for the same no-aliasing reason as
// appSignature.
func modesSignature(modes []string) []byte {
	var out []byte
	for _, m := range modes {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(m)))
		out = append(out, n[:]...)
		out = append(out, m...)
	}
	return out
}

// An app's verdict signature is one SHA-256 over everything about the
// installed app that pair detection reads: its name (the canonical
// variable prefix), its input declarations (capabilities pick device keys
// and solver domains, titles feed device-type guessing), its full rule
// set, and its installation configuration (device bindings, value
// substitutions, device types). The intern table hashes the first three
// once per rule set and keeps the hash state (infoState), so a new
// configuration of a known app hashes only the configuration's encoding
// (configEncoding), which also keys the instance. Every string is
// length-prefixed: configs arrive verbatim from the JSON API and may
// contain any byte, so delimiter framing would let crafted strings slide
// across key/value boundaries and alias two different configurations onto
// one fleet-shared verdict key.

// infoState hashes an app's info and rule set and returns the marshaled
// hash state, which signature continues.
func infoState(info symexec.AppInfo, rs *rule.RuleSet) []byte {
	h := sha256.New()
	lengthPrefixed(h, info.Name)
	for _, in := range info.Inputs {
		lengthPrefixed(h, in.Name)
		lengthPrefixed(h, in.Type)
		lengthPrefixed(h, in.Capability)
		lengthPrefixed(h, in.Title)
		lengthPrefixed(h, strconv.FormatBool(in.Multiple))
		// Tag bytes fence the variable-length fields so field contents
		// cannot alias across boundaries (Options ["x"] + no default must
		// hash apart from no options + default "x" — options feed solver
		// enum domains, so the two are detection-distinct).
		h.Write([]byte{6})
		for _, o := range in.Options {
			lengthPrefixed(h, o)
		}
		h.Write([]byte{7})
		if in.Default != nil {
			lengthPrefixed(h, in.Default.String())
		}
		h.Write([]byte{1})
	}
	rh := sha256.New()
	if b, err := rule.MarshalRuleSet(rs); err == nil {
		rh.Write(b)
	} else {
		// Extraction output always marshals; hand-built rule sets that
		// somehow don't still hash via their renderings.
		for _, r := range rs.Rules {
			rh.Write([]byte(r.String()))
			rh.Write([]byte{0})
		}
	}
	h.Write(rh.Sum(nil))
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("detect: sha256 state does not marshal: " + err.Error())
	}
	return state
}

// configEncoding renders an installation configuration for hashing; nil
// and empty maps encode alike.
func configEncoding(cfg *Config) []byte {
	b := []byte{2}
	for _, k := range sortedKeys(cfg.Devices) {
		b = appendPrefixed(b, k)
		b = appendPrefixed(b, cfg.Devices[k])
	}
	b = append(b, 3)
	for _, k := range sortedKeys(cfg.Values) {
		b = appendPrefixed(b, k)
		b = appendPrefixed(b, cfg.Values[k].String())
	}
	b = append(b, 4)
	for _, k := range sortedKeys(cfg.ValueLists) {
		b = appendPrefixed(b, k)
		for _, v := range cfg.ValueLists[k] {
			b = appendPrefixed(b, v)
		}
		// Terminate each list: {"a": ["b"]} must not alias {"a": [], "b": []}.
		b = append(b, 6)
	}
	b = append(b, 5)
	for _, k := range sortedKeys(cfg.DeviceTypes) {
		b = appendPrefixed(b, k)
		b = appendPrefixed(b, string(cfg.DeviceTypes[k]))
	}
	return b
}

// signature finishes an app's verdict signature from its info hash state
// and its configuration encoding.
func signature(state, cfgEnc []byte) []byte {
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		panic("detect: sha256 state does not unmarshal: " + err.Error())
	}
	h.Write(cfgEnc)
	return h.Sum(nil)
}

func appendPrefixed(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// lengthPrefixed writes s with a 4-byte length prefix.
func lengthPrefixed(h hash.Hash, s string) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
