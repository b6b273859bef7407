package detect

import (
	"crypto/sha256"
	"hash/maphash"
	"slices"
	"sync"

	"homeguard/internal/envmodel"
	"homeguard/internal/rule"
	"homeguard/internal/symexec"
)

// The intern table makes every installed app one fleet-shared value: a
// fleet installs the same few hundred catalog apps into thousands of
// homes, mostly under the same configuration, so NewInstalledApp returns
// one compiled, immutable *InstalledApp per (rule set, configuration
// digest) and homes hold references to it, the way the extraction cache
// shares symbolic execution and the pair-verdict cache shares solving.
//
// The key pairs the *RuleSet pointer with the configuration's digest. The
// pointer matters: compiled rules hold *rule.Rule references into their
// rule set, and threats report those pointers, so two content-identical
// rule sets from separate extractions must not swap rule identities. The
// extraction cache already dedups sources to one *RuleSet fleet-wide, and
// a rule set belongs to one extraction result, so the pointer also
// determines the app's AppInfo. Each rule set's entry memoizes the digest
// of its app info and rules, so a new configuration of a known app hashes
// only the configuration.
//
// Entries strong-reference their rule sets and configurations, so the
// table is bounded by instance count, checked on every insert: on
// overflow arbitrary rule sets are dropped with all their instances.
// Dropping an entry only loses sharing; homes keep the instances they
// hold, and the next install of a dropped app builds a new one.
const internLimit = 1 << 14

type digest = [sha256.Size]byte

// ruleSetApps is one rule set's intern entry: the hash state of the app
// info and rules (see infoState) and the instances by the digest of their
// configuration encoding.
type ruleSetApps struct {
	state []byte
	apps  map[digest]*InstalledApp
}

var interned = struct {
	sync.Mutex
	m map[*rule.RuleSet]*ruleSetApps
	n int // instances held, summed over m
}{m: map[*rule.RuleSet]*ruleSetApps{}}

// emptyConfig is the one configuration of every app installed with a nil
// or empty config. Its maps are nil: reads see empty maps, and a write
// (which the immutability contract forbids) panics instead of leaking
// into other homes.
var (
	emptyConfig       = &Config{}
	emptyConfigEnc    = configEncoding(emptyConfig)
	emptyConfigDigest = sha256.Sum256(emptyConfigEnc)
)

// internApp returns the shared instance of (info, rules) under cfg,
// building and compiling it on first sight. Concurrent first installs may
// both compile; the first to publish wins and the others return its
// instance.
func internApp(info symexec.AppInfo, rules *rule.RuleSet, cfg *Config) *InstalledApp {
	enc, cd := emptyConfigEnc, emptyConfigDigest
	if cfg != nil {
		enc = configEncoding(cfg)
		cd = sha256.Sum256(enc)
	}
	interned.Lock()
	e := interned.m[rules]
	if e != nil {
		if app := e.apps[cd]; app != nil {
			interned.Unlock()
			return app
		}
	}
	interned.Unlock()

	var state []byte
	if e != nil {
		state = e.state
	} else {
		state = infoState(info, rules)
	}
	if cd == emptyConfigDigest {
		cfg = emptyConfig
	} else {
		cfg = cfg.clone()
	}
	app := &InstalledApp{Info: info, Rules: rules, Config: cfg}
	app.comp = compile(app)
	app.comp.sig = signature(state, enc)

	interned.Lock()
	defer interned.Unlock()
	if e = interned.m[rules]; e != nil {
		if won := e.apps[cd]; won != nil {
			return won
		}
	}
	// Every new instance is checked against the bound, whether its rule
	// set is new or a known one under a new configuration; the dropped
	// entries may include rules' own.
	for k, old := range interned.m {
		if interned.n < internLimit {
			break
		}
		interned.n -= len(old.apps)
		delete(interned.m, k)
	}
	if e = interned.m[rules]; e == nil {
		e = &ruleSetApps{state: state, apps: map[digest]*InstalledApp{}}
		interned.m[rules] = e
	}
	e.apps[cd] = app
	interned.n++
	return app
}

// clone copies a configuration, leaving empty maps nil.
func (c *Config) clone() *Config {
	out := &Config{}
	if len(c.Devices) > 0 {
		out.Devices = make(map[string]string, len(c.Devices))
		for k, v := range c.Devices {
			out.Devices[k] = v
		}
	}
	if len(c.Values) > 0 {
		out.Values = make(map[string]rule.Term, len(c.Values))
		for k, v := range c.Values {
			out.Values[k] = v
		}
	}
	if len(c.ValueLists) > 0 {
		out.ValueLists = make(map[string][]string, len(c.ValueLists))
		for k, v := range c.ValueLists {
			out.ValueLists[k] = slices.Clone(v)
		}
	}
	if len(c.DeviceTypes) > 0 {
		out.DeviceTypes = make(map[string]envmodel.DeviceType, len(c.DeviceTypes))
		for k, v := range c.DeviceTypes {
			out.DeviceTypes[k] = v
		}
	}
	return out
}

// Channel ids. A footprint channel (a canonical variable name or an
// environment-property key) is identified by a 63-bit hash of its name,
// so a FootprintIndex holds no strings and no table maps names to ids:
// configured device ids make channel names client-chosen, and a table
// would grow with every binding any home ever sent. Ids are never
// persisted or compared across processes, so the hash is seeded per
// process. Two names of one index colliding (about 2^-63 per pair) only
// make their apps a candidate pair, which the pair check itself then
// decides: the index is a prune, never a verdict.
var chanSeed = maphash.MakeSeed()

// Channels is a footprint over channel ids: one entry per channel an
// app's rules read or write, id<<1 | 1 when the app writes the channel
// (a write posting also answers read-or-write queries) and id<<1 when it
// only reads it, sorted ascending.
type Channels []uint64

func chanID(name string) uint64 { return maphash.String(chanSeed, name) >> 1 }

// ChannelsOf converts a footprint to channel ids. A nil footprint has no
// channels.
func ChannelsOf(fp *rule.Footprint) Channels {
	if fp == nil {
		return nil
	}
	out := make(Channels, 0, len(fp.Writes)+len(fp.Reads))
	for name := range fp.Writes {
		out = append(out, chanID(name)<<1|1)
	}
	for name := range fp.Reads {
		if _, alsoWritten := fp.Writes[name]; !alsoWritten {
			out = append(out, chanID(name)<<1)
		}
	}
	slices.Sort(out)
	return out
}

// SharesChannel reports whether an interference channel can exist between
// the two footprints: a channel one side writes that the other side reads
// or writes. It is rule.Footprint.SharesChannel over ids.
func (c Channels) SharesChannel(o Channels) bool {
	i, j := 0, 0
	for i < len(c) && j < len(o) {
		switch a, b := c[i]>>1, o[j]>>1; {
		case a < b:
			i++
		case a > b:
			j++
		default:
			if (c[i]|o[j])&1 != 0 {
				return true
			}
			i++
			j++
		}
	}
	return false
}
