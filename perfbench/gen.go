package main

import (
	"fmt"
	"math/rand"
	"slices"

	"homeguard/internal/api"
	"homeguard/internal/corpus"
	"homeguard/internal/symexec"
)

// Everything the benchmark sends is generated here from the seed: the
// same seed gives byte-identical inputs, and the servers receive only
// Groovy sources and configs on the wire, never corpus names.

// Operation kinds of the install workloads.
const (
	opInstall byte = iota
	opReconfigure
	opThreats
)

const (
	appsPerHome = 12
	// Mix weights install:reconfigure:threats.
	mixInstall, mixReconfigure, mixThreats = 8, 1, 1
)

// poolApp is one app of the install pool: its Groovy source and the
// name extraction gives it (the name reconfigure calls address).
type poolApp struct {
	Name   string
	Source string
}

// op is one operation of a home's sequence; App indexes the pool.
type op struct {
	Kind byte
	App  int
}

// homePlan is one home's ID, apps (pool indices, install order) and the
// operation sequence the timed phase sends for it.
type homePlan struct {
	ID   string
	Apps []int
	Ops  []op
}

// installPlan is the whole input of an install workload.
type installPlan struct {
	Pool    []poolApp
	Preload []homePlan
	Homes   []homePlan
	Ops     int // total timed operations
}

// installPool returns the demo and benign corpus apps in name order,
// each with the name its definition() gives it.
func installPool() ([]poolApp, error) {
	var pool []poolApp
	for _, a := range corpus.All() {
		if a.Category != corpus.Demo && a.Category != corpus.Benign {
			continue
		}
		res, err := symexec.Extract(a.Source, "")
		if err != nil {
			return nil, fmt.Errorf("corpus app %s does not extract: %w", a.Name, err)
		}
		pool = append(pool, poolApp{Name: res.App.Name, Source: a.Source})
	}
	return pool, nil
}

// genInstallPlan draws the preload homes and at least minOps timed
// operations. Home IDs carry the seed, so runs with different seeds
// never share a home namespace.
func genInstallPlan(seed int64, minOps int) (*installPlan, error) {
	pool, err := installPool()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	p := &installPlan{Pool: pool, Preload: genPreload(rng, len(pool), seed)}
	for i := 0; p.Ops < minOps; i++ {
		h := genHome(rng, len(pool), fmt.Sprintf("pb%d-t%05d", seed, i))
		p.Homes = append(p.Homes, h)
		p.Ops += len(h.Ops)
	}
	return p, nil
}

// genPreload returns homes that together install every ordered pair of
// pool apps, so the timed phase finds every pair verdict it needs in the
// cache (a verdict is keyed by the pair in install order). The shuffled
// pool is cut into blocks of half a home; each ordered pair of blocks
// (i, j) becomes a home installing block i then block j, both reversed
// when i > j, so pairs inside a block are covered in both orders too.
func genPreload(rng *rand.Rand, poolSize int, seed int64) []homePlan {
	perm := rng.Perm(poolSize)
	var blocks [][]int
	for i := 0; i < len(perm); i += appsPerHome / 2 {
		blocks = append(blocks, perm[i:min(i+appsPerHome/2, len(perm))])
	}
	var homes []homePlan
	for i := range blocks {
		for j := range blocks {
			if i == j {
				continue
			}
			apps := append(append([]int(nil), blocks[i]...), blocks[j]...)
			if i > j {
				slices.Reverse(apps[:len(blocks[i])])
				slices.Reverse(apps[len(blocks[i]):])
			}
			homes = append(homes, homePlan{ID: fmt.Sprintf("pb%d-p%04d", seed, len(homes)), Apps: apps})
		}
	}
	return homes
}

// genHome draws appsPerHome distinct apps and an operation sequence in
// the install:reconfigure:threats mix. Reconfigure and threats only
// follow the first install, and the sequence ends with the last
// install, so every operation is well-formed.
func genHome(rng *rand.Rand, poolSize int, id string) homePlan {
	h := homePlan{ID: id, Apps: rng.Perm(poolSize)[:appsPerHome]}
	installed := 0
	for installed < appsPerHome {
		k := rng.Intn(mixInstall + mixReconfigure + mixThreats)
		switch {
		case installed == 0 || k < mixInstall:
			h.Ops = append(h.Ops, op{Kind: opInstall, App: h.Apps[installed]})
			installed++
		case k < mixInstall+mixReconfigure:
			h.Ops = append(h.Ops, op{Kind: opReconfigure, App: h.Apps[rng.Intn(installed)]})
		default:
			h.Ops = append(h.Ops, op{Kind: opThreats})
		}
	}
	return h
}

// installItems is the InstallBatch body that preloads one home.
func (p *installPlan) installItems(h homePlan) []api.InstallItem {
	items := make([]api.InstallItem, len(h.Apps))
	for i, a := range h.Apps {
		items[i] = api.InstallItem{Source: p.Pool[a].Source}
	}
	return items
}

// ---------- synthetic lock-app store ----------

const (
	storeApps       = 2000
	storeDevicePool = 160 // the BenchmarkIncrementalAudit regime
	storeBatch      = storeApps / 100
	// storeChunk keeps each preload SubmitApps response well under the
	// 4 MiB RPC frame cap, so the preload fits either edge.
	storeChunk = 250
)

// lockAppTemplate is a one-rule lock app: when the sensor lock reports
// the trigger state, command the actuator lock. Two apps interfere only
// when their bound devices collide, which keeps the store sparse. The
// description carries the version, so every upsert is a source the
// extraction cache has never seen.
const lockAppTemplate = `definition(name: "%s", namespace: "perfbench", author: "perfbench",
    description: "Synthetic lock automation, version %d.",
    category: "Safety & Security")
input "sensor1", "capability.lock", title: "Lock to watch"
input "actuator1", "capability.lock", title: "Lock to command"
def installed() { subscribe(sensor1, "lock", onLock) }
def updated() { unsubscribe(); subscribe(sensor1, "lock", onLock) }
def onLock(evt) {
    if (evt.value == "%s") {
        actuator1.%s()
    }
}
`

// genStoreApp draws version v of store app i: new device picks, a new
// trigger state and a never-seen source.
func genStoreApp(rng *rand.Rand, i, v int) api.StoreApp {
	name := fmt.Sprintf("SynthLock%05d", i)
	state, cmd := "locked", "unlock"
	if rng.Intn(2) == 0 {
		state, cmd = "unlocked", "lock"
	}
	return api.StoreApp{
		Name:   name,
		Source: fmt.Sprintf(lockAppTemplate, name, v, state, cmd),
		Config: &api.Config{Devices: map[string]string{
			"sensor1":   fmt.Sprintf("dev-%04d", rng.Intn(storeDevicePool)),
			"actuator1": fmt.Sprintf("dev-%04d", rng.Intn(storeDevicePool)),
		}},
	}
}

// storePlan is the whole input of the store-churn workload: the initial
// store, the timed 1% upsert batches, and the store they leave behind.
type storePlan struct {
	Initial []api.StoreApp
	Batches [][]api.StoreApp
	// Final holds every app at its last version, in store order (an
	// update keeps the app's position).
	Final []api.StoreApp
}

// genStorePlan builds the initial store and nBatches churn batches. Each
// batch re-submits the next storeBatch apps in store order, so the churn
// walks the whole store.
func genStorePlan(seed int64, nBatches int) *storePlan {
	rng := rand.New(rand.NewSource(seed))
	p := &storePlan{Initial: make([]api.StoreApp, storeApps)}
	for i := range p.Initial {
		p.Initial[i] = genStoreApp(rng, i, 0)
	}
	p.Final = append([]api.StoreApp(nil), p.Initial...)
	version := make([]int, storeApps)
	for b := 0; b < nBatches; b++ {
		batch := make([]api.StoreApp, storeBatch)
		for j := range batch {
			i := (b*storeBatch + j) % storeApps
			version[i]++
			batch[j] = genStoreApp(rng, i, version[i])
			p.Final[i] = batch[j]
		}
		p.Batches = append(p.Batches, batch)
	}
	return p
}
