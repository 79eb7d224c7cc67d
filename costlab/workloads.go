package main

import (
	"fmt"
	"math/rand"
	"time"

	"cachecost/internal/cache"
	"cachecost/internal/core"
	"cachecost/internal/flight"
	"cachecost/internal/meter"
	"cachecost/internal/remotecache"
	"cachecost/internal/rpc"
	"cachecost/internal/storage"
	"cachecost/internal/storage/sql"
	"cachecost/internal/telemetry"
	"cachecost/internal/workload"
)

// spec is one named workload: a traffic mix, its key population and the
// deployment every architecture is priced on.
type spec struct {
	name string
	// catalog selects the rich-object CatalogService instead of
	// KVService.
	catalog bool
	keys    int
	gen     func(seed int64) workload.Generator
	// preloadSize is a key's preloaded value size (KV workloads).
	preloadSize func(key int) int
	// cacheBytes is the app (Linked) and remote cache budget.
	cacheBytes int64
	// observe arms the telemetry registry and flight recorder the way
	// cmd/appserver does.
	observe bool
	// warmup is how many ops each deployment serves before it is timed.
	warmup int
	// rounds is how many windows each architecture is measured in.
	// Rounds interleave the architectures, rotating their order, and
	// end-to-end figures are medians over rounds, so a burst of outside
	// load lands in one window rather than in a whole cell. Each Base
	// window needs at least a thousand samples for its p99.
	rounds int
}

// appReplicas is the number of application servers every deployment
// bills (linked-cache memory is paid once per server).
const appReplicas = 3

// catalogTables is rich-object's governed-table population.
const catalogTables = 300

var specs = []*spec{
	{
		// Synthetic §5.3 traffic whose working set (about 4.2 MiB as the
		// caches budget it) fits the 8 MiB caches: the cache hit paths do
		// most of the work and storage sees writes and their refills.
		name: "kv-hot",
		keys: 4000,
		gen: func(seed int64) workload.Generator {
			return workload.NewSynthetic(workload.SyntheticConfig{Keys: 4000, Alpha: 1.2, ReadRatio: 0.95, ValueSize: 1024, Seed: seed})
		},
		preloadSize: func(int) int { return 1024 },
		cacheBytes:  8 << 20,
		warmup:      4000,
		rounds:      9,
	},
	{
		// Meta-like small-value trace whose working set (about 1.8 MiB
		// budgeted) overflows 120 KiB caches: storage SQL and raft
		// dominate, and it is the one workload that pays for the
		// observability planes.
		name: "kv-churn",
		keys: 20000,
		// workload.MetaKV's skew, write share and value sizes.
		gen: func(seed int64) workload.Generator {
			return newMix(seed, 20000, 0.9, 0.7, workload.MetaValueSize)
		},
		preloadSize: workload.MetaValueSize,
		cacheBytes:  120 << 10,
		observe:     true,
		warmup:      2000,
		rounds:      9,
	},
	{
		// Unity Catalog objects composed from 8 SQL queries per Base read,
		// cached as live objects (Linked) or serialized bytes (Remote).
		name:    "rich-object",
		catalog: true,
		keys:    catalogTables,
		// workload.Unity's default skew, read share and object sizes.
		gen: func(seed int64) workload.Generator {
			return newMix(seed, catalogTables, 1.05, 0.93, workload.UnityValueSize)
		},
		warmup: 300,
		rounds: 5,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// catalogSeed fixes rich-object's corpus.
const catalogSeed = 1

// popularitySeed fixes which keys are popular. Object sizes are
// heavy-tailed and access latencies multimodal, so a popularity order
// drawn per seed would let the hot set, not the code, move the figures;
// the seed draws the access sequence only.
const popularitySeed = 1

// mix is a Zipf-skewed read/write trace over a key population whose
// popularity order is fixed by popularitySeed: the program's trace
// generators with the seed confined to the op sequence.
type mix struct {
	rng       *rand.Rand
	zipf      *workload.ZipfSampler
	perm      []int
	readRatio float64
	size      func(key int) int
}

func newMix(seed int64, keys int, alpha, readRatio float64, size func(int) int) *mix {
	rng := rand.New(rand.NewSource(seed))
	return &mix{
		rng:       rng,
		zipf:      workload.NewZipfSampler(keys, alpha, rng),
		perm:      rand.New(rand.NewSource(popularitySeed)).Perm(keys),
		readRatio: readRatio,
		size:      size,
	}
}

// Name implements workload.Generator.
func (m *mix) Name() string { return "mix" }

// Next implements workload.Generator.
func (m *mix) Next() workload.Op {
	key := m.perm[m.zipf.Sample()]
	kind := workload.Write
	if m.rng.Float64() < m.readRatio {
		kind = workload.Read
	}
	return workload.Op{Kind: kind, Key: workload.KeyName(key), ValueSize: m.size(key)}
}

// catalogWorkingSet is the rich-object population's total object size,
// from which its caches are sized as the paper's figures size them.
func catalogWorkingSet() int64 {
	var ws int64
	for i := 0; i < catalogTables; i++ {
		ws += int64(workload.UnityValueSize(i))
	}
	return ws
}

func (sp *spec) preloadItems() []core.PreloadItem {
	items := make([]core.PreloadItem, sp.keys)
	for i := range items {
		items[i] = core.PreloadItem{Key: workload.KeyName(i), Size: sp.preloadSize(i)}
	}
	return items
}

// serviceConfig is the KV deployment of arch a on meter m.
func (sp *spec) serviceConfig(a core.Arch, m *meter.Meter) core.ServiceConfig {
	cfg := core.ServiceConfig{
		Arch:             a,
		Meter:            m,
		AppCacheBytes:    sp.cacheBytes,
		RemoteCacheBytes: sp.cacheBytes,
		AppReplicas:      appReplicas,
	}
	if sp.observe {
		reg := telemetry.NewRegistry()
		telemetry.RegisterMeter(reg, "meter", m)
		cfg.Telemetry = reg
		cfg.Flight = flight.New(flight.Config{CPUCoreMonthUSD: meter.GCP.CPUCoreMonth})
	}
	return cfg
}

// newMeter returns a meter on the thread-CPU clock, as the program's own
// runner meters: the driving goroutine is pinned to its OS thread.
func newMeter() *meter.Meter {
	m := meter.NewMeter()
	m.SetThreadCPUClock(true)
	return m
}

// deployment is one architecture deployed for one workload, with its
// lane and op stream. The timed run uses the program's in-process
// deployment; the traced run assembles one from public parts with a
// timing rpc.Conn at every seam.
type deployment struct {
	arch  core.Arch
	label string // "timed" or "traced"
	m     *meter.Meter
	st    *stream
	lane  *lane
	// cacheStats, blockStats and hitRatio read the deployment's cache
	// counters; nil where the deployment has no such cache or exposes
	// none.
	cacheStats func() cache.Stats
	blockStats func() cache.Stats
	hitRatio   func() float64
	// rate is the best observed throughput; it sizes each draw.
	rate float64
	chk  kvCheck
}

// deploy builds the timed deployment of arch a: the program's in-process
// KVService or CatalogService, driven by one lane.
func (sp *spec) deploy(a core.Arch, seed int64) (*deployment, error) {
	d := &deployment{arch: a, label: "timed", m: newMeter()}
	if sp.catalog {
		ws := catalogWorkingSet()
		svc, err := core.NewCatalogService(core.CatalogServiceConfig{
			ServiceConfig: core.ServiceConfig{
				Arch:              a,
				Meter:             d.m,
				StorageCacheBytes: ws * 15 / 100,
				AppCacheBytes:     ws * 60 / 100,
				RemoteCacheBytes:  ws * 60 / 100,
				AppReplicas:       appReplicas,
			},
			Mode:   core.ModeObject,
			Tables: catalogTables,
			Seed:   catalogSeed,
		})
		if err != nil {
			return nil, err
		}
		d.st = newStream(sp.gen(seed), sp.keys, nil)
		d.lane = &lane{w: svc, hashReply: true}
		d.blockStats = func() cache.Stats { return svc.Node().LeaderDB().Store().CacheStats() }
		if a != core.Base {
			d.hitRatio = svc.CacheHitRatio
		}
		return d, nil
	}
	svc, err := core.NewKVService(sp.serviceConfig(a, d.m))
	if err != nil {
		return nil, err
	}
	if err := svc.Preload(sp.preloadItems()); err != nil {
		return nil, err
	}
	d.st = newStream(sp.gen(seed), sp.keys, sp.preloadSize)
	d.lane = &lane{w: svc}
	d.blockStats = func() cache.Stats { return svc.Node().LeaderDB().Store().CacheStats() }
	switch a {
	case core.Remote:
		d.cacheStats = svc.RemoteCacheServer().Stats
	case core.Linked:
		d.cacheStats = svc.LinkedCache().Stats
	}
	return d, nil
}

// deployTraced assembles the traced KV deployment of arch a from public
// parts: a storage node, (Remote) a cache node, and an application
// server wired to them over loopbacks wrapped in timing connections.
func (sp *spec) deployTraced(a core.Arch, seed int64) (*deployment, error) {
	d := &deployment{arch: a, label: "traced", m: newMeter()}
	base := sp.serviceConfig(a, d.m)
	// The block cache and replica count are core.ServiceConfig's
	// defaults, which the timed deployment uses.
	node := storage.NewNode(storage.Config{
		Replicas:        3,
		BlockCacheBytes: 8 << 20,
		Meter:           d.m,
		Telemetry:       base.Telemetry,
	})
	if err := node.Bootstrap([]string{"CREATE TABLE kvdata (k TEXT PRIMARY KEY, v BLOB)"}); err != nil {
		return nil, err
	}
	if err := bootstrapRows(node, sp.preloadItems()); err != nil {
		return nil, err
	}
	var rc *remotecache.Server
	if a == core.Remote {
		rc = remotecache.NewServer(remotecache.ServerConfig{
			CapacityBytes: sp.cacheBytes,
			Meter:         d.m,
			Name:          "remotecache",
			RPCCost:       rpc.DefaultCost,
			Telemetry:     base.Telemetry,
		})
		d.cacheStats = rc.Stats
	}
	appComp := d.m.Component("app")
	spans := &laneSpans{}
	eps := core.RemoteEndpoints{DB: &timedConn{
		next:  rpc.NewLoopback(node.Server(), appComp, meter.NewBurner(), rpc.DefaultCost),
		spans: spans, layer: layerStorage,
	}}
	if rc != nil {
		eps.Cache = &timedConn{
			next:  rpc.NewLoopback(rc.RPCServer(), appComp, meter.NewBurner(), rpc.DefaultCost),
			spans: spans, layer: layerCache,
		}
	}
	svc, err := core.NewKVServiceRemote(base, eps)
	if err != nil {
		return nil, err
	}
	if a == core.Linked {
		d.cacheStats = svc.LinkedCache().Stats
	}
	d.lane = &lane{w: svc, spans: spans}
	d.blockStats = func() cache.Stats { return node.LeaderDB().Store().CacheStats() }
	d.st = newStream(sp.gen(seed), sp.keys, sp.preloadSize)
	return d, nil
}

// bootstrapRows loads rows through the node's unmetered bootstrap path,
// in the statement shape KVService.Preload uses.
func bootstrapRows(node *storage.Node, items []core.PreloadItem) error {
	const chunk = 50
	for start := 0; start < len(items); start += chunk {
		end := min(start+chunk, len(items))
		stmt := "INSERT INTO kvdata (k, v) VALUES "
		params := make([]sql.Value, 0, 2*(end-start))
		for i := start; i < end; i++ {
			if i > start {
				stmt += ", "
			}
			stmt += "(?, ?)"
			params = append(params, sql.Text(items[i].Key), sql.Blob(core.ValueFor(items[i].Key, items[i].Size)))
		}
		if err := node.BootstrapExec(stmt, params...); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// drawFor extends the stream so the lane cannot run out within dur at
// up to four times the best rate seen, or within limit ops.
func (d *deployment) drawFor(dur time.Duration, limit int) error {
	need := limit
	if dur > 0 {
		need = int(4*d.rate*dur.Seconds()) + 256
	}
	return d.st.draw(d.lane.next + need)
}

// run drives one window and folds its throughput into the rate estimate.
func (d *deployment) run(dur time.Duration, limit int) (window, error) {
	if err := d.drawFor(dur, limit); err != nil {
		return window{}, err
	}
	w := drive(d.lane, d.st, dur, limit)
	if w.wall > 0 {
		d.rate = max(d.rate, w.opsPerSec())
	}
	return w, nil
}
