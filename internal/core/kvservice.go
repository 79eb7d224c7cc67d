package core

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"cachecost/internal/admission"
	"cachecost/internal/cluster"
	"cachecost/internal/consistency"
	"cachecost/internal/fault"
	"cachecost/internal/flight"
	"cachecost/internal/linkedcache"
	"cachecost/internal/meter"
	"cachecost/internal/remotecache"
	"cachecost/internal/rpc"
	"cachecost/internal/shardmgr"
	"cachecost/internal/storage"
	"cachecost/internal/storage/sql"
	"cachecost/internal/telemetry"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
)

// Fault-target names used when a ServiceConfig carries an Injector: the
// remote cache node and the in-process linked cache (whose "faults" model
// shard loss/restart of the cache an app replica carries).
const (
	CacheNode       = "cache0"
	LinkedCacheNode = "app.cache"
)

// StorageFaultNode is the fault-injection target name of the app→storage
// connection on in-process deployments. A Rule with StallWork against it
// burns metered work on every storage round trip, which the flight
// recorder observes as StageStorage time — the injected fault the tailwhy
// smoke test expects to dominate deadline exemplars.
const StorageFaultNode = "storage0"

// DegradedCounter is the meter counter that counts cache errors demoted
// to misses so the service keeps serving through cache loss.
const DegradedCounter = "cache.degraded"

// RetriesCounter is the meter counter bumped per cache-call retry.
const RetriesCounter = "rpc.retries"

// ShedCounter is the meter counter bumped when the admission gate
// refuses a request because its wait queue is full; the request gets a
// degraded cache-only answer instead of the full path.
const ShedCounter = "admission.shed"

// DeadlineExceededCounter is the meter counter bumped when a request's
// SLO deadline expired at or before admission.
const DeadlineExceededCounter = "admission.deadline"

// AdmissionConfig bounds the service's accepted work under overload: at
// most MaxInflight requests execute the full path concurrently, at most
// QueueDepth wait for a slot, and everything beyond — or anything whose
// propagated deadline expires first — is shed to a degraded cache-only
// answer. See internal/admission.
type AdmissionConfig struct {
	// MaxInflight is the number of concurrently admitted requests.
	// Required (> 0).
	MaxInflight int
	// QueueDepth bounds the wait queue; 0 sheds the instant all slots
	// are busy.
	QueueDepth int
}

// ServiceConfig assembles one architecture deployment for an experiment.
type ServiceConfig struct {
	// Arch selects the assembly.
	Arch Arch
	// Meter receives all component attributions. Required.
	Meter *meter.Meter

	// StorageReplicas is the database replication factor. Default 3.
	StorageReplicas int
	// StorageCacheBytes is the block cache per storage replica (s_D).
	// Default 8 MiB at experiment scale.
	StorageCacheBytes int64
	// AppCacheBytes is the linked cache budget (s_A). Used by Linked*
	// architectures. Default 8 MiB at experiment scale.
	AppCacheBytes int64
	// AppReplicas is the number of application servers the linked cache
	// is replicated/sharded over — it multiplies linked-cache memory in
	// the bill (the model's N_r). Default 1.
	AppReplicas int
	// RemoteCacheBytes is the remote cache budget, used by Remote.
	// Default 8 MiB at experiment scale.
	RemoteCacheBytes int64
	// CacheNodes splits the Remote architecture's cache tier over this
	// many nodes (RemoteCacheBytes divided evenly; same total memory
	// bill). Default 1: the classic single-node wiring, byte-identical
	// to previous behaviour. With > 1 nodes the client routes through a
	// cluster.ShardMap — epoch-stamped keys, replica fan-out — whether
	// or not a shard manager is reshaping it.
	CacheNodes int
	// CacheNodeConcurrency, when > 0, caps each cache node's
	// concurrently served requests (remotecache.ServerConfig's
	// MaxConcurrent): the fixed per-node serving capacity that makes a
	// hot node actually saturate in-process instead of silently
	// borrowing host CPU.
	CacheNodeConcurrency int
	// CacheNodeServeTime, when > 0, occupies one of a cache node's
	// serving slots for that wall-clock duration per request
	// (remotecache.ServerConfig's ServeTime). Together with
	// CacheNodeConcurrency this fixes each node's serving rate, so a
	// node whose demand exceeds it queues in wall-clock time — the
	// physics the hotshard figure measures.
	CacheNodeServeTime time.Duration
	// ShardMgr, when non-nil, runs dynamic shard management over the
	// CacheNodes tier: hot-key detection on the serve path, replica
	// fan-out for hot shards, live migration off overloaded nodes.
	// Requires CacheNodes > 1.
	ShardMgr *ShardMgrConfig
	// RPCCost models transport overhead on every hop.
	RPCCost rpc.CostModel
	// DiskPenaltyPerByte tunes the storage disk model (0 = default).
	DiskPenaltyPerByte float64
	// DiskPenaltyPerOp tunes the storage disk model's per-access charge
	// (0 = default).
	DiskPenaltyPerOp int
	// StorageDurable switches the storage engine to the durable tiered
	// mode (WAL + bloom-filtered SSTables): StorageCacheBytes becomes
	// the DRAM value-tier budget per replica, cold values live on the
	// disk tier, and disk residency is billed at the storage rate.
	StorageDurable bool
	// StorageFrontendWork tunes the storage node's per-statement SQL
	// front-end charge (0 = default; used by the calibration ablation).
	StorageFrontendWork int
	// TTL is the freshness bound for the LinkedTTL architecture.
	// Default 500ms.
	TTL time.Duration

	// Faults, when non-nil, interposes the fault-injection layer on the
	// cache tier: the Remote architecture's cache connection is wrapped
	// under the node name CacheNode, and the Linked architecture's
	// in-process cache is gated under LinkedCacheNode. Cache errors are
	// demoted to misses (counted under DegradedCounter), so the service
	// keeps serving through cache loss as the paper's availability
	// discussion assumes. In-process deployments additionally wrap the
	// app→storage connection under StorageFaultNode, so storage stalls
	// can be injected for the tail-attribution experiments.
	Faults *fault.Injector
	// CacheRetry, when non-nil, wraps the Remote architecture's cache
	// connection in an rpc.RetryConn with this policy (retries are
	// counted under RetriesCounter).
	CacheRetry *rpc.RetryPolicy
	// Admission, when non-nil, interposes an SLO-aware admission gate on
	// the client-facing read/write path: requests past MaxInflight wait
	// in a bounded queue, and overflow or deadline expiry is shed to a
	// degraded cache-only answer (ShedCounter / DeadlineExceededCounter).
	Admission *AdmissionConfig
	// RetrySeed drives the retry layer's jitter sequence. Default 1.
	RetrySeed int64

	// Tracer, when non-nil, records request-path spans and exact path
	// counters (hops, statements, cache messages, raft ships) for every
	// client operation. Nil disables tracing; the instrumented paths then
	// cost one pointer test per layer.
	Tracer *trace.Tracer

	// Flight, when non-nil, is the tail-latency flight recorder: every
	// front-door dispatch gets an always-on stage breakdown (queue,
	// admission, cache, storage, app) and, at completion, the recorder's
	// tail sampler decides whether to retain the request as an exemplar.
	// Nil disables recording; the fast path then costs one nil test per
	// dispatch.
	Flight *flight.Recorder

	// Telemetry, when non-nil, threads a metrics registry through every
	// layer of the deployment: per-message RPC histograms on each loopback
	// and on the storage/cache servers, pull collectors for the cache and
	// storage tiers, and fault-injection tallies. Nil disables telemetry;
	// the instrumented paths then cost one pointer test per record site.
	Telemetry *telemetry.Registry

	// Parallelism pre-builds that many worker lanes (Worker(i)) for the
	// concurrent experiment driver. Each lane has its own front door,
	// storage connection, cache client stack, fault decision stream and
	// attribution context, so concurrent workers share no per-request
	// mutable state beyond the (concurrency-safe) services themselves.
	// Default 1: only the classic single-threaded path, byte-identical
	// to previous behaviour. Supported for Base, Remote and Linked on
	// in-process deployments.
	Parallelism int
}

// ShardMgrConfig parameterizes the dynamic shard manager (see
// internal/shardmgr for the policy).
type ShardMgrConfig struct {
	// Shards is the logical shard count. Default 64.
	Shards int
	// MaxReplicas caps a hot shard's replica set. Default: CacheNodes.
	MaxReplicas int
	// TopK is the hot-key detector's per-stripe counter budget.
	// Default 32.
	TopK int
	// HandoffTicks is how many manager ticks a migration's double-read
	// window stays open. Default 2.
	HandoffTicks int
	// HotFrac is the manager's replication threshold (shardmgr.Config's
	// HotFrac). Zero keeps the manager default.
	HotFrac float64
	// MigrateFrac is the manager's migration threshold (shardmgr.Config's
	// MigrateFrac). Zero keeps the manager default.
	MigrateFrac float64
}

func (c *ServiceConfig) applyDefaults() {
	if c.StorageReplicas <= 0 {
		c.StorageReplicas = 3
	}
	if c.CacheNodes <= 0 {
		c.CacheNodes = 1
	}
	if c.StorageCacheBytes == 0 {
		c.StorageCacheBytes = 8 << 20
	}
	if c.AppCacheBytes == 0 {
		c.AppCacheBytes = 8 << 20
	}
	if c.AppReplicas <= 0 {
		c.AppReplicas = 1
	}
	if c.RemoteCacheBytes == 0 {
		c.RemoteCacheBytes = 8 << 20
	}
	if c.RPCCost == (rpc.CostModel{}) {
		c.RPCCost = rpc.DefaultCost
	}
	if c.TTL <= 0 {
		c.TTL = 500 * time.Millisecond
	}
	if c.RetrySeed == 0 {
		c.RetrySeed = 1
	}
	if c.Parallelism < 1 {
		c.Parallelism = 1
	}
}

// KVService is the synthetic/Meta-trace service: a key-value style
// application (one row per key in the kvdata table) deployed under one of
// the §2.4 architectures. The client-facing surface is itself an RPC
// server, so client↔app communication is paid like every other hop.
type KVService struct {
	cfg     ServiceConfig
	m       *meter.Meter
	appComp *meter.Component

	node *storage.Node
	db   *storage.Client

	rcServer *remotecache.Server
	rc       *remotecache.Client

	// Multi-node cache tier (CacheNodes > 1): servers by shard-map node
	// name, the shared placement map, and — when ShardMgr is configured
	// — the detector feeding the manager.
	rcServers map[string]*remotecache.Server
	smap      *cluster.ShardMap
	detector  *shardmgr.Detector
	shardMgr  *shardmgr.Manager
	retries   []*rpc.RetryConn // per-node retry layers (multi-node default lane)

	lc      *linkedcache.Cache[[]byte]
	vc      *consistency.VersionedCache[[]byte]
	oc      *consistency.OwnedCache[[]byte]
	tc      *consistency.TTLCache[[]byte]
	sharder *cluster.Sharder

	retry    *rpc.RetryConn // cache retry layer, when configured
	degraded *meter.Counter // cache errors demoted to misses

	// Admission control, when configured: one gate shared by every lane
	// (slots are a service-level resource), with shed/deadline counters
	// on both the meter (reset at the metered-window boundary, surfaced
	// in RunResult) and the telemetry registry (live scrapes).
	gate       *admission.Gate
	shedCtr    *meter.Counter
	dlCtr      *meter.Counter
	telShed    *telemetry.Counter
	telExpired *telemetry.Counter
	// Service-level cache accounting: reads that consulted the cache
	// tier and reads it served. Unlike the caches' internal stats these
	// see degraded (fault-skipped) lookups, so hit ratio falls as the
	// fault rate rises.
	cacheReads, cacheHits atomic.Int64

	front *rpc.Server // client-facing

	// def is the classic single-threaded lane (default fault stream, no
	// attribution context); lanes are the pre-built worker lanes when
	// Parallelism > 1.
	def   kvLane
	lanes []*kvLane

	// intendedNS is the default lane's pending intended arrival instant
	// (see KVWorker.SetIntended); the single-threaded open-loop driver is
	// its only writer and reader.
	intendedNS int64

	// obs, when set (before traffic starts), observes every successful
	// read — the elastic controller's demand feed.
	obs func(key string, size int64)
}

// kvLane is one request path through the service: a front door whose
// handlers are bound to this lane's private connections, fault decision
// stream and attribution context. The front door's dispatch window is
// opened on the lane's context, and the lane's loopbacks are bound to it
// so their charges inside that window burn untimed. The default lane
// (worker -1) attributes on a shared, meter-wide context — the classic
// single-threaded semantics; worker lanes give the concurrent driver
// contention-free, deterministic and tightly-attributed request paths on
// per-goroutine contexts.
type kvLane struct {
	w     int            // fault decision stream; -1 = default
	attr  *meter.AttrCtx // shared on the default lane, per-goroutine on workers
	front *rpc.Server
	db    *storage.Client
	rc    *remotecache.Client // Remote only
	retry *rpc.RetryConn      // Remote with CacheRetry only
}

// newDefaultLane returns the lane that mirrors the classic
// single-threaded service: the default fault stream and the meter-wide
// attribution context. finish gives it the shared connections.
func newDefaultLane(m *meter.Meter) kvLane {
	return kvLane{w: -1, attr: m.NewSharedAttrCtx()}
}

// NewKVService builds a single-process deployment: the storage node and
// (for Remote) the cache node are constructed in-process and wired over
// loopback transports. See NewKVServiceRemote for distributed wiring.
func NewKVService(cfg ServiceConfig) (*KVService, error) {
	cfg.applyDefaults()
	if cfg.Meter == nil {
		return nil, fmt.Errorf("core: ServiceConfig.Meter is required")
	}
	if cfg.ShardMgr != nil && cfg.CacheNodes < 2 {
		return nil, fmt.Errorf("core: ShardMgr requires CacheNodes > 1")
	}
	s := &KVService{cfg: cfg, m: cfg.Meter, def: newDefaultLane(cfg.Meter)}
	s.appComp = cfg.Meter.Component("app")

	s.node = storage.NewNode(storage.Config{
		Replicas:           cfg.StorageReplicas,
		BlockCacheBytes:    cfg.StorageCacheBytes,
		Meter:              cfg.Meter,
		DiskPenaltyPerByte: cfg.DiskPenaltyPerByte,
		DiskPenaltyPerOp:   cfg.DiskPenaltyPerOp,
		FrontendWork:       cfg.StorageFrontendWork,
		Durable:            cfg.StorageDurable,
		Tracer:             cfg.Tracer,
		Telemetry:          cfg.Telemetry,
	})
	// The app talks to storage over a loopback hop; the app pays its
	// client-side transport overhead. All in-process loopbacks share one
	// per-transport metrics family, so process-level scrapes see the
	// merged message stream.
	lbm := rpc.NewMetrics(cfg.Telemetry, "loopback")
	dbLoop := rpc.NewLoopback(s.node.Server(), s.appComp, meter.NewBurner(), cfg.RPCCost)
	dbLoop.SetAttrCtx(s.def.attr)
	dbLoop.SetMetrics(lbm)
	var dbConn rpc.Conn = dbLoop
	if cfg.Faults != nil {
		dbConn = cfg.Faults.Wrap(StorageFaultNode, dbConn)
	}
	s.db = storage.NewClient(dbConn)

	var cacheConn rpc.Conn
	if cfg.Arch == Remote {
		if cfg.CacheNodes > 1 {
			if err := s.buildCacheTier(); err != nil {
				return nil, err
			}
		} else {
			s.rcServer = remotecache.NewServer(remotecache.ServerConfig{
				CapacityBytes: cfg.RemoteCacheBytes,
				Meter:         cfg.Meter,
				Name:          "remotecache",
				RPCCost:       cfg.RPCCost,
				Tracer:        cfg.Tracer,
				Telemetry:     cfg.Telemetry,
				MaxConcurrent: cfg.CacheNodeConcurrency,
				ServeTime:     cfg.CacheNodeServeTime,
			})
			cacheLoop := rpc.NewLoopback(s.rcServer.RPCServer(), s.appComp, meter.NewBurner(), cfg.RPCCost)
			cacheLoop.SetAttrCtx(s.def.attr)
			cacheLoop.SetMetrics(lbm)
			cacheConn = cacheLoop
		}
	}
	if err := s.finish(cacheConn); err != nil {
		return nil, err
	}
	if err := s.node.Bootstrap([]string{
		"CREATE TABLE kvdata (k TEXT PRIMARY KEY, v BLOB)",
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// RemoteEndpoints carries pre-established connections to already-running
// cluster components, for distributed deployments (cmd/appserver).
type RemoteEndpoints struct {
	// DB connects to a storage node (cmd/storeserver).
	DB rpc.Conn
	// Cache connects to a remote cache node (cmd/cacheserver); required
	// only for the Remote architecture.
	Cache rpc.Conn
}

// NewKVServiceRemote builds an application server against remote storage
// and cache nodes. The schema is created if missing; preloading goes
// through SQL (the remote node's metering is its own concern).
func NewKVServiceRemote(cfg ServiceConfig, eps RemoteEndpoints) (*KVService, error) {
	cfg.applyDefaults()
	if cfg.Meter == nil {
		return nil, fmt.Errorf("core: ServiceConfig.Meter is required")
	}
	if eps.DB == nil {
		return nil, fmt.Errorf("core: RemoteEndpoints.DB is required")
	}
	if cfg.Arch == Remote && eps.Cache == nil {
		return nil, fmt.Errorf("core: the Remote architecture needs RemoteEndpoints.Cache")
	}
	if cfg.Parallelism > 1 {
		return nil, fmt.Errorf("core: Parallelism > 1 requires an in-process deployment")
	}
	if cfg.CacheNodes > 1 {
		return nil, fmt.Errorf("core: CacheNodes > 1 requires an in-process deployment")
	}
	s := &KVService{cfg: cfg, m: cfg.Meter, def: newDefaultLane(cfg.Meter)}
	s.appComp = cfg.Meter.Component("app")
	s.db = storage.NewClient(eps.DB)
	if err := s.finish(eps.Cache); err != nil {
		return nil, err
	}
	if _, err := s.db.Exec("CREATE TABLE IF NOT EXISTS kvdata (k TEXT PRIMARY KEY, v BLOB)"); err != nil {
		return nil, err
	}
	return s, nil
}

// cacheNodeName is the shard-map name of cache node i ("c0", "c1", …).
func cacheNodeName(i int) string { return "c" + strconv.Itoa(i) }

// CacheFaultNode is the fault-injection target name of cache node i in
// a multi-node tier ("cache0" matches the single-node CacheNode).
func CacheFaultNode(i int) string { return "cache" + strconv.Itoa(i) }

// buildCacheTier constructs the CacheNodes > 1 remote tier: one server
// per node (each metered as "remotecache.c<i>", so the bill's
// remotecache rollup is unchanged), the shared shard map seeded from a
// consistent-hash ring, and — when ShardMgr is configured — the hot-key
// detector on every node's serve path plus the manager that reshapes
// the map. The total memory bill equals the single-node tier's:
// RemoteCacheBytes split evenly.
func (s *KVService) buildCacheTier() error {
	cfg := s.cfg
	names := make([]string, cfg.CacheNodes)
	for i := range names {
		names[i] = cacheNodeName(i)
	}
	shards, topK, maxReplicas, handoffTicks := 64, 32, cfg.CacheNodes, 2
	if mc := cfg.ShardMgr; mc != nil {
		if mc.Shards > 0 {
			shards = mc.Shards
		}
		if mc.TopK > 0 {
			topK = mc.TopK
		}
		if mc.MaxReplicas > 0 {
			maxReplicas = mc.MaxReplicas
		}
		if mc.HandoffTicks > 0 {
			handoffTicks = mc.HandoffTicks
		}
		s.detector = shardmgr.NewDetector(topK)
	}
	smap, err := cluster.NewShardMap(shards, names, 64)
	if err != nil {
		return err
	}
	s.smap = smap
	perNode := cfg.RemoteCacheBytes / int64(cfg.CacheNodes)
	s.rcServers = make(map[string]*remotecache.Server, cfg.CacheNodes)
	var hot remotecache.KeyRecorder
	if s.detector != nil {
		hot = s.detector
	}
	for _, n := range names {
		s.rcServers[n] = remotecache.NewServer(remotecache.ServerConfig{
			CapacityBytes: perNode,
			Meter:         cfg.Meter,
			Name:          "remotecache." + n,
			RPCCost:       cfg.RPCCost,
			Tracer:        cfg.Tracer,
			Telemetry:     cfg.Telemetry,
			MaxConcurrent: cfg.CacheNodeConcurrency,
			ServeTime:     cfg.CacheNodeServeTime,
			Hot:           hot,
		})
	}
	if cfg.ShardMgr != nil {
		mgr, err := shardmgr.New(shardmgr.Config{
			Map:          smap,
			Detector:     s.detector,
			Registry:     cfg.Telemetry,
			MaxReplicas:  maxReplicas,
			HandoffTicks: handoffTicks,
			HotFrac:      cfg.ShardMgr.HotFrac,
			MigrateFrac:  cfg.ShardMgr.MigrateFrac,
		})
		if err != nil {
			return err
		}
		s.shardMgr = mgr
	}
	return nil
}

// routedCacheClient builds one lane's client stack over the multi-node
// tier: a private loopback per node, fault wrapping per node (targets
// CacheFaultNode(i); worker lanes draw from their own decision
// streams), a per-node retry layer, and the shard-map router on top.
func (s *KVService) routedCacheClient(lbm *rpc.Metrics, attr *meter.AttrCtx, worker int) (*remotecache.Client, []*rpc.RetryConn, error) {
	cfg := s.cfg
	conns := make(map[string]rpc.Conn, cfg.CacheNodes)
	var retries []*rpc.RetryConn
	for i := 0; i < cfg.CacheNodes; i++ {
		n := cacheNodeName(i)
		lb := rpc.NewLoopback(s.rcServers[n].RPCServer(), s.appComp, meter.NewBurner(), cfg.RPCCost)
		lb.SetAttrCtx(attr)
		lb.SetMetrics(lbm)
		var conn rpc.Conn = lb
		if cfg.Faults != nil {
			if worker < 0 {
				conn = cfg.Faults.Wrap(CacheFaultNode(i), conn)
			} else {
				fc := cfg.Faults.WrapWorker(CacheFaultNode(i), worker, conn)
				fc.SetAttrCtx(attr)
				conn = fc
			}
		}
		if cfg.CacheRetry != nil {
			policy := *cfg.CacheRetry
			if policy.RetryCounter == nil {
				policy.RetryCounter = s.m.Counter(RetriesCounter)
			}
			seed := cfg.RetrySeed + int64(worker+1)*int64(cfg.CacheNodes) + int64(i)
			rt := rpc.NewRetryConn(conn, policy, seed, s.appComp, meter.NewBurner())
			rt.SetAttrCtx(attr)
			retries = append(retries, rt)
			conn = rt
		}
		conns[n] = conn
	}
	c, err := remotecache.NewRoutedClient(conns, s.smap)
	if err != nil {
		return nil, nil, err
	}
	c.Degrade(s.degraded)
	c.SetTelemetry(cfg.Telemetry)
	return c, retries, nil
}

// finish wires the architecture's cache layer and the client-facing front
// door. cacheConn is non-nil only for the Remote architecture.
func (s *KVService) finish(cacheConn rpc.Conn) error {
	cfg := s.cfg
	s.degraded = s.m.Counter(DegradedCounter)
	if cfg.Faults != nil {
		cfg.Faults.RegisterTelemetry(cfg.Telemetry)
	}
	if cfg.Admission != nil {
		if cfg.Admission.MaxInflight <= 0 {
			return fmt.Errorf("core: AdmissionConfig.MaxInflight must be positive")
		}
		s.gate = admission.NewGate(cfg.Admission.MaxInflight, cfg.Admission.QueueDepth, nil)
		s.shedCtr = s.m.Counter(ShedCounter)
		s.dlCtr = s.m.Counter(DeadlineExceededCounter)
		s.telShed = cfg.Telemetry.Counter("admission.shed")
		s.telExpired = cfg.Telemetry.Counter("admission.deadline_exceeded")
		if cfg.Telemetry != nil {
			gate := s.gate
			cfg.Telemetry.RegisterCollector("admission", func(emit func(telemetry.Sample)) {
				st := gate.Stats()
				emit(telemetry.Sample{Name: "admission.inflight", Kind: telemetry.KindGauge, Value: float64(st.Inflight)})
				emit(telemetry.Sample{Name: "admission.waiting", Kind: telemetry.KindGauge, Value: float64(st.Waiting)})
				emit(telemetry.Sample{Name: "admission.offered", Kind: telemetry.KindCounter, Value: float64(st.Offered)})
				emit(telemetry.Sample{Name: "admission.admitted", Kind: telemetry.KindCounter, Value: float64(st.Admitted)})
			})
		}
	}
	switch cfg.Arch {
	case Remote:
		if s.smap != nil {
			// Multi-node tier: the default lane gets its own routed client
			// stack (per-node loopback + faults + retries under the map).
			rc, retries, err := s.routedCacheClient(rpc.NewMetrics(cfg.Telemetry, "loopback"), s.def.attr, -1)
			if err != nil {
				return err
			}
			s.rc = rc
			s.retries = retries
			break
		}
		// Robustness layering, innermost first: fault injection at the
		// cache node, budgeted retries above it, graceful degradation in
		// the client above that — the stack a production lookaside
		// client carries.
		if cfg.Faults != nil {
			cacheConn = cfg.Faults.Wrap(CacheNode, cacheConn)
		}
		if cfg.CacheRetry != nil {
			policy := *cfg.CacheRetry
			if policy.RetryCounter == nil {
				policy.RetryCounter = s.m.Counter(RetriesCounter)
			}
			s.retry = rpc.NewRetryConn(cacheConn, policy, cfg.RetrySeed, s.appComp, meter.NewBurner())
			cacheConn = s.retry
		}
		s.rc = remotecache.NewSingleClient(cacheConn)
		s.rc.Degrade(s.degraded)
		s.rc.SetTelemetry(cfg.Telemetry)
	case Linked:
		s.lc = linkedcache.New(linkedcache.Config{
			CapacityBytes: cfg.AppCacheBytes,
			Meter:         cfg.Meter,
			Name:          "app.cache",
			Telemetry:     cfg.Telemetry,
		}, func(k string, v []byte) int64 { return int64(len(k) + len(v) + 64) })
		s.scaleLinkedMemory()
	case LinkedVersion:
		s.vc = consistency.NewVersionedCache[[]byte](linkedcache.Config{
			CapacityBytes: cfg.AppCacheBytes,
			Meter:         cfg.Meter,
			Name:          "app.cache",
			Telemetry:     cfg.Telemetry,
		}, func(k string, v []byte) int64 { return int64(len(k) + len(v) + 64) })
		s.scaleLinkedMemory()
	case LinkedOwned:
		s.sharder = cluster.NewSharder(64)
		s.oc = consistency.NewOwnedCache[[]byte]("app0", s.sharder, linkedcache.Config{
			CapacityBytes: cfg.AppCacheBytes,
			Meter:         cfg.Meter,
			Name:          "app.cache",
			Telemetry:     cfg.Telemetry,
		}, func(k string, v []byte) int64 { return int64(len(k) + len(v) + 64) })
		s.scaleLinkedMemory()
	case LinkedTTL:
		s.tc = consistency.NewTTLCache[[]byte](linkedcache.Config{
			CapacityBytes: cfg.AppCacheBytes,
			Meter:         cfg.Meter,
			Name:          "app.cache",
			Telemetry:     cfg.Telemetry,
		}, cfg.TTL, func(k string, v []byte) int64 { return int64(len(k) + len(v) + 64) })
		s.scaleLinkedMemory()
	}

	s.def.db, s.def.rc, s.def.retry = s.db, s.rc, s.retry
	s.front = s.newFront(&s.def)
	s.def.front = s.front

	if cfg.Parallelism > 1 {
		return s.buildLanes()
	}
	return nil
}

// newFront builds a client-facing front door whose handlers run on lane l.
func (s *KVService) newFront(l *kvLane) *rpc.Server {
	front := rpc.NewFrontServer(l.attr, s.appComp, meter.NewBurner(), s.cfg.RPCCost)
	if s.cfg.Flight != nil {
		front.SetFlight(s.cfg.Flight.Scope(s.cfg.Arch.String()))
	}
	front.HandleCtx("app.Read", func(sc trace.SpanContext, req []byte) ([]byte, error) { return s.handleRead(l, sc, req) })
	front.HandleCtx("app.Write", func(sc trace.SpanContext, req []byte) ([]byte, error) { return s.handleWrite(l, sc, req) })
	front.HandleCtx("app.ReadBatch", func(sc trace.SpanContext, req []byte) ([]byte, error) { return s.handleReadBatch(l, sc, req) })
	front.HandleCtx("app.WriteBatch", func(sc trace.SpanContext, req []byte) ([]byte, error) { return s.handleWriteBatch(l, sc, req) })
	return front
}

// buildLanes pre-builds cfg.Parallelism worker lanes. Each lane owns a
// private storage connection and (for Remote) a private cache client
// stack — loopback, worker-scoped fault stream, worker-seeded retry layer
// — all bound to the lane's attribution context. Keeping the stacks
// private is what makes per-worker fault schedules deterministic: a
// worker's decisions never interleave into another worker's stream.
func (s *KVService) buildLanes() error {
	cfg := s.cfg
	switch cfg.Arch {
	case Base, Remote, Linked:
	default:
		return fmt.Errorf("core: Parallelism > 1 is not supported for the %v architecture", cfg.Arch)
	}
	if s.node == nil {
		return fmt.Errorf("core: Parallelism > 1 requires an in-process deployment")
	}
	s.lanes = make([]*kvLane, cfg.Parallelism)
	lbm := rpc.NewMetrics(cfg.Telemetry, "loopback")
	for i := range s.lanes {
		l := &kvLane{w: i, attr: s.m.NewAttrCtx()}
		dbLoop := rpc.NewLoopback(s.node.Server(), s.appComp, meter.NewBurner(), cfg.RPCCost)
		dbLoop.SetAttrCtx(l.attr)
		dbLoop.SetMetrics(lbm)
		var dbConn rpc.Conn = dbLoop
		if cfg.Faults != nil {
			fc := cfg.Faults.WrapWorker(StorageFaultNode, i, dbConn)
			fc.SetAttrCtx(l.attr)
			dbConn = fc
		}
		l.db = storage.NewClient(dbConn)
		if cfg.Arch == Remote && s.smap != nil {
			rc, retries, err := s.routedCacheClient(lbm, l.attr, i)
			if err != nil {
				return err
			}
			l.rc = rc
			s.retries = append(s.retries, retries...)
		} else if cfg.Arch == Remote {
			lb := rpc.NewLoopback(s.rcServer.RPCServer(), s.appComp, meter.NewBurner(), cfg.RPCCost)
			lb.SetAttrCtx(l.attr)
			lb.SetMetrics(lbm)
			var cacheConn rpc.Conn = lb
			if cfg.Faults != nil {
				fc := cfg.Faults.WrapWorker(CacheNode, i, cacheConn)
				fc.SetAttrCtx(l.attr)
				cacheConn = fc
			}
			if cfg.CacheRetry != nil {
				policy := *cfg.CacheRetry
				if policy.RetryCounter == nil {
					policy.RetryCounter = s.m.Counter(RetriesCounter)
				}
				rt := rpc.NewRetryConn(cacheConn, policy, cfg.RetrySeed+int64(i), s.appComp, meter.NewBurner())
				rt.SetAttrCtx(l.attr)
				l.retry = rt
				cacheConn = rt
			}
			l.rc = remotecache.NewSingleClient(cacheConn)
			l.rc.Degrade(s.degraded)
			l.rc.SetTelemetry(cfg.Telemetry)
		}
		l.front = s.newFront(l)
		s.lanes[i] = l
	}
	return nil
}

// KVWorker is one pre-built parallel lane of a KVService, handed to one
// driver goroutine. Its Read/Write go through the lane's own front door,
// so every hop's transport charge, fault decision and retry draw stays on
// this worker's deterministic stream.
type KVWorker struct {
	s *KVService
	l *kvLane
	// intendedNS is the next operation's intended arrival instant (unix
	// nanoseconds), set by the open-loop driver via SetIntended before
	// each op. The lane's driver goroutine is the only writer and reader,
	// so a plain field suffices. Zero (closed loop) leaves the flight
	// recorder's queue stage at zero.
	intendedNS int64
}

// SetIntended records the next operation's intended arrival instant (the
// open-loop schedule slot). The flight recorder measures queue wait —
// schedule slip before the handler started — and intended-clock latency
// from it. The zero time clears it.
func (w *KVWorker) SetIntended(t time.Time) {
	if t.IsZero() {
		w.intendedNS = 0
		return
	}
	w.intendedNS = t.UnixNano()
}

// withIntended stamps the pending intended instant (if any) onto a fresh
// request context.
func (w *KVWorker) withIntended(sc trace.SpanContext) trace.SpanContext {
	if w.intendedNS != 0 {
		return sc.WithIntendedUnixNano(w.intendedNS)
	}
	return sc
}

// Worker returns lane i. The service must have been built with
// Parallelism > i.
func (s *KVService) Worker(i int) (ServiceWorker, error) {
	if i < 0 || i >= len(s.lanes) {
		return nil, fmt.Errorf("core: worker %d of %d-lane service", i, len(s.lanes))
	}
	return &KVWorker{s: s, l: s.lanes[i]}, nil
}

// Read drives a client read through the worker's lane. Each worker's
// requests open their own root span, so concurrent traces never share
// spans.
func (w *KVWorker) Read(key string) ([]byte, error) {
	sc, act := w.s.cfg.Tracer.StartRequest("read")
	v, err := frontRead(w.withIntended(sc), w.l.front, key)
	act.End()
	return v, err
}

// Write drives a client write through the worker's lane.
func (w *KVWorker) Write(key string, value []byte) error {
	sc, act := w.s.cfg.Tracer.StartRequest("write")
	err := frontWrite(w.withIntended(sc), w.l.front, key, value)
	act.End()
	return err
}

// ReadDeadline implements DeadlineWorker: the deadline rides the span
// context through the front door (and any transport) to the admission
// gate.
func (w *KVWorker) ReadDeadline(key string, deadline time.Time) ([]byte, error) {
	sc, act := w.s.cfg.Tracer.StartRequest("read")
	v, err := frontRead(w.withIntended(sc).WithDeadline(deadline), w.l.front, key)
	act.End()
	return v, err
}

// WriteDeadline implements DeadlineWorker.
func (w *KVWorker) WriteDeadline(key string, value []byte, deadline time.Time) error {
	sc, act := w.s.cfg.Tracer.StartRequest("write")
	err := frontWrite(w.withIntended(sc).WithDeadline(deadline), w.l.front, key, value)
	act.End()
	return err
}

// scaleLinkedMemory bills the linked cache once per application server.
// Tiers that can resize at runtime route through SetBilledReplicas so a
// later Resize re-prices budget × replicas instead of reverting to the
// construction-time level; the others price the static configuration
// directly.
func (s *KVService) scaleLinkedMemory() {
	switch {
	case s.lc != nil:
		s.lc.SetBilledReplicas(s.cfg.AppReplicas)
	case s.tc != nil:
		s.tc.SetBilledReplicas(s.cfg.AppReplicas)
	default:
		s.m.Component("app.cache").SetMemBytes(s.cfg.AppCacheBytes * int64(s.cfg.AppReplicas))
	}
}

// LinkedCache returns the Linked tier's cache, or nil on other
// architectures. The elastic controller resizes through it.
func (s *KVService) LinkedCache() *linkedcache.Cache[[]byte] { return s.lc }

// TTLTier returns the LinkedTTL tier's cache, or nil on other
// architectures.
func (s *KVService) TTLTier() *consistency.TTLCache[[]byte] { return s.tc }

// RemoteCacheServer returns the single-node Remote tier's cache server,
// or nil (other architectures, or CacheNodes > 1).
func (s *KVService) RemoteCacheServer() *remotecache.Server { return s.rcServer }

// SetAccessObserver installs a hook observing every successful read's
// key and approximate cached-entry footprint — the elastic controller's
// demand feed. Install it before traffic starts; it is read without
// synchronization on the hot path.
func (s *KVService) SetAccessObserver(fn func(key string, size int64)) { s.obs = fn }

// Front returns the client-facing RPC server.
func (s *KVService) Front() *rpc.Server { return s.front }

// ShardManager returns the dynamic shard manager (nil unless ShardMgr
// was configured). The experiment driver calls its Tick on the cadence
// it wants — ticks are not time-based, so runs stay deterministic.
func (s *KVService) ShardManager() *shardmgr.Manager { return s.shardMgr }

// ShardMap returns the multi-node tier's placement map (nil for
// single-node deployments).
func (s *KVService) ShardMap() *cluster.ShardMap { return s.smap }

// HotKeys returns the detector's current top-n served keys with their
// epoch stamps stripped (nil without a ShardMgr config).
func (s *KVService) HotKeys(n int) []shardmgr.HotKey {
	if s.detector == nil {
		return nil
	}
	hks := s.detector.TopK(n)
	for i := range hks {
		hks[i].Key = cluster.TrimEpoch(hks[i].Key)
	}
	return hks
}

// CacheNodeOps reports each cache node's served-request count, keyed by
// shard-map node name — the per-node load spread the hot-shard figure
// reports. Nil for single-node deployments.
func (s *KVService) CacheNodeOps() map[string]int64 {
	if s.rcServers == nil {
		return nil
	}
	out := make(map[string]int64, len(s.rcServers))
	for n, srv := range s.rcServers {
		out[n] = srv.Ops()
	}
	return out
}

// Node exposes the storage node (experiments tune s_D, inject faults).
func (s *KVService) Node() *storage.Node { return s.node }

// Arch implements Service.
func (s *KVService) Arch() Arch { return s.cfg.Arch }

// PreloadItem is one key to bulk-load before a run.
type PreloadItem struct {
	Key  string
	Size int
}

// Preload bulk-loads rows. In-process deployments load through the
// unmetered bootstrap path; remote deployments load through SQL.
func (s *KVService) Preload(items []PreloadItem) error {
	const chunk = 50
	for start := 0; start < len(items); start += chunk {
		end := start + chunk
		if end > len(items) {
			end = len(items)
		}
		stmt := "INSERT INTO kvdata (k, v) VALUES "
		params := make([]sql.Value, 0, 2*(end-start))
		for i := start; i < end; i++ {
			if i > start {
				stmt += ", "
			}
			stmt += "(?, ?)"
			params = append(params, sql.Text(items[i].Key), sql.Blob(ValueFor(items[i].Key, items[i].Size)))
		}
		if s.node != nil {
			if err := s.node.BootstrapExec(stmt, params...); err != nil {
				return err
			}
			continue
		}
		if _, err := s.db.Exec(stmt, params...); err != nil {
			return err
		}
	}
	return nil
}

// WarmRemoteCache seeds the Remote architecture's cache tier with every
// preload item, as an operator warms a fresh cache fleet before shifting
// traffic onto it. Without it an experiment's metered window starts on
// compulsory misses — storage round trips that measure the miss path,
// not the cache tier under test. Loading goes through each node's bulk
// path (remotecache.Server.Preload): no serving slots, serve work, ops
// tallies or hot-key observations, exactly like storage's unmetered
// bootstrap loads.
func (s *KVService) WarmRemoteCache(items []PreloadItem) error {
	switch {
	case s.smap != nil:
		for _, it := range items {
			v := ValueFor(it.Key, it.Size)
			pl := s.smap.Placement(s.smap.ShardOf(it.Key))
			ek := cluster.EpochKey(pl.Epoch, it.Key)
			for _, n := range pl.Replicas {
				s.rcServers[n].Preload(ek, v)
			}
		}
	case s.rcServer != nil:
		for _, it := range items {
			s.rcServer.Preload(it.Key, ValueFor(it.Key, it.Size))
		}
	default:
		return fmt.Errorf("core: WarmRemoteCache requires an in-process Remote deployment")
	}
	return nil
}

// ValueFor builds the deterministic payload for a key at a given size, so
// reads can be validated end-to-end.
func ValueFor(key string, size int) []byte {
	out := make([]byte, size)
	seed := byte(len(key))
	for _, c := range []byte(key) {
		seed ^= c
	}
	for i := range out {
		out[i] = seed + byte(i)
	}
	return out
}

// loadFromDB is the storage read path shared by all architectures, over
// the lane's private storage connection.
func (s *KVService) loadFromDB(l *kvLane, sc trace.SpanContext, key string) ([]byte, error) {
	rs, err := l.db.QueryCtx(sc, "SELECT v FROM kvdata WHERE k = ?", sql.Text(key))
	if err != nil {
		return nil, err
	}
	if len(rs.Rows) == 0 {
		return nil, fmt.Errorf("core: no row for key %q", key)
	}
	return rs.Rows[0][0].Blob, nil
}

func (s *KVService) loadVersioned(sc trace.SpanContext, key string) ([]byte, uint64, error) {
	v, err := s.loadFromDB(&s.def, sc, key)
	if err != nil {
		return nil, 0, err
	}
	ver, _, err := s.db.VersionCtx(sc, "kvdata", sql.Text(key))
	if err != nil {
		return nil, 0, err
	}
	return v, ver, nil
}

func (s *KVService) checkVersion(sc trace.SpanContext, key string) (uint64, bool, error) {
	return s.db.VersionCtx(sc, "kvdata", sql.Text(key))
}

// linkedFault consults the fault layer for the in-process cache: an
// injected error models the cache shard being lost or restarting, so the
// read/write skips the cache (a degradation) and goes to storage. The
// decision is drawn from the lane's stream.
func (s *KVService) linkedFault(l *kvLane, sc trace.SpanContext) bool {
	if s.cfg.Faults == nil {
		return false
	}
	if err := s.cfg.Faults.DecideTrace(LinkedCacheNode, l.w, l.attr, sc); err != nil {
		s.degraded.Inc()
		sc.MarkOutcome(trace.FlagDegraded)
		return true
	}
	return false
}

// read runs the architecture dispatch and feeds the access observer,
// when one is installed (the elastic controller's windowed MRC).
func (s *KVService) read(l *kvLane, sc trace.SpanContext, key string) ([]byte, error) {
	v, err := s.readArch(l, sc, key)
	if obs := s.obs; obs != nil && err == nil {
		// Approximate the entry's budgeted footprint the way the cache
		// tiers size entries: key + value + per-entry overhead.
		obs(key, int64(len(key)+len(v)+64))
	}
	return v, err
}

// readArch dispatches a read through the architecture's cache hierarchy
// on lane l.
func (s *KVService) readArch(l *kvLane, sc trace.SpanContext, key string) ([]byte, error) {
	switch s.cfg.Arch {
	case Base:
		return s.loadFromDB(l, sc, key)
	case Remote:
		s.cacheReads.Add(1)
		if v, found, err := l.rc.GetCtx(sc, key); err != nil {
			return nil, err
		} else if found {
			s.cacheHits.Add(1)
			return v, nil
		}
		v, err := s.loadFromDB(l, sc, key)
		if err != nil {
			return nil, err
		}
		if err := l.rc.SetTTLCtx(sc, key, v, 0); err != nil {
			return nil, err
		}
		return v, nil
	case Linked:
		s.cacheReads.Add(1)
		if s.linkedFault(l, sc) {
			return s.loadFromDB(l, sc, key)
		}
		v, hit, err := s.lc.GetOrLoadCtx(sc, key, func(lsc trace.SpanContext) ([]byte, error) {
			return s.loadFromDB(l, lsc, key)
		})
		if err == nil && hit {
			s.cacheHits.Add(1)
		}
		return v, err
	case LinkedVersion:
		v, _, err := s.consistentRead(sc, key, func(csc trace.SpanContext) ([]byte, bool, error) {
			return s.vc.Read(key,
				func(k string) (uint64, bool, error) { return s.checkVersion(csc, k) },
				func(k string) ([]byte, uint64, error) { return s.loadVersioned(csc, k) })
		})
		return v, err
	case LinkedOwned:
		v, _, err := s.consistentRead(sc, key, func(csc trace.SpanContext) ([]byte, bool, error) {
			return s.oc.Read(key, func(k string) ([]byte, uint64, error) { return s.loadVersioned(csc, k) })
		})
		return v, err
	case LinkedTTL:
		v, _, err := s.consistentRead(sc, key, func(csc trace.SpanContext) ([]byte, bool, error) {
			return s.tc.Read(key, func(k string) ([]byte, uint64, error) { return s.loadVersioned(csc, k) })
		})
		return v, err
	default:
		return nil, fmt.Errorf("core: unknown arch %v", s.cfg.Arch)
	}
}

// consistentRead wraps a consistency-cache read in an app.cache span:
// the consistency strategies live outside the traced cache libraries, so
// the service records their lookup spans and linked hit/miss counts
// itself. The strategy's downstream storage calls (version checks and
// loads) carry the span's child context, nesting them under the cache
// span exactly as the §5.5 path model describes.
func (s *KVService) consistentRead(sc trace.SpanContext, key string, read func(csc trace.SpanContext) ([]byte, bool, error)) ([]byte, bool, error) {
	if !sc.Traced() {
		return read(sc)
	}
	act, csc := trace.Start(sc, "app.cache", "read")
	v, hit, err := read(csc)
	if err == nil {
		sc.Tracer().CountLinkedHit(hit)
		act.AnnotateBool("cache.hit", hit)
	}
	act.End()
	return v, hit, err
}

// write dispatches a write on lane l: storage first, then cache
// maintenance.
func (s *KVService) write(l *kvLane, sc trace.SpanContext, key string, value []byte) error {
	storeWrite := func() error {
		_, err := l.db.ExecCtx(sc, "UPDATE kvdata SET v = ? WHERE k = ?", sql.Blob(value), sql.Text(key))
		return err
	}
	switch s.cfg.Arch {
	case Base:
		return storeWrite()
	case Remote:
		if err := storeWrite(); err != nil {
			return err
		}
		// Lookaside invalidation: delete, let the next read repopulate.
		_, err := l.rc.DeleteCtx(sc, key)
		return err
	case Linked:
		if err := storeWrite(); err != nil {
			return err
		}
		if !s.linkedFault(l, sc) {
			s.lc.PutCtx(sc, key, value)
		}
		return nil
	case LinkedVersion:
		if err := storeWrite(); err != nil {
			return err
		}
		s.vc.Invalidate(key)
		return nil
	case LinkedOwned:
		return s.oc.Write(key, value, func() (uint64, error) {
			if err := storeWrite(); err != nil {
				return 0, err
			}
			ver, _, err := s.db.VersionCtx(sc, "kvdata", sql.Text(key))
			return ver, err
		})
	case LinkedTTL:
		if err := storeWrite(); err != nil {
			return err
		}
		s.tc.Write(key, value)
		return nil
	default:
		return fmt.Errorf("core: unknown arch %v", s.cfg.Arch)
	}
}

// Digest is the application logic applied to a value: a real computation
// over the object's header (its first few KB) plus its length, producing
// a small derived result. Requests return the digest, not the raw value —
// as in the paper's services, the client asks the application to *use*
// the object (check a permission, render a view), so the response is
// small and the app touches fields, not every byte. This is also what
// makes remote caches over-read (§2.4): they must ship the WHOLE object
// to the app for it to use a small part.
func Digest(value []byte) []byte {
	return appendDigest(make([]byte, 0, 16), value)
}

// appendDigest appends the 16-byte digest of value to dst. Hot paths pass
// a stack-backed dst to keep the digest off the heap.
func appendDigest(dst, value []byte) []byte {
	head := value
	if len(head) > 4<<10 {
		head = head[:4<<10]
	}
	var h uint64 = 1469598103934665603
	for _, c := range head {
		h = (h ^ uint64(c)) * 1099511628211
	}
	for i := 0; i < 8; i++ {
		dst = append(dst, byte(h>>(8*i)))
	}
	n := uint64(len(value))
	for i := 0; i < 8; i++ {
		dst = append(dst, byte(n>>(8*i)))
	}
	return dst
}

// admit consults the admission gate for one client request. It returns
// the gate outcome and, for Admitted, the release the handler must call
// when its full-path work finishes. Shed and expired outcomes bump their
// counters here.
func (s *KVService) admit(sc trace.SpanContext) (admission.Outcome, func()) {
	if s.gate == nil {
		return admission.Admitted, func() {}
	}
	b := sc.Breakdown()
	var t0 time.Time
	if b != nil {
		t0 = time.Now()
	}
	outcome, release := s.gate.Enter(sc.Deadline())
	if b != nil {
		b.Add(trace.StageAdmission, time.Since(t0))
	}
	switch outcome {
	case admission.ShedQueueFull:
		s.shedCtr.Inc()
		s.telShed.Inc()
		b.Mark(trace.FlagShed)
	case admission.DeadlineExpired:
		s.dlCtr.Inc()
		s.telExpired.Inc()
		b.Mark(trace.FlagDeadline)
	}
	return outcome, release
}

// readShed is the degraded serve for a shed read: answer from the cache
// tier alone — no storage, no admission slot — so overload responses
// stay cheap and bounded. Base has no cache tier and sheds outright;
// Remote consults the remote cache (whose client demotes errors to
// misses, so a dead cache degrades this to an immediate miss); Linked
// reads its in-process cache. Deliberately not counted in
// cacheReads/cacheHits: the hit ratio describes the full-path policy,
// not overload triage.
func (s *KVService) readShed(l *kvLane, sc trace.SpanContext, key string) ([]byte, bool) {
	switch s.cfg.Arch {
	case Remote:
		if l.rc == nil {
			return nil, false
		}
		v, found, err := l.rc.GetCtx(sc, key)
		if err != nil || !found {
			return nil, false
		}
		return v, true
	case Linked:
		if s.lc == nil {
			return nil, false
		}
		return s.lc.GetCtx(sc, key)
	default:
		return nil, false
	}
}

// encodeReadOut encodes the GetResponse shape {1: found, 2: digest}
// field-by-field: the pooled encoder plus a stack-backed digest keeps
// the reply to one buffer copy. The response buffer comes from the
// transport pool; the client side of the front door (frontRead) recycles
// it after decoding.
func encodeReadOut(found bool, v []byte) []byte {
	var dig [16]byte
	e := wire.GetEncoder()
	e.Bool(1, found)
	if found {
		e.BytesField(2, appendDigest(dig[:0], v))
	}
	out := append(rpc.GetBuffer(), e.Bytes()...)
	wire.PutEncoder(e)
	return out
}

// encodeAck encodes the write ack shape {1: ok}.
func encodeAck(ok bool) []byte {
	e := wire.GetEncoder()
	e.Bool(1, ok)
	out := append(rpc.GetBuffer(), e.Bytes()...)
	wire.PutEncoder(e)
	return out
}

// handleRead is the client-facing read: decode, pass the admission gate,
// serve through the cache hierarchy, apply the application logic, reply
// with the small derived result. The front door's dispatch window
// credits "app" with whatever CPU is not attributed to a downstream
// component. A shed request is a non-error: it answers found=false (or
// a cache-only hit) so overload is a degraded mode, not a failure storm.
func (s *KVService) handleRead(l *kvLane, sc trace.SpanContext, req []byte) ([]byte, error) {
	act, asc := trace.Start(sc, "app", "read")
	defer act.End()
	var r remotecache.GetRequest // shape {1: key} — reuse the message
	if err := wire.Unmarshal(req, &r); err != nil {
		return nil, err
	}
	outcome, release := s.admit(sc)
	switch outcome {
	case admission.ShedQueueFull:
		act.Annotate("admission", "shed")
		v, ok := s.readShed(l, asc, r.Key)
		return encodeReadOut(ok, v), nil
	case admission.DeadlineExpired:
		act.Annotate("admission", "deadline")
		return encodeReadOut(false, nil), nil
	}
	defer release()
	v, err := s.read(l, asc, r.Key)
	if err != nil {
		return nil, err
	}
	act.SetBytes(len(req), len(v))
	return encodeReadOut(true, v), nil
}

// handleWrite is the client-facing write. A shed or expired write is
// acknowledged ok=false and NOT applied: under overload the service
// refuses mutations rather than applying them outside the SLO.
func (s *KVService) handleWrite(l *kvLane, sc trace.SpanContext, req []byte) ([]byte, error) {
	act, asc := trace.Start(sc, "app", "write")
	defer act.End()
	var r remotecache.SetRequest // shape {key, value}
	if err := wire.Unmarshal(req, &r); err != nil {
		return nil, err
	}
	outcome, release := s.admit(sc)
	switch outcome {
	case admission.ShedQueueFull:
		act.Annotate("admission", "shed")
		return encodeAck(false), nil
	case admission.DeadlineExpired:
		act.Annotate("admission", "deadline")
		return encodeAck(false), nil
	}
	defer release()
	if err := s.write(l, asc, r.Key, r.Value); err != nil {
		return nil, err
	}
	act.SetBytes(len(req), 0)
	return encodeAck(true), nil
}

// Read implements Service from the client's side of the front door.
func (s *KVService) Read(key string) ([]byte, error) {
	// The experiment driver plays the client; its own CPU is outside the
	// bill (the paper prices the service, not its callers). The root span
	// opens here too: the trace covers the whole client-visible request.
	sc, act := s.cfg.Tracer.StartRequest("read")
	v, err := frontRead(s.withIntended(sc), s.front, key)
	act.End()
	return v, err
}

// Write implements Service.
func (s *KVService) Write(key string, value []byte) error {
	sc, act := s.cfg.Tracer.StartRequest("write")
	err := frontWrite(s.withIntended(sc), s.front, key, value)
	act.End()
	return err
}

// ReadDeadline implements DeadlineWorker on the default lane.
func (s *KVService) ReadDeadline(key string, deadline time.Time) ([]byte, error) {
	sc, act := s.cfg.Tracer.StartRequest("read")
	v, err := frontRead(s.withIntended(sc).WithDeadline(deadline), s.front, key)
	act.End()
	return v, err
}

// WriteDeadline implements DeadlineWorker on the default lane.
func (s *KVService) WriteDeadline(key string, value []byte, deadline time.Time) error {
	sc, act := s.cfg.Tracer.StartRequest("write")
	err := frontWrite(s.withIntended(sc).WithDeadline(deadline), s.front, key, value)
	act.End()
	return err
}

// SetIntended implements IntendedWorker on the default lane (see
// KVWorker.SetIntended).
func (s *KVService) SetIntended(t time.Time) {
	if t.IsZero() {
		s.intendedNS = 0
		return
	}
	s.intendedNS = t.UnixNano()
}

func (s *KVService) withIntended(sc trace.SpanContext) trace.SpanContext {
	if s.intendedNS != 0 {
		return sc.WithIntendedUnixNano(s.intendedNS)
	}
	return sc
}

// AdmissionStats snapshots the admission gate's conservation counters
// (zero without an AdmissionConfig).
func (s *KVService) AdmissionStats() admission.Stats { return s.gate.Stats() }

// frontRead performs one client read against a front-door server. The
// request is encoded field-by-field from a pooled encoder (GetRequest
// shape {1: key}) and the response buffer cycles back to the transport
// pool: the handler builds its reply from the same pool, and the
// GetResponse decoder copies Value out, so both sides of the round trip
// are reusable.
func frontRead(sc trace.SpanContext, front *rpc.Server, key string) ([]byte, error) {
	e := wire.GetEncoder()
	e.String(1, key)
	respBody, err := front.DispatchCtx(sc, "app.Read", e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return nil, err
	}
	var resp remotecache.GetResponse
	err = wire.Unmarshal(respBody, &resp)
	rpc.PutBuffer(respBody)
	if err != nil {
		return nil, err
	}
	return resp.Value, nil
}

// frontWrite performs one client write against a front-door server,
// encoding the SetRequest shape {1: key, 2: value, 3: ttl_ms}.
func frontWrite(sc trace.SpanContext, front *rpc.Server, key string, value []byte) error {
	e := wire.GetEncoder()
	e.String(1, key)
	e.BytesField(2, value)
	e.Int64(3, 0)
	respBody, err := front.DispatchCtx(sc, "app.Write", e.Bytes())
	wire.PutEncoder(e)
	rpc.PutBuffer(respBody)
	return err
}

// CacheHitRatio reports the architecture's application-level cache hit
// ratio (0 for Base).
func (s *KVService) CacheHitRatio() float64 {
	switch s.cfg.Arch {
	case Remote, Linked:
		// Service-level ratio: counts every read that consulted the
		// cache tier, including ones the fault layer degraded to
		// storage loads (which the caches' internal stats never see).
		reads := s.cacheReads.Load()
		if reads == 0 {
			return 0
		}
		return float64(s.cacheHits.Load()) / float64(reads)
	case LinkedVersion:
		st := s.vc.Stats()
		if st.Reads == 0 {
			return 0
		}
		return float64(st.Hits) / float64(st.Reads)
	case LinkedOwned:
		st := s.oc.Stats()
		if st.Reads == 0 {
			return 0
		}
		return float64(st.AuthorityHits) / float64(st.Reads)
	case LinkedTTL:
		st := s.tc.Stats()
		if st.Reads == 0 {
			return 0
		}
		return float64(st.Hits) / float64(st.Reads)
	default:
		return 0
	}
}

// Degraded returns how many cache operations were demoted to misses or
// no-ops so the service could keep serving through cache faults.
func (s *KVService) Degraded() int64 { return s.degraded.Value() }

// RetryStats returns the cache retry layer's counters summed over the
// default lane and every worker lane (zero when no CacheRetry policy was
// configured).
func (s *KVService) RetryStats() rpc.RetryStats {
	var total rpc.RetryStats
	if s.retry != nil {
		total = s.retry.Stats()
	}
	for _, rt := range s.retries {
		st := rt.Stats()
		total.Calls += st.Calls
		total.Attempts += st.Attempts
		total.Retries += st.Retries
		total.BudgetDenied += st.BudgetDenied
		total.DeadlineExceeded += st.DeadlineExceeded
		total.Failures += st.Failures
		total.BackoffTotal += st.BackoffTotal
	}
	for _, l := range s.lanes {
		if l.retry == nil {
			continue
		}
		st := l.retry.Stats()
		total.Calls += st.Calls
		total.Attempts += st.Attempts
		total.Retries += st.Retries
		total.BudgetDenied += st.BudgetDenied
		total.DeadlineExceeded += st.DeadlineExceeded
		total.Failures += st.Failures
		total.BackoffTotal += st.BackoffTotal
	}
	return total
}

// Close implements Service.
func (s *KVService) Close() error { return nil }
