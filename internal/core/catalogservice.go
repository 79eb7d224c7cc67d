package core

import (
	"fmt"
	"strconv"
	"strings"

	"cachecost/internal/catalog"
	"cachecost/internal/cluster"
	"cachecost/internal/consistency"
	"cachecost/internal/linkedcache"
	"cachecost/internal/meter"
	"cachecost/internal/remotecache"
	"cachecost/internal/rpc"
	"cachecost/internal/storage"
	"cachecost/internal/wire"
)

// CatalogMode selects which Unity Catalog variant the service runs.
type CatalogMode int

// The two §5.4 variants.
const (
	// ModeObject: production shape — each read composes the rich object
	// from up to 8 SQL queries (Unity Catalog-Object).
	ModeObject CatalogMode = iota
	// ModeKV: heavily denormalized — each read is a single row lookup
	// plus deserialization (Unity Catalog-KV).
	ModeKV
)

// String implements fmt.Stringer.
func (m CatalogMode) String() string {
	if m == ModeObject {
		return "object"
	}
	return "kv"
}

// CatalogServiceConfig assembles a governance service deployment.
type CatalogServiceConfig struct {
	ServiceConfig
	// Mode selects Object vs KV reads.
	Mode CatalogMode
	// Tables is the governed-table population. Default 500 at experiment
	// scale.
	Tables int
	// StatsBytes fixes the per-table stats payload (0 = Figure 3a
	// distribution).
	StatsBytes int
	// Seed drives the corpus generator.
	Seed int64
}

// CatalogService deploys the rich-object application under an
// architecture. The linked cache holds live *catalog.TableInfo objects;
// the remote cache holds their serialized form — that asymmetry is the
// §5.4 comparison.
type CatalogService struct {
	cfg     CatalogServiceConfig
	m       *meter.Meter
	appComp *meter.Component

	node *storage.Node
	app  *catalog.App

	rcServer *remotecache.Server
	rc       *remotecache.Client

	lc      *linkedcache.Cache[*catalog.TableInfo]
	vc      *consistency.VersionedCache[*catalog.TableInfo]
	oc      *consistency.OwnedCache[*catalog.TableInfo]
	sharder *cluster.Sharder

	front *rpc.Server
}

// NewCatalogService builds and seeds the deployment.
func NewCatalogService(cfg CatalogServiceConfig) (*CatalogService, error) {
	cfg.ServiceConfig.applyDefaults()
	if cfg.Meter == nil {
		return nil, fmt.Errorf("core: CatalogServiceConfig.Meter is required")
	}
	if cfg.Tables <= 0 {
		cfg.Tables = 500
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	s := &CatalogService{cfg: cfg, m: cfg.Meter}
	s.appComp = cfg.Meter.Component("app")

	s.node = storage.NewNode(storage.Config{
		Replicas:           cfg.StorageReplicas,
		BlockCacheBytes:    cfg.StorageCacheBytes,
		Meter:              cfg.Meter,
		DiskPenaltyPerByte: cfg.DiskPenaltyPerByte,
	})
	if err := catalog.Seed(s.node, catalog.SeedConfig{
		Tables:             cfg.Tables,
		Seed:               cfg.Seed,
		Normalized:         cfg.Mode == ModeObject,
		Denormalized:       cfg.Mode == ModeKV,
		StatsBytesOverride: cfg.StatsBytes,
	}); err != nil {
		return nil, err
	}
	// One meter-wide attribution context: the front door's dispatch
	// window opens on it, and the app's loopbacks are bound to it so
	// their charges inside that window burn untimed.
	attr := cfg.Meter.NewSharedAttrCtx()
	dbLoop := rpc.NewLoopback(s.node.Server(), s.appComp, meter.NewBurner(), cfg.RPCCost)
	dbLoop.SetAttrCtx(attr)
	s.app = catalog.NewApp(storage.NewClient(dbLoop))

	objSize := func(k string, o *catalog.TableInfo) int64 { return o.MemSize() + int64(len(k)) }
	switch cfg.Arch {
	case Remote:
		s.rcServer = remotecache.NewServer(remotecache.ServerConfig{
			CapacityBytes: cfg.RemoteCacheBytes,
			Meter:         cfg.Meter,
			Name:          "remotecache",
			RPCCost:       cfg.RPCCost,
		})
		cacheLoop := rpc.NewLoopback(s.rcServer.RPCServer(), s.appComp, meter.NewBurner(), cfg.RPCCost)
		cacheLoop.SetAttrCtx(attr)
		s.rc = remotecache.NewSingleClient(cacheLoop)
	case Linked:
		s.lc = linkedcache.New(linkedcache.Config{
			CapacityBytes: cfg.AppCacheBytes,
			Meter:         cfg.Meter,
			Name:          "app.cache",
		}, objSize)
		s.m.Component("app.cache").SetMemBytes(cfg.AppCacheBytes * int64(cfg.AppReplicas))
	case LinkedVersion:
		s.vc = consistency.NewVersionedCache[*catalog.TableInfo](linkedcache.Config{
			CapacityBytes: cfg.AppCacheBytes,
			Meter:         cfg.Meter,
			Name:          "app.cache",
		}, func(k string, o *catalog.TableInfo) int64 { return o.MemSize() + int64(len(k)) })
		s.m.Component("app.cache").SetMemBytes(cfg.AppCacheBytes * int64(cfg.AppReplicas))
	case LinkedOwned:
		s.sharder = cluster.NewSharder(64)
		s.oc = consistency.NewOwnedCache[*catalog.TableInfo]("app0", s.sharder, linkedcache.Config{
			CapacityBytes: cfg.AppCacheBytes,
			Meter:         cfg.Meter,
			Name:          "app.cache",
		}, func(k string, o *catalog.TableInfo) int64 { return o.MemSize() + int64(len(k)) })
		s.m.Component("app.cache").SetMemBytes(cfg.AppCacheBytes * int64(cfg.AppReplicas))
	}

	s.front = rpc.NewFrontServer(attr, s.appComp, meter.NewBurner(), cfg.RPCCost)
	s.front.Handle("app.Read", s.handleRead)
	s.front.Handle("app.Write", s.handleWrite)
	return s, nil
}

// Arch implements Service.
func (s *CatalogService) Arch() Arch { return s.cfg.Arch }

// Node exposes the storage node.
func (s *CatalogService) Node() *storage.Node { return s.node }

// tableID parses a workload key ("key-%08d") into a table id.
func tableID(key string) (int64, error) {
	i := strings.LastIndexByte(key, '-')
	if i < 0 {
		return 0, fmt.Errorf("core: malformed catalog key %q", key)
	}
	return strconv.ParseInt(key[i+1:], 10, 64)
}

// fetch reads the rich object from storage via the mode's read path.
func (s *CatalogService) fetch(id int64) (*catalog.TableInfo, error) {
	if s.cfg.Mode == ModeObject {
		return s.app.GetTableObject(id)
	}
	return s.app.GetTableKV(id)
}

func (s *CatalogService) fetchVersioned(key string) (*catalog.TableInfo, uint64, error) {
	id, err := tableID(key)
	if err != nil {
		return nil, 0, err
	}
	info, err := s.fetch(id)
	if err != nil {
		return nil, 0, err
	}
	ver, _, err := s.version(id)
	if err != nil {
		return nil, 0, err
	}
	return info, ver, nil
}

func (s *CatalogService) version(id int64) (uint64, bool, error) {
	if s.cfg.Mode == ModeObject {
		return s.app.VersionOfObject(id)
	}
	return s.app.VersionOfKV(id)
}

// read serves one rich-object read through the architecture.
func (s *CatalogService) read(key string) (*catalog.TableInfo, error) {
	id, err := tableID(key)
	if err != nil {
		return nil, err
	}
	switch s.cfg.Arch {
	case Base:
		return s.fetch(id)
	case Remote:
		// The remote cache stores the serialized object: a hit pays RPC
		// plus deserialization.
		if buf, found, err := s.rc.Get(key); err != nil {
			return nil, err
		} else if found {
			info := &catalog.TableInfo{}
			if err := wire.Unmarshal(buf, info); err != nil {
				return nil, err
			}
			return info, nil
		}
		info, err := s.fetch(id)
		if err != nil {
			return nil, err
		}
		if err := s.rc.Set(key, wire.Marshal(info)); err != nil {
			return nil, err
		}
		return info, nil
	case Linked:
		info, _, err := s.lc.GetOrLoad(key, func() (*catalog.TableInfo, error) { return s.fetch(id) })
		return info, err
	case LinkedVersion:
		info, _, err := s.vc.Read(key,
			func(string) (uint64, bool, error) { return s.version(id) },
			s.fetchVersioned)
		return info, err
	case LinkedOwned:
		info, _, err := s.oc.Read(key, s.fetchVersioned)
		return info, err
	default:
		return nil, fmt.Errorf("core: unknown arch %v", s.cfg.Arch)
	}
}

// write refreshes a table's stats payload and maintains the caches.
func (s *CatalogService) write(key string, stats []byte) error {
	id, err := tableID(key)
	if err != nil {
		return err
	}
	storeWrite := func() error {
		if s.cfg.Mode == ModeObject {
			return s.app.UpdateTableStats(id, stats)
		}
		// Denormalized write: read-modify-write the materialized object.
		info, err := s.app.GetTableKV(id)
		if err != nil {
			return err
		}
		info.Stats = stats
		return s.app.UpdateTableKV(info)
	}
	switch s.cfg.Arch {
	case Base:
		return storeWrite()
	case Remote:
		if err := storeWrite(); err != nil {
			return err
		}
		_, err := s.rc.Delete(key)
		return err
	case Linked:
		if err := storeWrite(); err != nil {
			return err
		}
		s.lc.Delete(key)
		return nil
	case LinkedVersion:
		if err := storeWrite(); err != nil {
			return err
		}
		s.vc.Invalidate(key)
		return nil
	case LinkedOwned:
		// The owner routes the write but does not re-materialize the rich
		// object inline; invalidating forces the next read to re-compose
		// under a fresh ownership assignment, which preserves
		// linearizability (we are the only writer for owned keys).
		if !s.oc.Owns(key) {
			return consistency.ErrNotOwner
		}
		if err := storeWrite(); err != nil {
			return err
		}
		s.oc.Invalidate(key)
		return nil
	default:
		return fmt.Errorf("core: unknown arch %v", s.cfg.Arch)
	}
}

// handleRead serves a client read; the front door's dispatch window
// credits "app" with the CPU no downstream component claimed.
func (s *CatalogService) handleRead(req []byte) ([]byte, error) {
	var r remotecache.GetRequest
	if err := wire.Unmarshal(req, &r); err != nil {
		return nil, err
	}
	info, err := s.read(r.Key)
	if err != nil {
		return nil, err
	}
	// Application logic over the rich object: resolve a principal's
	// effective privileges (the inheritance-aware view) and digest
	// the stats payload — then reply with the small derived result.
	// The client asked a governance question, not for the raw blob.
	privs := info.AllowedFor("principal_007")
	summary := wire.NewEncoder(64)
	summary.String(1, info.FullName)
	summary.String(2, info.Owner)
	for _, p := range privs {
		summary.String(3, p)
	}
	summary.Uint64(4, uint64(len(info.Constraints)))
	summary.Uint64(5, uint64(len(info.Lineage)))
	summary.BytesField(6, Digest(info.Stats))
	return wire.Marshal(&remotecache.GetResponse{
		Found: true,
		Value: append([]byte(nil), summary.Bytes()...),
	}), nil
}

// handleWrite serves a client write.
func (s *CatalogService) handleWrite(req []byte) ([]byte, error) {
	var r remotecache.SetRequest
	if err := wire.Unmarshal(req, &r); err != nil {
		return nil, err
	}
	if err := s.write(r.Key, r.Value); err != nil {
		return nil, err
	}
	return wire.Marshal(&remotecache.Ack{OK: true}), nil
}

// Read implements Service: returns the serialized rich object.
func (s *CatalogService) Read(key string) ([]byte, error) {
	respBody, err := s.front.Dispatch("app.Read", wire.Marshal(&remotecache.GetRequest{Key: key}))
	if err != nil {
		return nil, err
	}
	var resp remotecache.GetResponse
	if err := wire.Unmarshal(respBody, &resp); err != nil {
		return nil, err
	}
	return resp.Value, nil
}

// Write implements Service: value is the new stats payload.
func (s *CatalogService) Write(key string, value []byte) error {
	req := wire.Marshal(&remotecache.SetRequest{Key: key, Value: value})
	_, err := s.front.Dispatch("app.Write", req)
	return err
}

// CacheHitRatio reports the application-level hit ratio.
func (s *CatalogService) CacheHitRatio() float64 {
	switch s.cfg.Arch {
	case Remote:
		return s.rcServer.Stats().HitRatio()
	case Linked:
		return s.lc.Stats().HitRatio()
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
	default:
		return 0
	}
}

// Close implements Service.
func (s *CatalogService) Close() error { return nil }
