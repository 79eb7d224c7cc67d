package storage

import (
	"fmt"
	"sync"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/storage/kv"
	"cachecost/internal/storage/plan"
	"cachecost/internal/storage/raft"
	"cachecost/internal/storage/sql"
	"cachecost/internal/telemetry"
	"cachecost/internal/trace"
	"cachecost/internal/wire"
)

// Config parameterizes a database Node.
type Config struct {
	// Replicas is the replication factor (TiKV pods). Default 3.
	Replicas int
	// BlockCacheBytes is the per-replica block-cache budget, the paper's
	// s_D. Default 64 MiB.
	BlockCacheBytes int64
	// PageBytes is the storage page size. Default 16 KiB.
	PageBytes int
	// DiskPenaltyPerByte and DiskPenaltyPerOp tune the modeled disk cost;
	// zero selects the kv defaults.
	DiskPenaltyPerByte float64
	DiskPenaltyPerOp   int
	// Meter receives component attributions; nil disables metering.
	Meter *meter.Meter
	// Prefix namespaces the node's meter components. Default "storage".
	Prefix string
	// RPCCost is the transport overhead model for the node's RPC server.
	RPCCost rpc.CostModel
	// LeaseTicks passes through to the raft group.
	LeaseTicks int
	// FrontendWork is the per-statement CPU burn (Burner units) modeling
	// the SQL front-end cost our lightweight parser does not reproduce:
	// connection management, session state, optimizer work — the
	// machinery the paper finds consuming 40-65% of database CPU (§5.3).
	// Default 49152; set negative to disable.
	FrontendWork int
	// Tracer joins wire-carried span contexts when the node serves TCP
	// connections; loopback callers pass their context in-process. Nil
	// disables the join.
	Tracer *trace.Tracer
	// Telemetry, when set, feeds per-statement latency histograms and
	// rpc dispatch metrics, and registers a pull collector exposing the
	// block-cache hit ratio and raft replication counters (including
	// ship lag) under Prefix.
	Telemetry *telemetry.Registry
	// Durable switches every replica's kv store to the durable tiered
	// engine (WAL + bloom-filtered SSTables). BlockCacheBytes becomes the
	// DRAM value-tier budget; values evicted from it live on the disk
	// tier and are re-read (and priced) on miss. Each replica gets its
	// own in-memory filesystem unless DurableFS supplies one.
	Durable bool
	// DurableFS, when set with Durable, supplies each replica's backing
	// filesystem — a fault.FS for fsync-stall experiments, or a DirFS
	// for real disks.
	DurableFS func(replica int) kv.FS
	// MemtableBytes, WALSyncEvery and CompactAt pass through to the
	// durable engine; zero selects the kv defaults.
	MemtableBytes int64
	WALSyncEvery  int
	CompactAt     int
}

func (c *Config) applyDefaults() {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.BlockCacheBytes == 0 {
		c.BlockCacheBytes = 64 << 20
	}
	if c.PageBytes <= 0 {
		c.PageBytes = 16 << 10
	}
	if c.Prefix == "" {
		c.Prefix = "storage"
	}
	if c.RPCCost == (rpc.CostModel{}) {
		// A database's request path is markedly more expensive per byte
		// than a cache server's: results pass through executor encoding,
		// session buffers and gRPC-style marshalling.
		c.RPCCost = rpc.CostModel{PerMessage: 8192, PerByte: 2.5}
	}
	if c.FrontendWork == 0 {
		c.FrontendWork = 49152
	}
}

// Node is a replicated SQL database node group: Replicas kv stores kept in
// sync by statement-based raft replication, with SQL served by the leader.
type Node struct {
	cfg Config

	// mu serializes statement execution. The paper's cost metric is CPU
	// busy time, not latency, so a single execution lane loses nothing —
	// and it makes the meter's attribution splits exact.
	mu sync.Mutex

	group *raft.Group
	dbs   []*plan.DB

	burner   *meter.Burner
	rpcComp  *meter.Component // transport overhead
	sqlComp  *meter.Component // parse + request decode (query processing front-end)
	execComp *meter.Component // plan + execute, minus kv and raft time
	kvComp   *meter.Component // storage engine (pages, block cache, disk penalty)
	raftComp *meter.Component // replication + lease validation
	// sections meters a statement as adjacent windows — storage.sql,
	// storage.exec, storage.sql — net of the kv and raft time they
	// contain (those meter themselves), one busy-clock reading per
	// boundary. Handlers hold mu, so the net is exact. Nil unmetered.
	sections *meter.AttrCtx

	server *rpc.Server

	// stmtHist records per-statement wall latency by kind; nil (no-op)
	// without telemetry.
	histQuery   *telemetry.Histogram
	histExec    *telemetry.Histogram
	histVersion *telemetry.Histogram
	histBatch   *telemetry.Histogram

	// lastResult holds each replica's most recent apply result; indexed
	// by replica id, guarded by mu (appliers run under Propose, which the
	// handlers call while holding mu).
	lastResult []*plan.ResultSet

	applyErrMu sync.Mutex
	applyErr   error // first replication apply error, for tests/diagnostics
}

// NewNode builds the replica group and registers the RPC methods.
func NewNode(cfg Config) *Node {
	cfg.applyDefaults()
	n := &Node{cfg: cfg, burner: meter.NewBurner()}

	if cfg.Meter != nil {
		n.rpcComp = cfg.Meter.Component(cfg.Prefix + ".rpc")
		n.sqlComp = cfg.Meter.Component(cfg.Prefix + ".sql")
		n.execComp = cfg.Meter.Component(cfg.Prefix + ".exec")
		n.kvComp = cfg.Meter.Component(cfg.Prefix + ".kv")
		n.raftComp = cfg.Meter.Component(cfg.Prefix + ".raft")
		n.sections = cfg.Meter.NewSharedAttrCtx(n.kvComp, n.raftComp)
	}

	n.dbs = make([]*plan.DB, cfg.Replicas)
	n.lastResult = make([]*plan.ResultSet, cfg.Replicas)
	for i := 0; i < cfg.Replicas; i++ {
		kcfg := kv.Config{
			PageBytes:          cfg.PageBytes,
			CacheBytes:         cfg.BlockCacheBytes,
			DiskPenaltyPerByte: cfg.DiskPenaltyPerByte,
			DiskPenaltyPerOp:   cfg.DiskPenaltyPerOp,
			Comp:               n.kvComp, // all replicas share the line item
			Burner:             n.burner,
		}
		if cfg.Durable {
			kcfg.MemtableBytes = cfg.MemtableBytes
			kcfg.WALSyncEvery = cfg.WALSyncEvery
			kcfg.CompactAt = cfg.CompactAt
			if cfg.DurableFS != nil {
				kcfg.FS = cfg.DurableFS(i)
			} else {
				kcfg.FS = kv.NewMemFS()
			}
		}
		n.dbs[i] = plan.NewDB(kv.NewStore(kcfg))
	}
	// Block-cache memory is provisioned per replica; the shared component
	// must carry the total.
	if n.kvComp != nil {
		n.kvComp.SetMemBytes(cfg.BlockCacheBytes * int64(cfg.Replicas))
	}

	n.group = raft.NewGroup(raft.Config{
		Replicas:   cfg.Replicas,
		LeaseTicks: cfg.LeaseTicks,
		Comp:       n.raftComp,
		Burner:     n.burner,
	}, func(id int) raft.StateMachine {
		return &applier{node: n, id: id}
	})

	n.server = rpc.NewServer(n.rpcComp, n.burner, cfg.RPCCost)
	n.server.SetMeterHandlerBody(false) // handlers meter their own internals
	if cfg.Tracer != nil {
		n.server.SetTracer(cfg.Tracer, cfg.Prefix+".rpc")
	}
	n.server.HandleCtx("sql.Query", n.handleQuery)
	n.server.HandleCtx("sql.Exec", n.handleExec)
	n.server.HandleCtx("sql.Version", n.handleVersion)
	n.server.HandleCtx("sql.BatchQuery", n.handleBatchQuery)
	if cfg.Telemetry != nil {
		n.histQuery = cfg.Telemetry.Histogram("storage.stmt.latency", "seconds", telemetry.L("stmt", "query"))
		n.histExec = cfg.Telemetry.Histogram("storage.stmt.latency", "seconds", telemetry.L("stmt", "exec"))
		n.histVersion = cfg.Telemetry.Histogram("storage.stmt.latency", "seconds", telemetry.L("stmt", "version"))
		n.histBatch = cfg.Telemetry.Histogram("storage.stmt.latency", "seconds", telemetry.L("stmt", "batch"))
		n.server.SetMetrics(rpc.NewMetrics(cfg.Telemetry, cfg.Prefix))
		n.RegisterTelemetry(cfg.Telemetry)
	}
	return n
}

// RegisterTelemetry installs a pull collector publishing the node's
// storage-engine and replication state: block-cache hits/misses, disk
// traffic, raft proposal/election counters, and the current ship lag
// (how far the worst reachable follower trails the leader's log). The
// statement path is untouched — everything here reads existing atomics
// or cheap snapshots at scrape time.
func (n *Node) RegisterTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	lbl := []telemetry.Label{telemetry.L("node", n.cfg.Prefix)}
	reg.RegisterCollector("storage."+n.cfg.Prefix, func(emit func(telemetry.Sample)) {
		if db := n.LeaderDB(); db != nil {
			cs := db.Store().CacheStats()
			emit(telemetry.Sample{Name: "storage.block_cache.hits", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(cs.Hits)})
			emit(telemetry.Sample{Name: "storage.block_cache.misses", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(cs.Misses)})
			st := db.Store().Stats()
			emit(telemetry.Sample{Name: "storage.disk.read_bytes", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.DiskReadBytes)})
			emit(telemetry.Sample{Name: "storage.disk.write_bytes", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.DiskWriteBytes)})
			if n.cfg.Durable {
				emit(telemetry.Sample{Name: "storage.disk.reads", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.DiskReads)})
				emit(telemetry.Sample{Name: "storage.wal.fsync", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.WALFsyncs)})
				emit(telemetry.Sample{Name: "storage.wal.appends", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.WALAppends)})
				emit(telemetry.Sample{Name: "storage.wal.bytes", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.WALBytes)})
				emit(telemetry.Sample{Name: "storage.compaction.count", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.Compactions)})
				emit(telemetry.Sample{Name: "storage.compaction.bytes", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.CompactionBytes)})
				emit(telemetry.Sample{Name: "storage.tier.demotions", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.TierDemotions)})
				emit(telemetry.Sample{Name: "storage.tier.promotions", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.TierPromotions)})
				emit(telemetry.Sample{Name: "storage.tier.hits", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.TierHits)})
				emit(telemetry.Sample{Name: "storage.bloom.negatives", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(st.BloomNegatives)})
				dram, diskLive := db.Store().TierBytes()
				emit(telemetry.Sample{Name: "storage.tier.dram_bytes", Labels: lbl, Kind: telemetry.KindGauge, Value: float64(dram)})
				emit(telemetry.Sample{Name: "storage.tier.disk_bytes", Labels: lbl, Kind: telemetry.KindGauge, Value: float64(diskLive)})
				emit(telemetry.Sample{Name: "storage.recovery.seconds", Labels: lbl, Kind: telemetry.KindGauge, Value: db.Store().RecoveryTime().Seconds()})
			}
		}
		gs := n.group.Stats()
		emit(telemetry.Sample{Name: "raft.proposals", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(gs.Proposals)})
		emit(telemetry.Sample{Name: "raft.ships", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(gs.Ships)})
		emit(telemetry.Sample{Name: "raft.lease_checks", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(gs.LeaseChecks)})
		emit(telemetry.Sample{Name: "raft.elections", Labels: lbl, Kind: telemetry.KindCounter, Value: float64(gs.Elections)})
		emit(telemetry.Sample{Name: "raft.ship_lag", Labels: lbl, Kind: telemetry.KindGauge, Value: float64(n.group.ShipLag())})
	})
}

// applier executes replicated statements against one replica's DB.
type applier struct {
	node *Node
	id   int
}

// Apply implements raft.StateMachine. Statement-based replication: every
// replica re-parses and re-executes the statement, paying the same CPU the
// leader paid — the replication cost the paper's write path carries.
func (a *applier) Apply(cmd raft.Command) {
	c, err := decodeCmd(cmd.Value)
	if err != nil {
		a.node.noteApplyErr(fmt.Errorf("storage: replica %d: corrupt command: %w", a.id, err))
		return
	}
	n := a.node
	w := n.sections.Open(n.sqlComp)
	defer w.Close()
	stmt, err := sql.Parse(c.SQL)
	if err != nil {
		n.noteApplyErr(fmt.Errorf("storage: replica %d: %w", a.id, err))
		return
	}
	w.Next(n.execComp)
	rs, err := n.dbs[a.id].Exec(stmt, c.Params)
	if err != nil {
		n.noteApplyErr(fmt.Errorf("storage: replica %d: %w", a.id, err))
		return
	}
	n.lastResult[a.id] = rs
}

func (n *Node) noteApplyErr(err error) {
	n.applyErrMu.Lock()
	defer n.applyErrMu.Unlock()
	if n.applyErr == nil {
		n.applyErr = err
	}
}

// ApplyErr returns the first replication apply error, if any.
func (n *Node) ApplyErr() error {
	n.applyErrMu.Lock()
	defer n.applyErrMu.Unlock()
	return n.applyErr
}

// burnFrontend burns the per-statement SQL front-end work inside the
// running storage.sql window, counting it as one storage.sql operation.
func (n *Node) burnFrontend() {
	if n.cfg.FrontendWork <= 0 {
		return
	}
	n.burner.Burn(n.cfg.FrontendWork)
	if n.sqlComp != nil {
		n.sqlComp.AddOps(1)
	}
}

// Server returns the node's RPC server for use with rpc.Serve, loopback or
// direct connections.
func (n *Node) Server() *rpc.Server { return n.server }

// Group returns the raft group (fault injection, lease control).
func (n *Node) Group() *raft.Group { return n.group }

// LeaderDB returns the current leader's DB, for white-box tests.
func (n *Node) LeaderDB() *plan.DB {
	ld := n.group.Leader()
	if ld < 0 {
		return nil
	}
	return n.dbs[ld]
}

// DataBytes returns the leader's on-disk data size.
func (n *Node) DataBytes() int64 {
	db := n.LeaderDB()
	if db == nil {
		return 0
	}
	return db.Store().DataBytes()
}

// Close syncs and closes every replica's store. Only meaningful for
// durable nodes; a no-op otherwise.
func (n *Node) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	var first error
	for _, db := range n.dbs {
		if err := db.Store().Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SetBlockCacheBytes resizes every replica's block cache (sweeping s_D).
func (n *Node) SetBlockCacheBytes(b int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, db := range n.dbs {
		db.Store().SetCacheBytes(b)
	}
	if n.kvComp != nil {
		n.kvComp.SetMemBytes(b * int64(n.cfg.Replicas))
	}
}

// Bootstrap executes DDL or seed statements directly against every
// replica, bypassing RPC and metering. Use it to set up schemas and
// preload data without polluting an experiment's cost measurements.
func (n *Node) Bootstrap(statements []string, params ...[]sql.Value) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, src := range statements {
		stmt, err := sql.Parse(src)
		if err != nil {
			return fmt.Errorf("storage: bootstrap %q: %w", truncate(src, 60), err)
		}
		var p []sql.Value
		if i < len(params) {
			p = params[i]
		}
		for _, db := range n.dbs {
			if _, err := db.Exec(stmt, p); err != nil {
				return fmt.Errorf("storage: bootstrap %q: %w", truncate(src, 60), err)
			}
		}
	}
	return nil
}

// BootstrapExec runs one parameterized statement on every replica without
// metering (bulk loading).
func (n *Node) BootstrapExec(src string, params ...sql.Value) error {
	return n.Bootstrap([]string{src}, params)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// handleQuery serves read-only statements on the leader after validating
// its lease.
func (n *Node) handleQuery(sc trace.SpanContext, req []byte) ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sc.Tracer().CountStatement()
	defer n.histQuery.ObserveSince(time.Now())

	sqlAct, _ := trace.Start(sc, "storage.sql", "parse")
	w := n.sections.Open(n.sqlComp)
	defer w.Close()
	stmt, q, err := parseRequest(req)
	if err != nil {
		sqlAct.End()
		return nil, err
	}
	if _, ok := stmt.(*sql.SelectStmt); !ok {
		sqlAct.End()
		return nil, fmt.Errorf("storage: sql.Query only accepts SELECT; use sql.Exec")
	}
	n.burnFrontend()
	sqlAct.SetBytes(len(req), 0)
	sqlAct.End()
	w.Next(n.execComp)
	// Transaction layer: validate the leader lease before a local read.
	if err := n.group.ValidateLeaseCtx(sc); err != nil {
		return nil, err
	}
	db := n.LeaderDB()
	if db == nil {
		return nil, raft.ErrNotLeader
	}
	kvAct, _ := trace.Start(sc, "storage.kv", "exec")
	rs, err := db.Exec(stmt, q.Params)
	kvAct.End()
	if err != nil {
		return nil, err
	}
	w.Next(n.sqlComp)
	return wire.Marshal(rs), nil
}

// parseRequest decodes a statement request and parses its SQL.
func parseRequest(req []byte) (sql.Stmt, QueryRequest, error) {
	var q QueryRequest
	if err := wire.Unmarshal(req, &q); err != nil {
		return nil, q, err
	}
	stmt, err := sql.Parse(q.SQL)
	return stmt, q, err
}

// handleExec serves write statements: parsed for validation on the
// front-end, then replicated through raft and applied on every replica.
func (n *Node) handleExec(sc trace.SpanContext, req []byte) ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sc.Tracer().CountStatement()
	defer n.histExec.ObserveSince(time.Now())

	sqlAct, _ := trace.Start(sc, "storage.sql", "parse")
	// The replicas' appliers meter their own sections inside Propose, so
	// the parse window closes before it and the reply opens a new one.
	w := n.sections.Open(n.sqlComp)
	stmt, q, err := parseRequest(req)
	if _, ok := stmt.(*sql.SelectStmt); ok {
		err = fmt.Errorf("storage: sql.Exec does not accept SELECT; use sql.Query")
	}
	if err != nil {
		w.Close()
		sqlAct.End()
		return nil, err
	}
	n.burnFrontend()
	w.Close()
	sqlAct.SetBytes(len(req), 0)
	sqlAct.End()
	// Dry-run validation on the leader would double-apply; instead rely
	// on the apply path and surface its error.
	n.applyErrMu.Lock()
	n.applyErr = nil
	n.applyErrMu.Unlock()

	cmd := raft.Command{
		Op:    raft.OpPut,
		Key:   []byte(q.SQL[:min(len(q.SQL), 32)]),
		Value: encodeCmd(&replicatedCmd{SQL: q.SQL, Params: q.Params}),
	}
	// The replication slice of the write is informational sub-stage time:
	// for an in-process request it is already inside the client-observed
	// StageStorage, so conservation sums exclude StageRaft.
	b := sc.Breakdown()
	var raftT0 time.Time
	if b != nil {
		raftT0 = time.Now()
	}
	_, perr := n.group.ProposeCtx(sc, cmd)
	if b != nil {
		b.Add(trace.StageRaft, time.Since(raftT0))
	}
	if perr != nil {
		return nil, perr
	}
	if err := n.ApplyErr(); err != nil {
		return nil, err
	}
	rs := &plan.ResultSet{}
	if ld := n.group.Leader(); ld >= 0 && n.lastResult[ld] != nil {
		rs = n.lastResult[ld]
	}
	w = n.sections.Open(n.sqlComp)
	out := wire.Marshal(rs)
	w.Close()
	return out, nil
}

// handleVersion serves the §5.5 version check. As in TiDB, it traverses
// the whole read path: request decode and SQL-layer work, lease
// validation, and a full row fetch from the storage engine — only to
// return eight bytes.
func (n *Node) handleVersion(sc trace.SpanContext, req []byte) ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sc.Tracer().CountStatement()
	defer n.histVersion.ObserveSince(time.Now())

	sqlAct, _ := trace.Start(sc, "storage.sql", "parse")
	w := n.sections.Open(n.sqlComp)
	defer w.Close()
	var vr VersionRequest
	if err := wire.Unmarshal(req, &vr); err != nil {
		sqlAct.End()
		return nil, err
	}
	// Even a version check traverses the SQL front-end (§5.5).
	n.burnFrontend()
	sqlAct.Annotate("sql.op", "version-check")
	sqlAct.End()
	w.Next(n.execComp)
	if err := n.group.ValidateLeaseCtx(sc); err != nil {
		return nil, err
	}
	db := n.LeaderDB()
	if db == nil {
		return nil, raft.ErrNotLeader
	}
	resp := &VersionResponse{}
	kvAct, _ := trace.Start(sc, "storage.kv", "exec")
	execErr := func() error {
		t, err := db.Catalog().Lookup(vr.Table)
		if err != nil {
			return err
		}
		// Fetch the full row (the engine has no narrower path — exactly
		// the paper's observation) and report its version.
		rs, err := db.ExecSQL(
			fmt.Sprintf("SELECT * FROM %s WHERE %s = ?", vr.Table, t.PKCol()), vr.PK)
		if err != nil {
			return err
		}
		if len(rs.Rows) > 0 {
			resp.Found = true
		}
		ver, ok := db.Store().VersionOf(rowKeyFor(vr.Table, vr.PK))
		if ok {
			resp.Version = ver
		}
		return nil
	}()
	kvAct.End()
	if execErr != nil {
		return nil, execErr
	}
	w.Next(n.sqlComp)
	return wire.Marshal(resp), nil
}

// rowKeyFor mirrors the plan package's key layout for version lookups.
func rowKeyFor(table string, pk sql.Value) []byte {
	k := make([]byte, 0, len(table)+16)
	k = append(k, 't', '/')
	k = append(k, table...)
	k = append(k, '/')
	k = append(k, pk.KeyBytes()...)
	return k
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
