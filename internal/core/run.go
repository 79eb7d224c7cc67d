package core

import (
	"fmt"
	"sort"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/telemetry"
	"cachecost/internal/trace"
	"cachecost/internal/workload"
)

// RunResult is the priced outcome of driving one service with one
// workload.
type RunResult struct {
	Arch     Arch
	Workload string
	Ops      int
	Report   meter.Report
	// CostPerMReq is the total monthly cost normalized to one million
	// requests of monthly volume — the scale-free comparison unit.
	CostPerMReq float64
	// HitRatio is the application-level cache hit ratio (0 for Base).
	HitRatio float64
	// Component cost rollups ($/month at observed load).
	AppCost, CacheCost, StorageCost float64
	// Cores rollups.
	AppCores, CacheCores, StorageCores float64
	// Degraded counts cache operations demoted to misses during the
	// metered window (nonzero only under fault injection).
	Degraded int64
	// Retries counts cache-call retry attempts during the metered
	// window (nonzero only with a retry policy and faults).
	Retries int64

	// Path holds the exact request-path counters for the metered window
	// (hops, cache messages, SQL statements, raft ships per the paper's
	// §5.3/§5.5 path model). Zero when the run had no Tracer.
	Path trace.PathStats

	// Parallelism is the number of lanes the metered window ran on.
	Parallelism int
	// Wall is the metered window's wall-clock duration.
	Wall time.Duration
	// Throughput is metered ops per second. Closed loop: ops over the
	// wall clock. Open loop: executed ops over the schedule span — the
	// wall clock of the slowest lane includes post-schedule drain time
	// and would overstate load figures (see RunConfig.Arrival).
	Throughput float64
	// LatencyP50 and LatencyP99 are per-request latency percentiles over
	// the metered window. Under open loop these are measured from each
	// op's *intended* arrival (coordinated-omission-free): an op that
	// waited in a lane queue is charged for the wait.
	LatencyP50, LatencyP99 time.Duration

	// Open-loop fields; zero unless RunConfig.Arrival was set.

	// Arrival names the schedule ("poisson@2000qps").
	Arrival string
	// Offered is how many ops the schedule offered in the metered
	// window; Executed is how many were actually issued to the service
	// (Offered - ClientShed).
	Offered, Executed int
	// ClientShed counts ops dropped at intended arrival because their
	// lane queue was full — the client-side half of overload.
	ClientShed int64
	// ServerShed counts ops the service's admission gate refused
	// (queue full); DeadlineExceeded counts ops whose SLO deadline
	// expired at or before admission. Both come from the service meter
	// and are zero without ServiceConfig.Admission.
	ServerShed, DeadlineExceeded int64
	// OfferedQPS is the schedule-defined offered rate (Offered / span).
	OfferedQPS float64
	// ScheduleSpan is the schedule's intended duration.
	ScheduleSpan time.Duration
	// SendLatencyP50/P99 are percentiles on the send-time clock (from
	// the moment the op left its lane queue) — the coordinated-omission
	// blind spot, reported alongside the honest clock so the gap is
	// visible. The regression suite pins that under a stall the
	// intended-arrival p99 is strictly worse than this one.
	SendLatencyP50, SendLatencyP99 time.Duration

	// Hists holds per-component histogram digests (request latency, rpc
	// message latency/bytes, sql statement latency) for the metered
	// window. Empty when the run had no telemetry registry.
	Hists []telemetry.HistSummary
}

// String renders a one-line summary.
func (r *RunResult) String() string {
	return fmt.Sprintf("%-14s %-13s cost/Mreq=$%.4f hit=%.2f app=%.3f cores cache=%.3f cores storage=%.3f cores mem%%=%.1f",
		r.Arch, r.Workload, r.CostPerMReq, r.HitRatio,
		r.AppCores, r.CacheCores, r.StorageCores, 100*r.Report.MemFraction())
}

// hitRatioReporter is implemented by services that track cache hits.
type hitRatioReporter interface {
	CacheHitRatio() float64
}

// ServiceWorker is one lane's view of a service: the subset of Service a
// driver goroutine needs. Each lane must be used by one goroutine at a
// time.
type ServiceWorker interface {
	Read(key string) ([]byte, error)
	Write(key string, value []byte) error
}

// ParallelService is a Service with pre-built request lanes (KVService:
// ServiceConfig.Parallelism of them). The driver runs one goroutine per
// lane; a Service without lanes is driven as one lane.
type ParallelService interface {
	Service
	// Lanes returns the number of lanes, at least 1.
	Lanes() int
	// Worker returns lane i, for 0 <= i < Lanes().
	Worker(i int) (ServiceWorker, error)
}

// RunConfig parameterizes RunExperimentCfg.
type RunConfig struct {
	// Warmup operations run unmetered before the window; Ops are metered.
	Warmup, Ops int
	// BatchSize groups each lane's operations into multi-key batches of
	// this size (the lanes must implement BatchServiceWorker). Within one
	// batch the reads are issued as one ReadBatch and the writes as one
	// WriteBatch — reads first — so op order is preserved across batches
	// but not within one; the aggregate op multiset is identical at any
	// batch size. OnOp still fires once per op, per-op latency is the
	// batch's wall time / batch ops, and the meter still normalizes cost
	// per op, so results are comparable across B. <= 1 issues one op per
	// call.
	BatchSize int
	// Prices is the price book for the report.
	Prices meter.PriceBook
	// OnOp, when non-nil, is called before each operation — warmup and
	// metered alike — with the number of operations started before it.
	// Calls are serialized and numbered in call order; with several
	// lanes the order operations start in is scheduler-dependent, but
	// exactly one call fires per op. Chaos schedules advance here.
	OnOp func(n int)
	// Arrival, when non-nil, switches the metered window to open-loop
	// driving: a deterministic schedule of cfg.Ops intended arrivals is
	// built from this config, a dispatcher releases each op at its
	// intended instant into a bounded per-lane queue, and latency is
	// measured from the intended arrival (coordinated-omission-free).
	// Warmup remains closed-loop. Incompatible with BatchSize > 1.
	Arrival *workload.ArrivalConfig
	// SLO, under open loop, is each op's latency budget: the op's
	// deadline is its intended arrival plus SLO, propagated down the
	// request path (and across transports) for admission control.
	// Zero means no deadline.
	SLO time.Duration
	// LaneDepth bounds each lane's client-side queue under open loop; an
	// op arriving to a full lane is dropped and counted in
	// RunResult.ClientShed. Default 1024.
	LaneDepth int
	// Tracer, when non-nil, is the tracer the service was assembled with
	// (ServiceConfig.Tracer): its path counters are reset at the metered
	// window boundary and snapshotted into RunResult.Path.
	Tracer *trace.Tracer
	// Telemetry, when non-nil, is the registry the service was assembled
	// with (ServiceConfig.Telemetry): its flows are reset at the metered
	// window boundary (mirroring meter.Reset), per-request latency is
	// observed into a "request.latency" histogram, and every histogram's
	// digest is snapshotted into RunResult.Hists.
	Telemetry *telemetry.Registry
}

// RunExperiment drives svc with ops operations from gen (after warmup
// unmetered operations), then prices the metered window. The meter must
// be the one the service was assembled with.
func RunExperiment(svc Service, m *meter.Meter, gen workload.Generator, warmup, ops int, prices meter.PriceBook) (*RunResult, error) {
	return RunExperimentCfg(svc, m, gen, RunConfig{Warmup: warmup, Ops: ops, Prices: prices})
}

// RunExperimentCfg drives svc with cfg.Ops operations from gen (after
// cfg.Warmup unmetered operations) across the service's lanes, then
// prices the metered window and reports throughput and latency
// percentiles alongside cost.
func RunExperimentCfg(svc Service, m *meter.Meter, gen workload.Generator, cfg RunConfig) (*RunResult, error) {
	// Meter on the thread-CPU clock for the whole run (lane goroutines
	// are pinned to OS threads): busy time then counts only CPU the
	// measured code actually consumed, not wall time it spent preempted
	// by other lanes or parked on a lock. On an idle machine this is
	// identical to the wall measurement for one lane, and it is what
	// keeps cost/Mreq parallelism-invariant.
	m.SetThreadCPUClock(true)
	defer m.SetThreadCPUClock(false)
	win, err := drive(svc, m, gen, cfg)
	if err != nil {
		return nil, err
	}
	lats := win.lats
	path := cfg.Tracer.PathStats()
	var hists []telemetry.HistSummary
	if cfg.Telemetry != nil {
		hists = cfg.Telemetry.Snapshot().HistSummaries()
	}
	// Price the requests the service actually saw: under open loop,
	// client-shed ops never reached the service and must not dilute
	// cost/Mreq.
	metered := cfg.Ops
	if win.sched != nil {
		metered = win.executed
	}
	m.AddRequests(int64(metered))
	report := meter.BuildReport(m, cfg.Prices)
	if win.lanes > 1 && len(lats) > 0 {
		// Memory amortization under a concurrent driver: see
		// meter.Report.LaneQPS. The single-lane rate is 1/mean latency.
		var sum time.Duration
		for _, d := range lats {
			sum += d
		}
		mean := sum / time.Duration(len(lats))
		if mean > 0 {
			report.LaneQPS = float64(time.Second) / float64(mean)
		}
	}

	res := &RunResult{
		Arch:         svc.Arch(),
		Workload:     gen.Name(),
		Ops:          metered,
		Report:       report,
		Degraded:     m.CounterValue(DegradedCounter),
		Retries:      m.CounterValue(RetriesCounter),
		CostPerMReq:  report.CostPerMillionRequests(),
		AppCost:      report.ComponentCost("app"),
		CacheCost:    report.ComponentCost("remotecache"),
		StorageCost:  report.ComponentCost("storage"),
		AppCores:     report.ComponentCores("app"),
		CacheCores:   report.ComponentCores("remotecache"),
		StorageCores: report.ComponentCores("storage"),
		Path:         path,
		Parallelism:  win.lanes,
		Wall:         win.wall,
		Hists:        hists,
	}
	if sched := win.sched; sched != nil {
		res.Arrival = sched.Name()
		res.Offered = cfg.Ops
		res.Executed = win.executed
		res.ClientShed = win.clientShed
		res.ServerShed = m.CounterValue(ShedCounter)
		res.DeadlineExceeded = m.CounterValue(DeadlineExceededCounter)
		res.ScheduleSpan = sched.Span()
		if sp := sched.Span().Seconds(); sp > 0 {
			res.OfferedQPS = float64(cfg.Ops) / sp
			// The slowest lane's wall clock includes drain time past the
			// schedule's end; the schedule span is the honest denominator
			// for rate at a given offered load.
			res.Throughput = float64(win.executed) / sp
		}
		if len(win.send) > 0 {
			send := append([]time.Duration(nil), win.send...)
			sort.Slice(send, func(i, j int) bool { return send[i] < send[j] })
			res.SendLatencyP50 = send[percentileIndex(len(send), 50)]
			res.SendLatencyP99 = send[percentileIndex(len(send), 99)]
		}
	} else if win.wall > 0 {
		res.Throughput = float64(cfg.Ops) / win.wall.Seconds()
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		res.LatencyP50 = lats[percentileIndex(len(lats), 50)]
		res.LatencyP99 = lats[percentileIndex(len(lats), 99)]
	}
	if hr, ok := svc.(hitRatioReporter); ok {
		res.HitRatio = hr.CacheHitRatio()
	}
	return res, nil
}

// percentileIndex returns the index of the p'th percentile in a sorted
// slice of n samples (nearest-rank).
func percentileIndex(n, p int) int {
	i := n*p/100 - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// PreloadItems materializes the key population of a KV-style generator
// (Synthetic or MetaKV) for KVService.Preload.
func PreloadItems(gen workload.Generator) ([]PreloadItem, error) {
	switch g := gen.(type) {
	case *workload.Synthetic:
		items := make([]PreloadItem, g.Keys())
		for i := range items {
			items[i] = PreloadItem{Key: workload.KeyName(i), Size: g.ValueSize()}
		}
		return items, nil
	case *workload.MetaKV:
		items := make([]PreloadItem, g.Keys())
		for i := range items {
			items[i] = PreloadItem{Key: workload.KeyName(i), Size: workload.MetaValueSize(i)}
		}
		return items, nil
	default:
		return nil, fmt.Errorf("core: no preloader for workload %q", gen.Name())
	}
}

// BuildKVService assembles and preloads a KVService for gen.
func BuildKVService(cfg ServiceConfig, gen workload.Generator) (*KVService, error) {
	svc, err := NewKVService(cfg)
	if err != nil {
		return nil, err
	}
	items, err := PreloadItems(gen)
	if err != nil {
		return nil, err
	}
	if err := svc.Preload(items); err != nil {
		return nil, err
	}
	return svc, nil
}
