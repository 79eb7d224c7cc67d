package core

import (
	"fmt"
	"time"

	"cachecost/internal/fault"
	"cachecost/internal/flight"
	"cachecost/internal/meter"
	"cachecost/internal/trace"
	"cachecost/internal/workload"
)

// FigTailwhy answers "why is the tail slow?" with measured stage
// attribution. For each architecture it probes closed-loop capacity,
// then replays the workload open-loop past saturation (the overload
// figure's driving) with the flight recorder armed: every request gets
// an always-on breakdown — queue wait, admission wait, cache round
// trips, storage round trips, app remainder — and at completion the
// tail sampler retains the slowest-K plus every shed / blown-deadline /
// degraded / error request as exemplars. The table reports where the
// slowest exemplars' intended-clock latency went, stage by stage, and
// which stage dominates — the per-request evidence behind the overload
// figure's aggregate p99.
//
// With -storagestall set, a wall-clock stall is injected on the
// app→storage connection (StorageFaultNode): the dominant stage should
// move to storage, and blown-deadline exemplars should carry the stall —
// the assertion the flight-smoke CI job makes.
func FigTailwhy(o FigOptions) (*Table, error) {
	o.applyDefaults()
	rec := o.Flight
	if rec == nil {
		rec = flight.New(flight.Config{})
	}
	load := 1.5
	if len(o.OfferedLoads) > 0 {
		load = o.OfferedLoads[0]
	}
	process := o.Arrival
	if process == "" {
		process = workload.ArrivalPoisson.String()
	}
	proc, err := workload.ParseArrivalProcess(process)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "tailwhy",
		Title: fmt.Sprintf("Why the tail: stage attribution of the slowest requests (%.1fx capacity, %s arrivals)", load, proc),
		Header: []string{"arch", "slowest_k", "p99_intended_ms",
			"queue_frac", "admission_frac", "cache_frac", "storage_frac", "app_frac",
			"dominant", "shed_ex", "deadline_ex", "degraded_ex", "error_ex"},
	}
	cfg := workload.SyntheticConfig{Keys: o.Keys, Alpha: 1.2, ReadRatio: 0.9, ValueSize: 1 << 10, Seed: o.Seed}
	for _, arch := range []Arch{Base, Remote, Linked} {
		probe, err := o.kvCell(arch, cfg)
		if err != nil {
			return nil, err
		}
		capacity, slo, err := o.capacity(arch.String(), probe, 10*time.Millisecond)
		if err != nil {
			return nil, err
		}
		// One recorder serves every cell; reset at the cell boundary so
		// exemplars describe this (arch, load) point only.
		rec.Reset()
		res, err := o.tailwhyCell(arch, cfg, workload.ArrivalConfig{
			Process: proc,
			Rate:    load * capacity,
			Seed:    o.Seed,
		}, slo, rec)
		if err != nil {
			return nil, err
		}
		ex := rec.Exemplars()
		var sums [trace.NumStages]int64
		var total int64
		for i := range ex.Slowest {
			r := &ex.Slowest[i].Record
			for s := trace.Stage(0); s < trace.NumStages; s++ {
				if s == trace.StageRaft {
					continue
				}
				sums[s] += r.Stages[s]
			}
			total += r.Dur
		}
		frac := func(s trace.Stage) float64 {
			if total == 0 {
				return 0
			}
			return float64(sums[s]) / float64(total)
		}
		dominant, best := trace.StageApp, int64(-1)
		for s := trace.Stage(0); s < trace.NumStages; s++ {
			if s == trace.StageRaft {
				continue
			}
			if sums[s] > best {
				dominant, best = s, sums[s]
			}
		}
		t.AddRow(arch.String(), len(ex.Slowest), float64(res.LatencyP99)/1e6,
			frac(trace.StageQueue), frac(trace.StageAdmission), frac(trace.StageCache),
			frac(trace.StageStorage), frac(trace.StageApp),
			dominant.String(), len(ex.Shed), len(ex.Deadline), len(ex.Degraded), len(ex.Error))
		o.emit(fmt.Sprintf("tailwhy/%s/load=%.1f", arch, load), res)
	}
	t.Notes = append(t.Notes,
		"fractions split the slowest-K exemplars' intended-clock latency; queue is dispatch-to-handler slip, app the unattributed handler remainder",
		"retention decides at request completion, so a request slow only in its final stage is still captured",
		"with -storagestall the dominant stage moves to storage and blown-deadline exemplars carry the injected stall")
	return t, nil
}

// tailwhyCell is overloadCell with the flight recorder armed and the
// optional storage-stall injection: a wall-clock stall on the
// app→storage connection at the configured rate.
func (o FigOptions) tailwhyCell(arch Arch, cfg workload.SyntheticConfig, arrival workload.ArrivalConfig, slo time.Duration, rec *flight.Recorder) (*RunResult, error) {
	m := meter.NewMeter()
	o.cellMeter(m)
	gen := workload.NewSynthetic(cfg)
	ws := int64(cfg.Keys) * int64(cfg.ValueSize)
	par := o.parFor(arch)
	var inj *fault.Injector
	if o.StorageStall > 0 {
		rate := o.StorageStallRate
		if rate <= 0 {
			rate = 1
		}
		inj = fault.New(o.Seed, fault.Options{Meter: m})
		inj.SetRule(StorageFaultNode, fault.Rule{StallSleep: o.StorageStall, StallRate: rate})
	}
	svcCfg := ServiceConfig{
		Arch:              arch,
		Meter:             m,
		StorageCacheBytes: ws * 15 / 100,
		AppCacheBytes:     ws * 60 / 100,
		RemoteCacheBytes:  ws * 60 / 100,
		AppReplicas:       o.AppReplicas,
		Parallelism:       par,
		Tracer:            o.Tracer,
		Telemetry:         o.Telemetry,
		Faults:            inj,
		Flight:            rec,
		Admission:         &AdmissionConfig{MaxInflight: par, QueueDepth: 4 * par},
	}
	svc, err := BuildKVService(svcCfg, gen)
	if err != nil {
		return nil, err
	}
	return RunExperimentCfg(svc, m, gen, RunConfig{
		Warmup: o.Warmup, Ops: o.Ops, Prices: o.Prices, Tracer: o.Tracer,
		Telemetry: o.Telemetry,
		Arrival:   &arrival,
		SLO:       slo,
	})
}
