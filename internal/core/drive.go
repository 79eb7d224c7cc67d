package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/telemetry"
	"cachecost/internal/workload"
)

// The experiment driver. One driver serves every run: the service's
// lanes (a service without lanes is one lane), a batch size B >= 1 and a
// schedule — closed loop (each lane issues its next op as soon as the
// last one finishes) or open loop (a dispatcher releases each op at its
// intended arrival). The whole op stream, warmup then metered, is drawn
// from the generator up front and dealt round-robin: lane w executes ops
// w, w+L, w+2L, ... of each phase in order. The aggregate op multiset is
// therefore identical at any lane count, batch size and schedule, and
// each lane's subsequence is deterministic.
//
// Warmup is always closed loop (its job is warming caches, not
// measuring). Open loop models the paper's "millions of users" for the
// metered window: a closed loop lets a slow service quietly slow its own
// load generator — the coordinated-omission blind spot — while under
// open loop a stalled server is charged for every request that queued
// behind the stall, and a saturated server faces the full offered rate.

// DeadlineWorker is a ServiceWorker that accepts a per-request SLO
// deadline, propagated down the request path (and across transports via
// the trace context) for admission control.
type DeadlineWorker interface {
	ReadDeadline(key string, deadline time.Time) ([]byte, error)
	WriteDeadline(key string, value []byte, deadline time.Time) error
}

// IntendedWorker is a ServiceWorker that accepts each op's intended
// arrival instant (the open-loop schedule slot) before the op runs, so
// the flight recorder can attribute schedule slip to its queue stage and
// measure latency on the intended clock. The driver calls SetIntended
// from the lane's own goroutine only, and clears it when the lane's
// open-loop window ends.
type IntendedWorker interface {
	SetIntended(t time.Time)
}

// defaultLaneDepth bounds a lane's client-side queue when the config
// does not say otherwise.
const defaultLaneDepth = 1024

// window is what the driver measured over the metered window.
type window struct {
	lanes int
	wall  time.Duration // window start to last lane drained
	// lats is per-op latency: the op's own time, or its batch's wall time
	// divided by B; under open loop, measured from the intended arrival.
	lats []time.Duration

	// Open loop only: the schedule, how many ops were executed and shed
	// at their lane queue, and each op's latency from leaving that queue.
	sched      *workload.Schedule
	executed   int
	clientShed int64
	send       []time.Duration
}

// driver is one run's shared state across its lane goroutines.
type driver struct {
	cfg     RunConfig
	arch    string
	lanes   []ServiceWorker
	batch   int
	reqHist *telemetry.Histogram

	onOpMu  sync.Mutex
	started int // ops started so far (guarded by onOpMu)
}

// serviceLanes returns svc's request lanes: a ParallelService's
// pre-built lanes, or svc itself as the one lane.
func serviceLanes(svc Service) ([]ServiceWorker, error) {
	ps, ok := svc.(ParallelService)
	if !ok {
		return []ServiceWorker{svc}, nil
	}
	lanes := make([]ServiceWorker, ps.Lanes())
	for i := range lanes {
		w, err := ps.Worker(i)
		if err != nil {
			return nil, err
		}
		lanes[i] = w
	}
	return lanes, nil
}

// drive runs cfg.Warmup unmetered ops, opens the metered window on m
// (and the tracer and telemetry the service was built with), then runs
// cfg.Ops metered ops on cfg's schedule.
func drive(svc Service, m *meter.Meter, gen workload.Generator, cfg RunConfig) (*window, error) {
	d := &driver{cfg: cfg, arch: svc.Arch().String(), batch: max(cfg.BatchSize, 1)}
	var sched *workload.Schedule
	if cfg.Arrival != nil {
		if d.batch > 1 {
			return nil, fmt.Errorf("core: open-loop driving does not support batching")
		}
		var err error
		if sched, err = workload.BuildSchedule(*cfg.Arrival, cfg.Ops); err != nil {
			return nil, err
		}
	}
	var err error
	if d.lanes, err = serviceLanes(svc); err != nil {
		return nil, err
	}
	if d.batch > 1 {
		for _, w := range d.lanes {
			if _, ok := w.(BatchServiceWorker); !ok {
				return nil, fmt.Errorf("core: %T does not support batched operations", w)
			}
		}
	}
	d.reqHist = cfg.Telemetry.Histogram("request.latency", "seconds")
	stream := make([]workload.Op, cfg.Warmup+cfg.Ops)
	for i := range stream {
		stream[i] = gen.Next()
	}

	if _, err := d.closedLoop(stream[:cfg.Warmup], false); err != nil {
		return nil, err
	}
	// Collect garbage from setup and warmup (and from earlier experiment
	// cells in the same process) so the metered window does not absorb
	// another deployment's GC debt.
	runtime.GC()
	m.Reset()
	cfg.Tracer.ResetCounters()
	cfg.Telemetry.Reset()
	if sched != nil {
		return d.openLoop(stream[cfg.Warmup:], sched)
	}
	return d.closedLoop(stream[cfg.Warmup:], true)
}

// onOp fires the OnOp hook for the next op started.
func (d *driver) onOp() {
	if d.cfg.OnOp == nil {
		return
	}
	d.onOpMu.Lock()
	d.cfg.OnOp(d.started)
	d.started++
	d.onOpMu.Unlock()
}

// start runs fn(w) for every lane w on its own goroutine and returns a
// wait that blocks until every lane returns, reporting the first lane's
// error in lane order. Each lane goroutine is pinned to an OS thread, so
// every thread-CPU clock reading its request path takes is against one
// clock, and labelled for CPU profiles by architecture and lane.
func (d *driver) start(fn func(w int) error) (wait func() error) {
	errs := make([]error, len(d.lanes))
	var wg sync.WaitGroup
	for w := range d.lanes {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			labels := pprof.Labels("arch", d.arch, "lane", strconv.Itoa(w))
			pprof.Do(context.Background(), labels, func(context.Context) { errs[w] = fn(w) })
		}(w)
	}
	return func() error {
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// closedLoop runs ops across the lanes as fast as each lane completes
// them, B at a time, recording per-op latency when sample is set.
func (d *driver) closedLoop(ops []workload.Op, sample bool) (*window, error) {
	nl := len(d.lanes)
	perLane := make([][]time.Duration, nl)
	t0 := time.Now()
	err := d.start(func(w int) error {
		var mine []time.Duration
		if sample {
			mine = make([]time.Duration, 0, len(ops)/nl+1)
		}
		batch := make([]workload.Op, 0, d.batch)
		for i := w; i < len(ops); {
			batch = batch[:0]
			for ; i < len(ops) && len(batch) < d.batch; i += nl {
				d.onOp()
				batch = append(batch, ops[i])
			}
			t0 := time.Now()
			if err := d.apply(d.lanes[w], batch); err != nil {
				return err
			}
			per := time.Since(t0) / time.Duration(len(batch))
			for range batch {
				d.reqHist.Observe(int64(per))
				if sample {
					mine = append(mine, per)
				}
			}
		}
		perLane[w] = mine
		return nil
	})()
	win := &window{lanes: nl, wall: time.Since(t0)}
	if err != nil {
		return nil, err
	}
	if sample {
		win.lats = make([]time.Duration, 0, len(ops))
		for _, mine := range perLane {
			win.lats = append(win.lats, mine...)
		}
	}
	return win, nil
}

// apply issues one op per call at B = 1, and one batch per call at B > 1.
func (d *driver) apply(w ServiceWorker, ops []workload.Op) error {
	if d.batch == 1 {
		return applyOp(w, ops[0], time.Time{})
	}
	return applyBatch(w.(BatchServiceWorker), ops)
}

// applyBatch issues one batch of ops against a batch-capable lane: the
// batch's reads as one multi-key read, then its writes as one multi-key
// write, so op order is preserved across batches but not within one.
func applyBatch(svc BatchServiceWorker, ops []workload.Op) error {
	var readKeys, writeKeys []string
	var writeVals [][]byte
	for _, op := range ops {
		switch op.Kind {
		case workload.Read:
			readKeys = append(readKeys, op.Key)
		case workload.Write:
			writeKeys = append(writeKeys, op.Key)
			writeVals = append(writeVals, ValueFor(op.Key, op.ValueSize))
		}
	}
	if len(readKeys) > 0 {
		if _, err := svc.ReadBatch(readKeys); err != nil {
			return fmt.Errorf("core: batch read %d keys: %w", len(readKeys), err)
		}
	}
	if len(writeKeys) > 0 {
		if err := svc.WriteBatch(writeKeys, writeVals); err != nil {
			return fmt.Errorf("core: batch write %d keys: %w", len(writeKeys), err)
		}
	}
	return nil
}

// applyOp executes one workload op against a lane, attaching a non-zero
// deadline when the lane accepts one.
func applyOp(w ServiceWorker, op workload.Op, deadline time.Time) error {
	var dw DeadlineWorker
	if !deadline.IsZero() {
		dw, _ = w.(DeadlineWorker)
	}
	var err error
	switch {
	case op.Kind == workload.Read && dw != nil:
		_, err = dw.ReadDeadline(op.Key, deadline)
	case op.Kind == workload.Read:
		_, err = w.Read(op.Key)
	case dw != nil:
		err = dw.WriteDeadline(op.Key, ValueFor(op.Key, op.ValueSize), deadline)
	default:
		err = w.Write(op.Key, ValueFor(op.Key, op.ValueSize))
	}
	if err != nil {
		if op.Kind == workload.Read {
			return fmt.Errorf("core: read %q: %w", op.Key, err)
		}
		return fmt.Errorf("core: write %q: %w", op.Key, err)
	}
	return nil
}

// schedOp is one dispatched operation: the op, its intended arrival and
// its SLO deadline.
type schedOp struct {
	op       workload.Op
	intended time.Time
	deadline time.Time
}

// openLoop releases op i at its intended instant into lane i%L's bounded
// queue and measures each op's latency from that instant.
func (d *driver) openLoop(ops []workload.Op, sched *workload.Schedule) (*window, error) {
	nl := len(d.lanes)
	depth := d.cfg.LaneDepth
	if depth <= 0 {
		depth = defaultLaneDepth
	}
	type laneRec struct {
		intended, send []time.Duration
	}
	chans := make([]chan schedOp, nl)
	for w := range chans {
		chans[w] = make(chan schedOp, depth)
	}
	recs := make([]laneRec, nl)
	wait := d.start(func(w int) error {
		lane := d.lanes[w]
		iw, _ := lane.(IntendedWorker)
		rec := &recs[w]
		for so := range chans[w] {
			if iw != nil {
				iw.SetIntended(so.intended)
			}
			sendT0 := time.Now()
			if err := applyOp(lane, so.op, so.deadline); err != nil {
				// Keep draining so the dispatcher never blocks; the
				// remaining ops are not executed.
				for range chans[w] {
				}
				return err
			}
			done := time.Now()
			dIntended := done.Sub(so.intended)
			d.reqHist.Observe(int64(dIntended))
			rec.intended = append(rec.intended, dIntended)
			rec.send = append(rec.send, done.Sub(sendT0))
		}
		if iw != nil {
			iw.SetIntended(time.Time{})
		}
		return nil
	})

	// Dispatch: a full lane drops the op at its arrival instant
	// (client-side shedding): an open-loop client with a bounded buffer,
	// not an unbounded one — so a dead service yields bounded memory and a
	// finite run, and the drop is itself a datum (ClientShed).
	win := &window{lanes: nl, sched: sched}
	t0 := time.Now()
	for i, op := range ops {
		target := t0.Add(sched.Offset(i))
		for {
			rem := time.Until(target)
			if rem <= 0 {
				break
			}
			// Sleep the bulk, spin the tail: timer wake-ups overshoot by
			// tens of microseconds, which at high offered rates would
			// systematically delay every dispatch.
			if rem > 200*time.Microsecond {
				time.Sleep(rem - 100*time.Microsecond)
			} else {
				runtime.Gosched()
			}
		}
		d.onOp()
		var deadline time.Time
		if d.cfg.SLO > 0 {
			deadline = target.Add(d.cfg.SLO)
		}
		select {
		case chans[i%nl] <- schedOp{op: op, intended: target, deadline: deadline}:
		default:
			win.clientShed++
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	err := wait()
	win.wall = time.Since(t0)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		win.executed += len(rec.intended)
		win.lats = append(win.lats, rec.intended...)
		win.send = append(win.send, rec.send...)
	}
	return win, nil
}
