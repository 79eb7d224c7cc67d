package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"cachecost/internal/cache"
	"cachecost/internal/core"
	"cachecost/internal/meter"
)

// timeShare is each architecture's share of the measured time, indexed
// like archs. Base is the slowest architecture on every workload, and its
// p99 is the tail of heavy-tailed writes; a larger share evens out the
// sample counts behind the percentiles.
var timeShare = []float64{0.5, 0.3, 0.2}

// setupReps is how many times each timed deployment is set up; setup_s
// takes the median, and only the last deployment is measured.
const setupReps = 3

// tally accumulates one deployment's windows.
type tally struct {
	// Per-round figures, and every window's latencies pooled.
	opsPerS, usd, p50, p99 []float64
	lat                    []int64
	minSamples             int
	exhausted              int

	reqs, reads, writes int64
	readNs, writeNs     int64
	busy                map[string]time.Duration
	cache, block        cache.Stats
	rt                  [len(rtNames)]float64 // runtime deltas, indexed like rtNames
	heapLive            float64
	spans               laneSpans
}

var rtNames = [...]string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

const (
	rtAllocs = iota
	rtAllocBytes
	rtGCCPU
	rtTotalCPU
)

func readRuntime() (v [len(rtNames)]float64) {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return v
}

func heapLiveBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// addDelta adds the hits, misses and evictions between counter readings
// a and b to s.
func addDelta(s *cache.Stats, a, b cache.Stats) {
	s.Hits += b.Hits - a.Hits
	s.Misses += b.Misses - a.Misses
	s.Evictions += b.Evictions - a.Evictions
}

// measure runs one window of d and prices it with d's meter. With
// collect set, a forced collection precedes the window, as in the
// program's runner, so no window pays for another deployment's garbage
// and end-to-end figures stay steady; traced runs leave collection to
// the runtime, so runtime.gc_cpu_frac sees it.
func measure(d *deployment, dur time.Duration, t *tally, collect bool) error {
	if err := d.drawFor(dur, 0); err != nil {
		return err
	}
	if d.lane.spans != nil {
		d.lane.spans.reset()
	}
	var c0 cache.Stats
	if d.cacheStats != nil {
		c0 = d.cacheStats()
	}
	b0 := d.blockStats()
	if collect {
		// The collection also measures the live heap the previous
		// window left.
		runtime.GC()
		t.heapLive = max(t.heapLive, heapLiveBytes())
	}
	d.m.Reset()
	rt0 := readRuntime()
	w := drive(d.lane, d.st, dur, 0)
	rt1 := readRuntime()
	if w.ops == 0 || w.wall <= 0 {
		return fmt.Errorf("%v: window completed no operations", d.arch)
	}
	d.rate = max(d.rate, w.opsPerSec())
	d.m.AddRequests(w.ops)
	rep := meter.BuildReport(d.m, meter.GCP)
	if t.busy == nil {
		t.busy = map[string]time.Duration{}
	}
	for _, s := range d.m.Snapshot() {
		t.busy[s.Name] += s.Busy
	}
	if d.cacheStats != nil {
		addDelta(&t.cache, c0, d.cacheStats())
	}
	addDelta(&t.block, b0, d.blockStats())
	for i := range t.rt {
		t.rt[i] += rt1[i] - rt0[i]
	}
	if d.lane.spans != nil {
		t.spans.add(d.lane.spans)
	}
	t.opsPerS = append(t.opsPerS, w.opsPerSec())
	t.usd = append(t.usd, rep.CostPerMillionRequests())
	t.lat = append(t.lat, w.lat...)
	slices.Sort(w.lat)
	t.p50 = append(t.p50, float64(percentile(w.lat, 50)))
	t.p99 = append(t.p99, float64(percentile(w.lat, 99)))
	if t.minSamples == 0 || len(w.lat) < t.minSamples {
		t.minSamples = len(w.lat)
	}
	if w.exhausted {
		t.exhausted++
	}
	t.reqs += w.ops
	t.reads += w.reads
	t.writes += w.writes
	t.readNs += w.readNs
	t.writeNs += w.writeNs
	return nil
}

// setUp deploys arch a reps times — deploy, preload, warm-up — and
// returns the last deployment with the median set-up time. Every
// deployment's warm-up is checked.
func (sp *spec) setUp(a core.Arch, seed int64, reps int, res *result, ref replyRef) (*deployment, float64, error) {
	var d *deployment
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if d, err = sp.deploy(a, seed); err != nil {
			return nil, 0, fmt.Errorf("deploy %v: %w", a, err)
		}
		if err := sp.warm(d); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		sp.verify(res, d, ref)
	}
	return d, median(times), nil
}

// warm serves the workload's warm-up ops on d.
func (sp *spec) warm(d *deployment) error {
	if _, err := d.run(0, sp.warmup); err != nil {
		return fmt.Errorf("warm-up %v: %w", d.arch, err)
	}
	return nil
}

// verify checks the operations d executed since its last check, then
// drops the ops its lane has passed.
func (sp *spec) verify(res *result, d *deployment, ref replyRef) {
	label := d.arch.String() + " " + d.label
	if sp.catalog {
		checkReplies(res, label, d.st, d.lane, ref, &d.chk)
	} else {
		checkKV(res, label, d.st, d.lane, &d.chk)
	}
	d.st.trim(d.lane)
}

// runWorkload sets up every architecture, measures them in interleaved
// rounds for seconds in total, checks every reply and derives the
// metrics.
func runWorkload(sp *spec, seed int64, seconds float64, traced bool, log io.Writer) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	res.set("meter.burn_ns_per_kunit", burnSentinel())
	ref := replyRef{}
	reps := setupReps
	if traced {
		reps = 1 // set-up time is reported by untraced runs only
	}
	timed := make([]*deployment, len(archs))
	seam := make([]*deployment, len(archs))
	var setup float64
	for i, a := range archs {
		d, s, err := sp.setUp(a, seed, reps, res, ref)
		if err != nil {
			return nil, err
		}
		timed[i] = d
		setup += s
		if traced && !sp.catalog {
			t, err := sp.deployTraced(a, seed)
			if err != nil {
				return nil, fmt.Errorf("traced deploy %v: %w", a, err)
			}
			if err := sp.warm(t); err != nil {
				return nil, err
			}
			sp.verify(res, t, ref)
			seam[i] = t
		}
	}
	res.set("setup_s", setup)

	perRound := seconds / float64(sp.rounds)
	if seam[0] != nil {
		perRound /= 2
	}
	tt := make([]tally, len(archs))
	ts := make([]tally, len(archs))
	for r := 0; r < sp.rounds; r++ {
		for j := range archs {
			i := (r + j) % len(archs)
			dur := time.Duration(perRound * timeShare[i] * float64(time.Second))
			if err := measure(timed[i], dur, &tt[i], !traced); err != nil {
				return nil, err
			}
			sp.verify(res, timed[i], ref)
			if seam[i] != nil {
				if err := measure(seam[i], dur, &ts[i], false); err != nil {
					return nil, err
				}
				sp.verify(res, seam[i], ref)
			}
		}
	}

	runtime.GC()
	heap := heapLiveBytes()
	for i, a := range archs {
		t := &tt[i]
		heap = max(heap, t.heapLive)
		c := &timed[i].chk
		k := archKey(a)
		// Latencies are medians over rounds of each round's percentile:
		// contention on the storage node makes the latency distribution
		// multimodal, and single windows flip between modes. A round too
		// short for ten samples beyond its p99 pools every round instead.
		p50, p99, pooled := median(t.p50)/1e3, median(t.p99)/1e3, t.minSamples < 1000
		if pooled {
			slices.Sort(t.lat)
			p50, p99 = float64(percentile(t.lat, 50))/1e3, float64(percentile(t.lat, 99))/1e3
		}
		if beyond := len(t.lat) / 100; beyond < 10 {
			res.fail(1, "%v: p99 has only %d samples beyond it", a, beyond)
		}
		res.set("ops_per_s."+k, median(t.opsPerS))
		res.set("p50_us."+k, p50)
		res.set("p99_us."+k, p99)
		res.set("usd_per_mreq."+k, median(t.usd))
		sp.layerMetrics(res, timed[i], t)
		if a != core.Base {
			res.set("check.reads."+k, float64(c.reads))
			res.set("check.stale_reads."+k, float64(c.stale))
		}
		line := fmt.Sprintf("%-7s %-6s samples=%d windows=%d pooled=%t ops/s=%.0f p50=%.1fus p99=%.1fus $/Mreq=%.5f reads=%d judged=%d stale=%d",
			a, "timed", len(t.lat), len(t.opsPerS), pooled, median(t.opsPerS), p50, p99,
			median(t.usd), c.reads, c.judged, c.stale)
		if seam[i] != nil {
			s := &ts[i]
			sc := &seam[i].chk
			sp.tracedMetrics(res, a, t, s)
			if s.spans.violations > 0 {
				res.fail(s.spans.violations, "%v traced: child spans outlasted their request", a)
			}
			line += fmt.Sprintf("\n%-7s %-6s samples=%d ops/s=%.0f hit=%.3f traced_hit=%.3f reads=%d judged=%d stale=%d",
				a, "traced", len(s.lat), median(s.opsPerS), t.cache.HitRatio(), s.cache.HitRatio(), sc.reads, sc.judged, sc.stale)
		}
		if t.exhausted > 0 {
			line += fmt.Sprintf(" (%d windows ran out of drawn ops)", t.exhausted)
		}
		fmt.Fprintln(log, line)
	}
	res.set("heap_live_mb", heap/(1<<20))
	if sp.name == "kv-hot" {
		b, r, l := res.metrics["usd_per_mreq.base"], res.metrics["usd_per_mreq.remote"], res.metrics["usd_per_mreq.linked"]
		if !(l < r && r < b) {
			res.fail(1, "kv-hot: expected $/Mreq linked < remote < base, got %.4f, %.4f, %.4f", l, r, b)
		}
	}
	res.set("ok_ratio", float64(res.attempted-res.failed)/float64(res.attempted))
	return res, nil
}

// layerMetrics derives the meter, cache and runtime per-layer metrics of
// a timed deployment, and zeroes the seam metrics that only a traced
// deployment measures.
func (sp *spec) layerMetrics(res *result, d *deployment, t *tally) {
	k := archKey(d.arch)
	us := func(v time.Duration) float64 { return perReq(float64(v)/1e3, t.reqs) }
	res.set("core.busy_us."+k, us(t.busy["app"]))
	res.set("core.read_us."+k, perReq(float64(t.readNs)/1e3, t.reads))
	res.set("core.write_us."+k, perReq(float64(t.writeNs)/1e3, t.writes))
	res.set("storage.busy_us."+k, us(storageBusy(t.busy)))
	for _, c := range storageComponents {
		res.set("storage."+c+".busy_us."+k, us(t.busy["storage."+c]))
	}
	res.set("storage.block_hit_ratio."+k, t.block.HitRatio())
	res.set("runtime.allocs_per_req."+k, perReq(t.rt[rtAllocs], t.reqs))
	res.set("runtime.bytes_per_req."+k, perReq(t.rt[rtAllocBytes], t.reqs))
	gc := 0.0
	if t.rt[rtTotalCPU] > 0 {
		gc = t.rt[rtGCCPU] / t.rt[rtTotalCPU]
	}
	res.set("runtime.gc_cpu_frac."+k, gc)
	hit := t.cache.HitRatio()
	if d.hitRatio != nil {
		hit = d.hitRatio()
	}
	switch d.arch {
	case core.Remote:
		res.set("remotecache.busy_us."+k, us(t.busy["remotecache"]))
		res.set("remotecache.hit_ratio."+k, hit)
		res.set("remotecache.evictions_per_kreq."+k, perReq(1e3*float64(t.cache.Evictions), t.reqs))
	case core.Linked:
		res.set("linkedcache.hit_ratio."+k, hit)
		res.set("linkedcache.evictions_per_kreq."+k, perReq(1e3*float64(t.cache.Evictions), t.reqs))
	}
	// Seam metrics: measured only by a traced deployment (tracedMetrics
	// overwrites them); the catalog service has no seam.
	for _, n := range []string{"core.self_us", "rpc.calls_per_req", "rpc.bytes_per_req", "storage.calls_per_req",
		"storage.call_us", "storage.wait_us", "trace.overhead_frac"} {
		res.set(n+"."+k, 0)
	}
	switch d.arch {
	case core.Remote:
		for _, n := range []string{"calls_per_req", "call_us", "wait_us", "traced_hit_ratio"} {
			res.set("remotecache."+n+"."+k, 0)
		}
	case core.Linked:
		res.set("linkedcache.traced_hit_ratio."+k, 0)
	}
	if sp.catalog {
		res.set("check.stale_reads."+k, 0)
	}
}

func storageBusy(busy map[string]time.Duration) time.Duration {
	var sum time.Duration
	for name, b := range busy {
		if strings.HasPrefix(name, "storage.") {
			sum += b
		}
	}
	return sum
}

// tracedMetrics derives the seam metrics from traced deployment tally s,
// beside timed tally t of the same architecture. Wait time is a seam
// call's duration not covered by the callee's metered busy time, both
// from the traced deployment.
func (sp *spec) tracedMetrics(res *result, a core.Arch, t, s *tally) {
	k := archKey(a)
	sx := &s.spans
	perUs := func(ns int64) float64 { return perReq(float64(ns)/1e3, sx.reqs) }
	res.set("core.self_us."+k, perUs(sx.selfNs))
	res.set("rpc.calls_per_req."+k, perReq(float64(sx.calls[layerStorage]+sx.calls[layerCache]), sx.reqs))
	res.set("rpc.bytes_per_req."+k, perReq(float64(sx.bytes), sx.reqs))
	res.set("storage.calls_per_req."+k, perReq(float64(sx.calls[layerStorage]), sx.reqs))
	res.set("storage.call_us."+k, perUs(sx.callNs[layerStorage]))
	res.set("storage.wait_us."+k, perUs(sx.callNs[layerStorage])-perReq(float64(storageBusy(s.busy))/1e3, sx.reqs))
	res.set("trace.overhead_frac."+k, 1-median(s.opsPerS)/median(t.opsPerS))
	switch a {
	case core.Remote:
		res.set("remotecache.calls_per_req."+k, perReq(float64(sx.calls[layerCache]), sx.reqs))
		res.set("remotecache.call_us."+k, perUs(sx.callNs[layerCache]))
		res.set("remotecache.wait_us."+k, perUs(sx.callNs[layerCache])-perReq(float64(s.busy["remotecache"])/1e3, sx.reqs))
		res.set("remotecache.traced_hit_ratio."+k, s.cache.HitRatio())
	case core.Linked:
		res.set("linkedcache.traced_hit_ratio."+k, s.cache.HitRatio())
	}
}

// burnSentinel times meter.Burner directly: nanoseconds per thousand
// work units, the median of nine bursts. It moves only if the modeled
// work or the machine changed.
func burnSentinel() float64 {
	b := meter.NewBurner()
	const units = 1 << 20
	xs := make([]float64, 9)
	for i := range xs {
		t0 := time.Now()
		b.Burn(units)
		xs[i] = float64(time.Since(t0).Nanoseconds()) / (units / 1e3)
	}
	return median(xs)
}
