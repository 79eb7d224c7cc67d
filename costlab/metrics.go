package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"cachecost/internal/core"
)

// metricDef describes one reported metric: its unit, which direction is
// better, and (end-to-end metrics only) the share of the parent's median
// by which it may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// archs are the architectures every workload prices, in report order.
var archs = []core.Arch{core.Base, core.Remote, core.Linked}

func archKey(a core.Arch) string { return strings.ToLower(a.String()) }

// endToEndDefs lists the metrics a user of the system sees, reported
// per workload with tracing off.
func endToEndDefs() []metricDef {
	defs := []metricDef{
		{"setup_s", "s", "lower", 0.25},
		{"heap_live_mb", "MiB", "lower", 0.2},
		// The share of attempted operations that succeeded and passed
		// every output check. It is 1 at HEAD; any failure also makes
		// the run exit non-zero.
		{"ok_ratio", "ratio", "higher", 0.01},
	}
	for _, a := range archs {
		defs = append(defs, metricDef{"ops_per_s." + archKey(a), "ops/s", "higher", 0.25})
	}
	for _, a := range archs {
		defs = append(defs, metricDef{"p50_us." + archKey(a), "us", "lower", 0.25})
	}
	for _, a := range archs {
		defs = append(defs, metricDef{"p99_us." + archKey(a), "us", "lower", 0.25})
	}
	for _, a := range archs {
		defs = append(defs, metricDef{"usd_per_mreq." + archKey(a), "USD", "lower", 0.25})
	}
	return defs
}

// perLayerDefs lists the traced run's per-layer metrics, named
// <layer>.<metric>[.<arch>]. Times and counts are per client request
// unless the name says otherwise.
func perLayerDefs() []metricDef {
	var defs []metricDef
	each := func(name, unit, better string, only ...core.Arch) {
		as := archs
		if len(only) > 0 {
			as = only
		}
		for _, a := range as {
			defs = append(defs, metricDef{Name: name + "." + archKey(a), Unit: unit, Better: better})
		}
	}
	each("core.self_us", "us", "lower")
	each("core.busy_us", "us", "lower")
	each("core.read_us", "us", "lower")
	each("core.write_us", "us", "lower")
	each("rpc.calls_per_req", "count", "lower")
	each("rpc.bytes_per_req", "B", "lower")
	each("storage.calls_per_req", "count", "lower")
	each("storage.call_us", "us", "lower")
	each("storage.busy_us", "us", "lower")
	each("storage.wait_us", "us", "lower")
	for _, c := range storageComponents {
		each("storage."+c+".busy_us", "us", "lower")
	}
	each("storage.block_hit_ratio", "ratio", "higher")
	for _, m := range []struct{ name, unit, better string }{
		{"calls_per_req", "count", "lower"},
		{"call_us", "us", "lower"},
		{"busy_us", "us", "lower"},
		{"wait_us", "us", "lower"},
		{"hit_ratio", "ratio", "higher"},
		{"traced_hit_ratio", "ratio", "higher"},
		{"evictions_per_kreq", "count", "lower"},
	} {
		each("remotecache."+m.name, m.unit, m.better, core.Remote)
	}
	each("linkedcache.hit_ratio", "ratio", "higher", core.Linked)
	each("linkedcache.traced_hit_ratio", "ratio", "higher", core.Linked)
	each("linkedcache.evictions_per_kreq", "count", "lower", core.Linked)
	each("runtime.allocs_per_req", "count", "lower")
	each("runtime.bytes_per_req", "B", "lower")
	each("runtime.gc_cpu_frac", "ratio", "lower")
	defs = append(defs, metricDef{Name: "meter.burn_ns_per_kunit", Unit: "ns", Better: "lower"})
	each("trace.overhead_frac", "ratio", "lower")
	each("check.reads", "count", "higher", core.Remote, core.Linked)
	each("check.stale_reads", "count", "lower", core.Remote, core.Linked)
	return defs
}

// storageComponents are the storage node's meter sub-components.
var storageComponents = []string{"sql", "exec", "kv", "raft", "rpc"}

// result is one run's outcome: the output-check tally and every metric
// measured, keyed by name.
type result struct {
	attempted, failed int64
	// notes are human-readable check findings printed before the result.
	notes   []string
	metrics map[string]float64
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// writeReport prints the selected metrics as a table and then, as the
// last line, the JSON result. A metric missing from r or not finite is
// an error: the benchmark never reports a made-up number.
func writeReport(w io.Writer, r *result, defs []metricDef) error {
	rep := report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]valueUnit{}}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
		rep.Metrics[d.Name] = valueUnit{v, d.Unit}
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "check:", n)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
}

// median returns the median of xs (0 for none). xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the nearest-rank p'th percentile of sorted ns.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// perReq divides a window total by its request count (0 for none).
func perReq(total float64, reqs int64) float64 {
	if reqs == 0 {
		return 0
	}
	return total / float64(reqs)
}
