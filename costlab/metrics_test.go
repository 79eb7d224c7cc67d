package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricDefs(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(endToEndDefs(), perLayerDefs()...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is malformed", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Unit == "" || len(d.Unit) > 16 {
			t.Errorf("metric %q has unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q has direction %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEndDefs() {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q has bound %v", d.Name, d.Bound)
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the metrics the program
// reports and the workloads it knows.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bench.EndToEnd, endToEndDefs()) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEndDefs")
	}
	if !reflect.DeepEqual(bench.PerLayer, perLayerDefs()) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayerDefs")
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if specByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	if got, want := strings.Join(names, ", "), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "kv-hot", "--trace", "2"},
		{"--workload", "kv-hot", "--seconds", "0"},
	} {
		var out, errs strings.Builder
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}
