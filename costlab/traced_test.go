package main

import (
	"math"
	"runtime"
	"testing"
	"time"

	"cachecost/internal/core"
	"cachecost/internal/workload"
)

func TestLaneSpansFlagChildrenOutlastingTheRequest(t *testing.T) {
	var s laneSpans
	s.begin(100)
	s.record(layerStorage, 110, 150, 10)
	s.record(layerCache, 150, 160, 5)
	s.end(200)
	if s.violations != 0 || s.selfNs != 50 || s.callNs[layerStorage] != 40 || s.calls[layerCache] != 1 || s.bytes != 15 {
		t.Fatalf("well-nested request: %+v", s)
	}
	s.begin(300)
	s.record(layerStorage, 290, 420, 1)
	s.end(400)
	if s.violations != 1 {
		t.Fatalf("child longer than its request was not flagged: %+v", s)
	}
}

// shortHot returns kv-hot with a short warm-up.
func shortHot() *spec {
	sp := *specByName("kv-hot")
	sp.warmup = 1000
	return &sp
}

// TestTimingConnSpansNest drives the traced deployment and checks, for
// every request, that the seam's child spans fit inside the front-door
// span.
func TestTimingConnSpansNest(t *testing.T) {
	sp := shortHot()
	for _, a := range archs {
		d, err := sp.deployTraced(a, 7)
		if err != nil {
			t.Fatal(err)
		}
		d.lane.spans.reset()
		if _, err := d.run(0, 500); err != nil {
			t.Fatal(err)
		}
		s := d.lane.spans
		if s.reqs != 500 || s.violations != 0 || s.calls[layerStorage] == 0 {
			t.Errorf("%v: %d requests, %d violations, %d storage calls", a, s.reqs, s.violations, s.calls[layerStorage])
		}
		if a == core.Remote && s.calls[layerCache] < 500 {
			t.Errorf("Remote: %d cache calls for 500 requests", s.calls[layerCache])
		}
		var res result
		checkKV(&res, a.String(), d.st, d.lane, &d.chk)
		if res.failed != 0 {
			t.Errorf("%v: %d failed checks: %v", a, res.failed, res.notes)
		}
	}
}

// TestTracedMatchesTimed checks that the traced deployment, assembled
// from public parts, is the program's deployment: it serves the same op
// stream with identical cache hits and per-component busy time within
// 10%.
func TestTracedMatchesTimed(t *testing.T) {
	if testing.Short() {
		t.Skip("drives six deployments")
	}
	sp := shortHot()
	const ops, windows = 1500, 7
	for _, a := range archs {
		timed, err := sp.deploy(a, 7)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := sp.deployTraced(a, 7)
		if err != nil {
			t.Fatal(err)
		}
		busy := map[*deployment]map[string][]float64{timed: {}, traced: {}}
		for _, d := range []*deployment{timed, traced} {
			if err := sp.warm(d); err != nil {
				t.Fatal(err)
			}
		}
		c0 := [2]statsPair{}
		for i, d := range []*deployment{timed, traced} {
			if d.cacheStats != nil {
				c0[i] = statsPair{d.cacheStats().Hits, d.cacheStats().Misses}
			}
		}
		for w := 0; w < windows; w++ {
			for _, d := range []*deployment{timed, traced} {
				runtime.GC()
				d.m.Reset()
				if _, err := d.run(0, ops); err != nil {
					t.Fatal(err)
				}
				sums := map[string]time.Duration{}
				for _, s := range d.m.Snapshot() {
					sums[s.Name] += s.Busy
				}
				busy[d]["app"] = append(busy[d]["app"], float64(sums["app"])/ops)
				busy[d]["storage"] = append(busy[d]["storage"], float64(storageBusy(sums))/ops)
				if a == core.Remote {
					busy[d]["remotecache"] = append(busy[d]["remotecache"], float64(sums["remotecache"])/ops)
				}
			}
		}
		for comp := range busy[timed] {
			tm, tr := median(busy[timed][comp]), median(busy[traced][comp])
			t.Logf("%v %s busy per request: timed %.0f ns, traced %.0f ns", a, comp, tm, tr)
			if !raceEnabled && math.Abs(tr-tm) > 0.1*tm {
				t.Errorf("%v %s busy per request: timed %.0f ns, traced %.0f ns", a, comp, tm, tr)
			}
		}
		if timed.cacheStats != nil {
			dt := statsPair{timed.cacheStats().Hits - c0[0].hits, timed.cacheStats().Misses - c0[0].misses}
			dr := statsPair{traced.cacheStats().Hits - c0[1].hits, traced.cacheStats().Misses - c0[1].misses}
			if dt != dr || dt.hits == 0 {
				t.Errorf("%v cache hits/misses: timed %+v, traced %+v", a, dt, dr)
			}
		}
	}
}

type statsPair struct{ hits, misses int64 }

type stubWorker struct{ digest []byte }

func (s stubWorker) Read(string) ([]byte, error) { return s.digest, nil }
func (s stubWorker) Write(string, []byte) error  { return nil }

// TestLaneLoopAllocatesNothing pins the measured loop's own cost: with a
// service that allocates nothing, a window allocates nothing.
func TestLaneLoopAllocatesNothing(t *testing.T) {
	st := newStream(workload.NewSynthetic(workload.SyntheticConfig{Keys: 100, ReadRatio: 0.5, Seed: 3}), 100, nil)
	if err := st.draw(1000); err != nil {
		t.Fatal(err)
	}
	l := &lane{w: stubWorker{digest: make([]byte, 16)}, recs: make([]rec, 0, 1000), buf: growBuf(nil, st.maxSize)}
	allocs := testing.AllocsPerRun(10, func() {
		l.next, l.recs = 0, l.recs[:0]
		l.loop(st, math.MaxInt64, 0)
	})
	if allocs != 0 || len(l.recs) != 1000 {
		t.Fatalf("loop allocated %v times for %d ops", allocs, len(l.recs))
	}
}
