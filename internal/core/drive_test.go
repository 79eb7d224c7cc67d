package core

import (
	"fmt"
	"testing"

	"cachecost/internal/meter"
	"cachecost/internal/workload"
)

// seqGen emits ops with unique keys ("op00000", "op00001", ...), every
// third a write, so each executed op identifies its stream index.
type seqGen struct{ n int }

func (g *seqGen) Next() workload.Op {
	op := workload.Op{Kind: workload.Read, Key: fmt.Sprintf("op%05d", g.n), ValueSize: 8}
	if g.n%3 == 2 {
		op.Kind = workload.Write
	}
	g.n++
	return op
}

func (g *seqGen) Name() string { return "seq" }

// recLane is a lane that records the keys it executes, in order, and
// counts each op on the meter component "fake".
type recLane struct {
	comp *meter.Component
	keys []string
}

func (l *recLane) do(keys ...string) {
	l.keys = append(l.keys, keys...)
	l.comp.AddOps(int64(len(keys)))
}

func (l *recLane) Read(key string) ([]byte, error)      { l.do(key); return nil, nil }
func (l *recLane) Write(key string, value []byte) error { l.do(key); return nil }
func (l *recLane) ReadBatch(keys []string) ([][]byte, error) {
	l.do(keys...)
	return make([][]byte, len(keys)), nil
}
func (l *recLane) WriteBatch(keys []string, values [][]byte) error { l.do(keys...); return nil }
func (l *recLane) Arch() Arch                                      { return Base }
func (l *recLane) Close() error                                    { return nil }

// recService is a multi-lane recording service.
type recService struct{ lanes []*recLane }

func (s *recService) Read(key string) ([]byte, error)      { return s.lanes[0].Read(key) }
func (s *recService) Write(key string, value []byte) error { return s.lanes[0].Write(key, value) }
func (s *recService) Arch() Arch                           { return Base }
func (s *recService) Close() error                         { return nil }
func (s *recService) Lanes() int                           { return len(s.lanes) }
func (s *recService) Worker(i int) (ServiceWorker, error)  { return s.lanes[i], nil }

// TestDriverContract pins the one driver's contract at every lane count,
// batch size and schedule: each of the generator's first Warmup+Ops ops
// runs exactly once; lane w runs ops w, w+L, ... in order (within a
// batch, reads before writes); OnOp fires once per op with every n in
// [0, N) seen once; only the metered ops fall in the metered window; and
// open loop with batching is rejected. One lane is a Service without
// lanes of its own.
func TestDriverContract(t *testing.T) {
	const warmup, ops = 40, 200
	for _, nl := range []int{1, 3} {
		for _, b := range []int{1, 4} {
			for _, open := range []bool{false, true} {
				t.Run(fmt.Sprintf("L%d/B%d/open=%v", nl, b, open), func(t *testing.T) {
					m := meter.NewMeter()
					comp := m.Component("fake")
					lanes := make([]*recLane, nl)
					for i := range lanes {
						lanes[i] = &recLane{comp: comp}
					}
					var svc Service = lanes[0]
					if nl > 1 {
						svc = &recService{lanes: lanes}
					}
					var seen []int
					cfg := RunConfig{
						Warmup: warmup, Ops: ops, BatchSize: b, Prices: meter.GCP,
						OnOp: func(n int) { seen = append(seen, n) },
					}
					if open {
						cfg.Arrival = &workload.ArrivalConfig{Process: workload.ArrivalPoisson, Rate: 50000, Seed: 1}
					}
					res, err := RunExperimentCfg(svc, m, &seqGen{}, cfg)
					if open && b > 1 {
						if err == nil {
							t.Fatal("open loop with batching was not rejected")
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if res.Parallelism != nl || res.Ops != ops {
						t.Fatalf("ran %d ops on %d lanes, want %d on %d", res.Ops, res.Parallelism, ops, nl)
					}
					if got := comp.Ops(); got != ops {
						t.Fatalf("metered window counted %d ops, want %d: warmup leaked in or ops went missing", got, ops)
					}
					if len(seen) != warmup+ops {
						t.Fatalf("OnOp fired %d times, want %d", len(seen), warmup+ops)
					}
					for i, n := range seen {
						if n != i {
							t.Fatalf("OnOp call %d got n=%d", i, n)
						}
					}
					gen := &seqGen{}
					stream := make([]workload.Op, warmup+ops)
					for i := range stream {
						stream[i] = gen.Next()
					}
					for w, l := range lanes {
						var want []string
						for _, phase := range [][]workload.Op{stream[:warmup], stream[warmup:]} {
							var dealt []workload.Op
							for i := w; i < len(phase); i += nl {
								dealt = append(dealt, phase[i])
							}
							for lo := 0; lo < len(dealt); lo += b {
								chunk := dealt[lo:min(lo+b, len(dealt))]
								for _, kind := range []workload.OpKind{workload.Read, workload.Write} {
									for _, op := range chunk {
										if op.Kind == kind {
											want = append(want, op.Key)
										}
									}
								}
							}
						}
						if fmt.Sprint(l.keys) != fmt.Sprint(want) {
							t.Fatalf("lane %d ran %v, want %v", w, l.keys, want)
						}
					}
				})
			}
		}
	}
}
