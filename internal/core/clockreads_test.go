package core

import (
	"fmt"
	"testing"

	"cachecost/internal/meter"
)

// TestClockReadsPerRequest pins how many busy-clock readings one request
// costs. Every thread-CPU reading is a system call whose cost lands in
// the bill, and the count is as deterministic as allocations per op:
// one reading per metering boundary. The front door's dispatch window
// takes two and loopback charges inside it none. A Remote hit adds the
// cache node's single stopwatch (two). A Base read adds the storage
// node's two timed transport charges (four), its storage.sql →
// storage.exec → storage.sql windows (four) and the raft lease and kv
// stopwatches (two each). A lane of a multi-lane service attributes on a
// per-goroutine context, which adds its Span's two per hop. Worker(0) of
// a single-lane service is the lane svc.Read uses, so it reads the same.
func TestClockReadsPerRequest(t *testing.T) {
	const key, n = "key-00000001", 20
	cases := []struct {
		arch Arch
		hops int64 // loopback hops per request
		want int64 // readings on the single-lane service
	}{
		{Linked, 0, 2},
		{Remote, 1, 4},
		{Base, 1, 14},
	}
	lanes := []struct {
		par, worker int // worker < 0: svc.Read
	}{{1, -1}, {1, 0}, {2, 1}}
	for _, tc := range cases {
		for _, ln := range lanes {
			name := fmt.Sprintf("%v/P%d", tc.arch, ln.par)
			if ln.par == 1 && ln.worker >= 0 {
				name += "/Worker0"
			}
			t.Run(name, func(t *testing.T) {
				m := meter.NewMeter()
				cfg := smallCfg(tc.arch, m)
				cfg.Parallelism = ln.par
				svc, err := BuildKVService(cfg, smallGen(1))
				if err != nil {
					t.Fatal(err)
				}
				read := svc.Read
				want := tc.want
				if ln.worker >= 0 {
					w, err := svc.Worker(ln.worker)
					if err != nil {
						t.Fatal(err)
					}
					read = w.Read
				}
				if ln.par > 1 {
					want += 2 * tc.hops
				}
				// Warm the key into every cache tier first: the pinned
				// counts are the steady-state hit paths.
				for i := 0; i < 3; i++ {
					if _, err := read(key); err != nil {
						t.Fatal(err)
					}
				}
				reads := m.CountClockReads()
				for i := 0; i < n; i++ {
					if _, err := read(key); err != nil {
						t.Fatal(err)
					}
				}
				total := reads()
				if total%n != 0 {
					t.Fatalf("%d readings over %d identical reads: not deterministic", total, n)
				}
				if got := total / n; got != want {
					t.Fatalf("busy-clock readings per read = %d, want %d", got, want)
				}
			})
		}
	}
}
