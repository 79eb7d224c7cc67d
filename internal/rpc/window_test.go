package rpc

import (
	"testing"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// echoLeaf returns a leaf server on comp that echoes its request.
func echoLeaf(comp *meter.Component) *Server {
	s := NewServer(comp, meter.NewBurner(), DefaultCost)
	s.Handle("get", func(req []byte) ([]byte, error) { return req, nil })
	return s
}

// TestLoopbackOutsideWindowTimesCharges: a loopback bound to an
// attribution context with no window open on its component — none at
// all, or one crediting another component — stopwatches both charges
// onto its component, as an unbound loopback does.
func TestLoopbackOutsideWindowTimesCharges(t *testing.T) {
	m := meter.NewMeter()
	app, cache, other := m.Component("app"), m.Component("cache"), m.Component("other")
	ctx := m.NewSharedAttrCtx()
	lb := NewLoopback(echoLeaf(cache), app, meter.NewBurner(), DefaultCost)
	lb.SetAttrCtx(ctx)

	reads := m.CountClockReads()
	if _, err := lb.Call("get", []byte("k")); err != nil {
		t.Fatal(err)
	}
	// Two per timed charge, two for the leaf's stopwatch.
	if got := reads(); got != 6 {
		t.Fatalf("clock readings = %d, want 6", got)
	}
	if app.Ops() != 2 || app.Busy() <= 0 {
		t.Fatalf("app ops=%d busy=%v: both charges must be credited", app.Ops(), app.Busy())
	}

	w := ctx.Open(other)
	before := app.Busy()
	if _, err := lb.Call("get", []byte("k")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if app.Ops() != 4 || app.Busy() <= before {
		t.Fatalf("app ops=%d busy=%v: a window on another component must not cover app's charges", app.Ops(), app.Busy())
	}
}

// TestFrontWindowCoversBoundLoopback: inside a front door's dispatch
// window, the charges of a loopback bound to the same context burn
// untimed and reach the window's component exactly once — the bill
// never exceeds the window's own busy-clock time — on a shared and on a
// per-goroutine context alike.
func TestFrontWindowCoversBoundLoopback(t *testing.T) {
	cases := []struct {
		name  string
		ctx   func(*meter.Meter) *meter.AttrCtx
		reads int64
	}{
		// Front window 2, leaf stopwatch 2.
		{"shared", func(m *meter.Meter) *meter.AttrCtx { return m.NewSharedAttrCtx() }, 4},
		// Plus the per-goroutine Span around the hop.
		{"per-goroutine", (*meter.Meter).NewAttrCtx, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := meter.NewMeter()
			app, cache := m.Component("app"), m.Component("cache")
			ctx := tc.ctx(m)
			lb := NewLoopback(echoLeaf(cache), app, meter.NewBurner(), DefaultCost)
			lb.SetAttrCtx(ctx)
			front := NewFrontServer(ctx, app, meter.NewBurner(), DefaultCost)
			front.Handle("read", func(req []byte) ([]byte, error) { return lb.Call("get", req) })

			reads := m.CountClockReads()
			b := &trace.Breakdown{}
			if _, err := front.DispatchCtx(trace.SpanContext{}.WithBreakdown(b), "read", []byte("k")); err != nil {
				t.Fatal(err)
			}
			if got := reads(); got != tc.reads {
				t.Fatalf("clock readings = %d, want %d", got, tc.reads)
			}
			// Two front charges, two loopback charges, the window itself.
			if app.Ops() != 5 {
				t.Fatalf("app ops = %d, want 5", app.Ops())
			}
			if app.Busy() <= 0 || cache.Busy() <= 0 {
				t.Fatalf("app %v, cache %v: both must be credited", app.Busy(), cache.Busy())
			}
			if sum := app.Busy() + cache.Busy(); sum > b.Cost() {
				t.Fatalf("components billed %v > window time %v: double counting", sum, b.Cost())
			}
		})
	}
}
