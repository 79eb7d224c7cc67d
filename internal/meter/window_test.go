package meter

import (
	"sync"
	"testing"
	"time"
)

func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// TestWindowNextSharesBoundary: adjacent sections share one clock
// reading per boundary, and each is credited net of the inner
// components' busy time.
func TestWindowNextSharesBoundary(t *testing.T) {
	m := NewMeter()
	sqlC, exec, kv := m.Component("sql"), m.Component("exec"), m.Component("kv")
	ctx := m.NewSharedAttrCtx(kv)
	reads := m.CountClockReads()

	w := ctx.Open(sqlC)
	spin(2 * time.Millisecond)
	w.Next(exec)
	kv.Track(func() { spin(4 * time.Millisecond) })
	spin(time.Millisecond)
	gross := w.Close()

	// Open, Next and Close read once each; kv's Track twice.
	if got := reads(); got != 5 {
		t.Fatalf("clock readings = %d, want 5", got)
	}
	if b := sqlC.Busy(); b < 2*time.Millisecond || b > 4*time.Millisecond {
		t.Fatalf("sql busy = %v, want ~2ms", b)
	}
	if b := exec.Busy(); b < time.Millisecond || b > 3*time.Millisecond {
		t.Fatalf("exec busy = %v, want ~1ms (kv's 4ms excluded)", b)
	}
	if gross < 5*time.Millisecond {
		t.Fatalf("Close returned %v, want the last section's gross ~5ms", gross)
	}
	if sqlC.Ops() != 1 || exec.Ops() != 1 {
		t.Fatalf("ops sql=%d exec=%d, want 1 each", sqlC.Ops(), exec.Ops())
	}
}

// TestWindowCovers: a context reports a window as covering exactly its
// own component, restores the enclosing window on Close, and a nil
// context opens an inert window.
func TestWindowCovers(t *testing.T) {
	m := NewMeter()
	app, cache := m.Component("app"), m.Component("cache")
	ctx := m.NewAttrCtx()
	if ctx.Covers(app) {
		t.Fatal("no window open yet")
	}
	outer := ctx.Open(app)
	inner := ctx.Open(cache)
	if !ctx.Covers(cache) || ctx.Covers(app) {
		t.Fatal("the innermost window covers its own component only")
	}
	inner.Close()
	if !ctx.Covers(app) {
		t.Fatal("closing the inner window must restore the outer one")
	}
	outer.Close()
	if ctx.Covers(app) {
		t.Fatal("no window open after Close")
	}

	var none *AttrCtx
	w := none.Open(app)
	w.Next(cache)
	if d := w.Close(); d != 0 || none.Covers(app) || app.Ops() != 1 {
		t.Fatalf("nil context must open an inert window (d=%v, app ops=%d)", d, app.Ops())
	}
}

// TestSharedAttrCtxConcurrentWindows: goroutines open windows on one
// shared context at once, as a front door served over TCP does. Every
// window is counted, callee credits are ignored (callee time is read off
// the meter), and no window is left open.
func TestSharedAttrCtxConcurrentWindows(t *testing.T) {
	m := NewMeter()
	app := m.Component("app")
	ctx := m.NewSharedAttrCtx()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w := ctx.Open(app)
				ctx.AddInner(time.Second)
				ctx.Span(func() {})
				w.Close()
			}
		}()
	}
	wg.Wait()
	if app.Ops() != 800 || ctx.Inner() != 0 || ctx.Covers(app) {
		t.Fatalf("ops=%d inner=%v covers=%v, want 800, 0, false", app.Ops(), ctx.Inner(), ctx.Covers(app))
	}
}
