package meter

import (
	"sync/atomic"
	"time"
)

// Attribute runs fn and credits c with the busy time fn consumed MINUS
// whatever busy time fn's callees attributed to other components of the
// same meter in the meantime. Busy time is read on the meter's busy clock
// (the wall clock, or the thread-CPU clock under SetThreadCPUClock). With
// a single-threaded caller this yields exact, double-counting-free
// attribution for a handler that invokes self-metering downstream
// services. Under concurrency the meter-wide delta also absorbs other
// goroutines' attributions; concurrent drivers use AttributeCtx with a
// per-goroutine AttrCtx instead.
func Attribute(m *Meter, c *Component, fn func()) {
	AttributeCtx(m, nil, c, fn)
}

// AttributeCtx is Attribute with an optional attribution context: fn
// runs inside one Window on c, so the busy clock is read once on each
// side. With ctx == nil it behaves exactly like Attribute (meter-wide
// busy delta — exact for a single-threaded caller). With a per-goroutine
// ctx — one per worker goroutine, threaded through that worker's
// connections — the callee busy subtracted is only what *this*
// goroutine's callees recorded, so the split stays tight under
// concurrency.
func AttributeCtx(m *Meter, ctx *AttrCtx, c *Component, fn func()) {
	if c == nil {
		fn()
		return
	}
	if ctx == nil {
		ctx = m.NewSharedAttrCtx()
	}
	w := ctx.Open(c)
	fn()
	w.Close()
}

// AttrCtx is an attribution context: the source of the callee busy time
// a Window subtracts from its own, and the record of which window is
// open, so connections bound to the context know their charges already
// fall inside one (Covers).
//
// A per-goroutine context (NewAttrCtx, or the zero value on the wall
// clock) belongs to one worker goroutine, which threads it through its
// private connections (loopback, retry, fault); every callee charge those
// connections observe is recorded here, so a window subtracts precisely
// the busy time *this* goroutine's callees claimed — unpolluted by other
// workers attributing to the same shared meter concurrently. It is not
// safe for concurrent use.
//
// A shared context (NewSharedAttrCtx) reads callee time off the meter's
// own busy counters instead, so it records nothing and may be used by
// several goroutines at once.
type AttrCtx struct {
	inner int64      // per-goroutine: nanoseconds of callee-attributed (or excluded) time
	clk   *busyClock // the owning meter's time source; nil reads the wall clock
	// srcs, when non-nil, makes the context shared: callee time is the
	// sum of these busy counters (the meter total, or chosen components).
	srcs []*atomic.Int64
	// open counts the windows open on the context; win is the component
	// of the innermost one.
	open atomic.Int32
	win  atomic.Pointer[Component]
}

// NewAttrCtx returns a per-goroutine attribution context on the meter's
// time source, so Span measurements agree with the stopwatches crediting
// into it.
func (m *Meter) NewAttrCtx() *AttrCtx { return &AttrCtx{clk: &m.clk} }

// NewSharedAttrCtx returns a shared attribution context whose windows are
// net of the busy time the given components record while they are open
// — or, with none given, of every component of the meter (Attribute's
// semantics: exact for a single-threaded caller).
func (m *Meter) NewSharedAttrCtx(inner ...*Component) *AttrCtx {
	srcs := []*atomic.Int64{&m.busy}
	if len(inner) > 0 {
		srcs = make([]*atomic.Int64, len(inner))
		for i, c := range inner {
			srcs[i] = &c.busyNanos
		}
	}
	return &AttrCtx{clk: &m.clk, srcs: srcs}
}

// AddInner records d as busy time already attributed by a callee on this
// goroutine (and therefore excluded from the enclosing component's own
// time). A shared context reads callee time off the meter, so it ignores
// the credit.
func (c *AttrCtx) AddInner(d time.Duration) {
	if c != nil && c.srcs == nil && d > 0 {
		c.inner += int64(d)
	}
}

// Inner returns the accumulated callee time of a per-goroutine context.
func (c *AttrCtx) Inner() time.Duration {
	if c == nil {
		return 0
	}
	return time.Duration(c.inner)
}

// Span runs fn and counts its entire busy-clock time as callee time,
// replacing any finer-grained credits fn recorded itself. Callers wrap a
// synchronous downstream call (an RPC dispatch, a self-metering library
// call) in a Span so its time — attributed work, lock waits and glue
// alike — is excluded from the enclosing component's own time exactly
// once. It costs two clock readings; on a nil or shared context, whose
// windows see callee time on the meter, it just runs fn.
func (c *AttrCtx) Span(fn func()) {
	if c == nil || c.srcs != nil {
		fn()
		return
	}
	pre := c.inner
	t0 := c.clk.now()
	fn()
	if d := c.clk.now() - t0; d > 0 {
		pre += d
	}
	c.inner = pre
}

// Covers reports whether a window crediting comp is open on the context.
// A connection bound to the context then burns its charges to comp
// untimed: the window's own readings already cover that time and credit
// it to comp, so stopwatching it again would only pay two clock readings
// to move time between two shares of the same component.
//
// On a shared context used by several goroutines, a window one of them
// holds also covers the others; connections bound to a shared context
// must therefore only be called from inside its windows or while no
// window is open (setup, a single-threaded driver).
func (c *AttrCtx) Covers(comp *Component) bool {
	return c != nil && c.open.Load() > 0 && c.win.Load() == comp
}

// callee returns the context's callee-time counter in nanoseconds.
func (c *AttrCtx) callee() int64 {
	if c.srcs == nil {
		return c.inner
	}
	var n int64
	for _, s := range c.srcs {
		n += s.Load()
	}
	return n
}

// Window is one open attribution window. It credits its component with
// the busy-clock time between its boundaries, net of the callee time its
// context recorded meanwhile, and takes exactly one clock reading per
// boundary: Open reads once, Close reads once, and Next closes one
// section and opens the adjacent one on a single reading. Work burned
// inside the window on its own component needs no timing of its own
// (see Covers). A Window is a value: keep it on the opener's stack.
type Window struct {
	ctx    *AttrCtx
	c      *Component // nil: not metering
	prev   *Component // the context's enclosing window component
	t0     int64      // clock reading at the section start
	before int64      // callee counter at the section start
}

// Open opens a window crediting comp. A nil context or component opens an
// inert window whose Next and Close do nothing.
func (c *AttrCtx) Open(comp *Component) Window {
	if c == nil || comp == nil {
		return Window{}
	}
	c.open.Add(1)
	w := Window{ctx: c, c: comp, prev: c.win.Swap(comp), before: c.callee()}
	w.t0 = c.clk.now()
	return w
}

// Next credits the running section to its component and, at the same
// clock reading, starts the next section crediting comp, which must be a
// non-nil component of the same meter.
func (w *Window) Next(comp *Component) {
	if w.c == nil {
		return
	}
	t, inner := w.ctx.clk.now(), w.ctx.callee()
	w.credit(t, inner)
	w.c, w.t0, w.before = comp, t, inner
	w.ctx.win.Store(comp)
}

// Close credits the running section, counts one operation for it and
// returns the section's gross busy-clock time — the request cost the
// flight recorder bills, at no extra reading.
func (w *Window) Close() time.Duration {
	if w.c == nil {
		return 0
	}
	d := w.credit(w.ctx.clk.now(), w.ctx.callee())
	w.ctx.win.Store(w.prev)
	w.ctx.open.Add(-1)
	w.c = nil
	return d
}

// credit attributes the section ending at clock reading t, with callee
// counter inner, and returns its gross time.
func (w *Window) credit(t, inner int64) time.Duration {
	total := time.Duration(t - w.t0)
	if own := total - time.Duration(inner-w.before); own > 0 {
		w.c.AddBusy(own)
	}
	w.c.AddOps(1)
	if total < 0 {
		return 0
	}
	return total
}
