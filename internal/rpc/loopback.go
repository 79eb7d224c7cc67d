package rpc

import (
	"net"
	"sync"
	"sync/atomic"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// loopbackBufPool recycles the request "wire" buffers Loopback copies into.
// Handlers must not retain the request past the call (the HandlerFunc
// contract), so the buffer can be reused as soon as Dispatch returns —
// making the steady-state request copy allocation-free.
var loopbackBufPool = sync.Pool{
	New: func() any { return new([]byte) },
}

// Loopback is an in-process Conn bound directly to a Server. It preserves
// the cost semantics of a real network hop — the request and response are
// copied (no sharing of buffers across the "wire"), both endpoints are
// charged per-message and per-byte transport overhead — while keeping
// experiment runs deterministic and single-process.
type Loopback struct {
	server  *Server
	comp    *meter.Component // caller-side attribution; may be nil
	burner  *meter.Burner
	cost    CostModel
	attr    *meter.AttrCtx // caller's attribution context; may be nil
	metrics *Metrics       // per-message telemetry; may be nil
	closed  atomic.Bool
}

// NewLoopback returns a Conn that dispatches directly into server,
// charging the caller's overhead to comp.
func NewLoopback(server *Server, comp *meter.Component, burner *meter.Burner, cost CostModel) *Loopback {
	return &Loopback{server: server, comp: comp, burner: burner, cost: cost}
}

// SetAttrCtx binds the caller's attribution context. While a window on
// the caller's component is open on it (a front-door dispatch), the
// caller-side charges burn untimed: the window already covers them.
// Outside any window they are timed as usual. A per-goroutine context
// also records timed charges and the full dispatch time as callee time,
// so the caller's window subtracts exactly this goroutine's callees.
// Call it before the connection is used; it is not synchronized against
// Call.
func (l *Loopback) SetAttrCtx(ctx *meter.AttrCtx) { l.attr = ctx }

// SetMetrics binds per-message telemetry. Call before the connection is
// used; it is not synchronized against Call.
func (l *Loopback) SetMetrics(m *Metrics) { l.metrics = m }

// Call implements Conn.
func (l *Loopback) Call(method string, req []byte) ([]byte, error) {
	return l.call(trace.SpanContext{}, method, req)
}

// CallCtx implements TraceConn: the hop is recorded as an "rpc" span
// (annotated rpc.hop=loopback) and counted, and the span context flows
// into the server's dispatch.
func (l *Loopback) CallCtx(sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	if !sc.Traced() {
		return l.call(sc, method, req)
	}
	sc.Tracer().CountHop()
	act, down := trace.Start(sc, "rpc", method)
	act.Annotate("rpc.hop", "loopback")
	resp, err := l.call(down, method, req)
	act.SetBytes(len(req), len(resp))
	act.End()
	return resp, err
}

func (l *Loopback) call(sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	if l.closed.Load() {
		return nil, net.ErrClosed
	}
	start := l.metrics.begin()
	l.charge(len(req))
	// Copy across the "wire": the server must not alias caller memory,
	// exactly as with a socket. The buffer is pooled — handlers may not
	// retain the request past the call, so it is free for reuse on return.
	bp := loopbackBufPool.Get().(*[]byte)
	wireReq := append((*bp)[:0], req...)
	var resp []byte
	var err error
	if l.attr != nil {
		// The dispatch time — downstream attributed busy plus its glue —
		// is callee time from this goroutine's perspective.
		l.attr.Span(func() { resp, err = l.server.DispatchCtx(sc, method, wireReq) })
	} else {
		resp, err = l.server.DispatchCtx(sc, method, wireReq)
	}
	if err != nil {
		*bp = wireReq
		loopbackBufPool.Put(bp)
		l.metrics.end(start, len(req), 0, err)
		return nil, err
	}
	// Copy the response out BEFORE recycling the request buffer: a handler
	// may legally build its response over the request bytes (echo-style),
	// so resp can alias wireReq. The destination comes from the shared
	// transport pool; callers that finish decoding may PutBuffer it back.
	wireResp := append(GetBuffer(), resp...)
	*bp = wireReq
	loopbackBufPool.Put(bp)
	l.charge(len(wireResp))
	l.metrics.end(start, len(req), len(wireResp), nil)
	return wireResp, nil
}

// charge pays the caller-side transport work of one n-byte message:
// untimed inside a window the bound context holds on the caller's
// component, timed (and credited as callee time) otherwise.
func (l *Loopback) charge(n int) {
	if l.comp == nil || l.burner == nil {
		return
	}
	if l.attr.Covers(l.comp) {
		l.cost.burnIn(l.comp, l.burner, n)
		return
	}
	l.attr.AddInner(l.cost.Charge(l.comp, l.burner, n))
}

// Close implements Conn.
func (l *Loopback) Close() error {
	l.closed.Store(true)
	return nil
}

// Direct is a Conn that invokes a server with no transport cost and no
// copying. It models a linked (in-process) component: the callee's handler
// CPU is still metered, but there is no hop to pay for. Used where an
// architecture links a cache or library into the application process.
type Direct struct {
	server *Server
}

// NewDirect returns a zero-overhead in-process Conn.
func NewDirect(server *Server) *Direct { return &Direct{server: server} }

// Call implements Conn.
func (d *Direct) Call(method string, req []byte) ([]byte, error) {
	return d.server.Dispatch(method, req)
}

// CallCtx implements TraceConn. A Direct call is not a network hop, so no
// hop span is recorded and no hop is counted — the Linked architectures'
// zero-hop invariant rests on this — but the context still flows so the
// callee's own spans attach to the caller's trace.
func (d *Direct) CallCtx(sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	return d.server.DispatchCtx(sc, method, req)
}

// Close implements Conn.
func (d *Direct) Close() error { return nil }
