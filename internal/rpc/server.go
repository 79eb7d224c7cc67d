package rpc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// FlightRecorder is the completion-time flight-recorder hook a front-door
// server drives (implemented by internal/flight, declared here so the
// transport does not depend on it). Begin attaches the per-request stage
// accumulator before the handler runs; Done, called after the handler
// returns, turns the accumulated breakdown into a flight record and makes
// the tail-retention decision — at completion, when outcome and latency
// are known.
type FlightRecorder interface {
	Begin(sc trace.SpanContext) trace.SpanContext
	Done(sc trace.SpanContext, method string, start time.Time, dur time.Duration, err error)
}

// Server dispatches incoming calls to registered handlers and attributes
// the CPU they consume — handler body plus transport overhead — to a meter
// component. Each dispatch is metered in one of three ways:
//
//   - a leaf server (NewServer) runs the inbound charge, the handler and
//     the outbound charge under one stopwatch: two clock readings;
//   - a front door (NewFrontServer) runs them in one attribution window
//     net of the callee busy time its context sees: two readings, and
//     connections bound to the same context charge inside it untimed;
//   - a self-metered server (SetMeterHandlerBody(false)) times the two
//     charges alone and leaves the handler to meter its own internals.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]HandlerCtxFunc

	comp   *meter.Component // may be nil: unmetered
	burner *meter.Burner
	cost   CostModel

	// tracer joins wire-carried span contexts for requests arriving over
	// TCP; traceName labels the server-side dispatch span. In-process
	// transports pass their context straight into DispatchCtx instead.
	tracer    *trace.Tracer
	traceName string
	// meterBody controls whether Dispatch wraps the handler body in the
	// component's stopwatch. Servers whose handlers meter their own
	// internals (the storage node) disable it to avoid double counting;
	// transport overhead is charged to comp either way.
	meterBody bool
	// attr, on a front door, is the attribution context each dispatch
	// opens its window on.
	attr *meter.AttrCtx
	// metrics, when set, records per-dispatch latency and sizes.
	metrics *Metrics
	// flight, when set, records a per-request flight record around each
	// dispatch. Set only on front-door servers: a request that already
	// carries a breakdown (a nested in-process dispatch) is not
	// re-recorded.
	flight FlightRecorder

	lnMu      sync.Mutex
	listeners map[net.Listener]struct{}
	closed    bool
}

// NewServer returns a server that attributes work to comp using the given
// transport cost model. comp may be nil to disable metering; burner may be
// nil when the cost model is zero.
func NewServer(comp *meter.Component, burner *meter.Burner, cost CostModel) *Server {
	return &Server{
		handlers:  make(map[string]HandlerCtxFunc),
		comp:      comp,
		burner:    burner,
		cost:      cost,
		meterBody: true,
		listeners: make(map[net.Listener]struct{}),
	}
}

// NewFrontServer returns a client-facing server whose every dispatch —
// inbound charge, handler, outbound charge — is one attribution window
// on comp, opened on ctx: comp is credited with the window's busy time
// net of the callee busy time ctx sees (the lane's per-goroutine
// context, or a shared one), and the window's gross time is billed to
// the request's flight-recorder breakdown.
func NewFrontServer(ctx *meter.AttrCtx, comp *meter.Component, burner *meter.Burner, cost CostModel) *Server {
	s := NewServer(comp, burner, cost)
	s.attr = ctx
	return s
}

// SetTracer binds a tracer used to join span contexts carried by TCP
// frames, and names the server-side dispatch span (e.g. "storage.rpc").
// In-process transports bypass this: they hand their span context
// directly to DispatchCtx.
func (s *Server) SetTracer(t *trace.Tracer, name string) {
	if name == "" {
		name = "rpc.server"
	}
	s.tracer, s.traceName = t, name
}

// SetMeterHandlerBody controls whether Dispatch attributes handler wall
// time to the server's component (default true). Disable it when the
// handlers meter their own work against finer-grained components.
func (s *Server) SetMeterHandlerBody(on bool) { s.meterBody = on }

// SetMetrics binds per-dispatch telemetry (handler latency, message
// sizes, error counts). Call before the server receives traffic; it is
// not synchronized against Dispatch.
func (s *Server) SetMetrics(m *Metrics) { s.metrics = m }

// SetFlight binds the flight recorder driven around each dispatch. Set
// it on front-door servers only; like SetMetrics it must be called
// before the server receives traffic.
func (s *Server) SetFlight(f FlightRecorder) { s.flight = f }

// Handle registers fn for method. Registering the same method twice
// replaces the earlier handler.
func (s *Server) Handle(method string, fn HandlerFunc) {
	s.HandleCtx(method, func(_ trace.SpanContext, req []byte) ([]byte, error) {
		return fn(req)
	})
}

// HandleCtx registers a context-aware handler for method: it receives the
// caller's span context (zero when the request arrived untraced) so it
// can record spans and path counters.
func (s *Server) HandleCtx(method string, fn HandlerCtxFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = fn
}

// Dispatch runs the handler for method on req, metering handler time and
// charging transport overhead for the inbound and outbound message. It is
// exported so the loopback transport and tests can drive a server without
// a socket.
func (s *Server) Dispatch(method string, req []byte) ([]byte, error) {
	return s.DispatchCtx(trace.SpanContext{}, method, req)
}

// DispatchCtx is Dispatch carrying the caller's span context through to
// the handler. On a front-door server with a flight recorder bound, it
// brackets the dispatch with the recorder's Begin/Done so every request
// leaves a completion-time flight record; nested dispatches (a context
// that already carries a breakdown) pass straight through.
func (s *Server) DispatchCtx(sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	if s.flight != nil && sc.Breakdown() == nil {
		fsc := s.flight.Begin(sc)
		t0 := time.Now()
		resp, err := s.dispatch(fsc, method, req)
		s.flight.Done(fsc, method, t0, time.Since(t0), err)
		return resp, err
	}
	return s.dispatch(sc, method, req)
}

func (s *Server) dispatch(sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	s.mu.RLock()
	fn, ok := s.handlers[method]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchMethod, method)
	}
	start := s.metrics.begin()
	var resp []byte
	var err error
	switch {
	case s.comp == nil:
		resp, err = fn(sc, req)
	case s.attr != nil:
		w := s.attr.Open(s.comp) // by value: one Dispatch per frame, no alloc
		s.burn(len(req))
		resp, err = fn(sc, req)
		s.burn(len(resp))
		sc.AddCost(w.Close())
	case s.meterBody:
		sw := s.comp.Begin()
		s.burn(len(req))
		resp, err = fn(sc, req)
		s.burn(len(resp))
		sw.Stop()
	default:
		s.charge(len(req))
		resp, err = fn(sc, req)
		s.charge(len(resp))
	}
	s.metrics.end(start, len(req), len(resp), err)
	return resp, err
}

// burn pays the transport work of one n-byte message inside the
// dispatch's open window or stopwatch.
func (s *Server) burn(n int) {
	if s.burner != nil {
		s.cost.burnIn(s.comp, s.burner, n)
	}
}

// charge pays the transport work of one n-byte message under its own
// stopwatch, for servers whose handlers meter themselves.
func (s *Server) charge(n int) {
	if s.burner != nil {
		s.cost.Charge(s.comp, s.burner, n)
	}
}

// Serve accepts connections on l until l is closed or the server is
// closed. It always returns a non-nil error; after Close the error is
// net.ErrClosed.
func (s *Server) Serve(l net.Listener) error {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		l.Close()
		return net.ErrClosed
	}
	s.listeners[l] = struct{}{}
	s.lnMu.Unlock()
	defer func() {
		s.lnMu.Lock()
		delete(s.listeners, l)
		s.lnMu.Unlock()
	}()

	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.serveConn(conn)
	}
}

// Close stops all listeners. In-flight calls complete.
func (s *Server) Close() error {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	s.closed = true
	var first error
	for l := range s.listeners {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// serveConn demultiplexes frames from one connection. Each request runs in
// its own goroutine so a slow handler does not head-of-line block the
// connection; writes are serialized by a per-connection mutex.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	var wmu sync.Mutex
	var rd frame
	for {
		if err := readFrame(conn, &rd); err != nil {
			return // connection closed or corrupt; drop it
		}
		if rd.kind != frameRequest && rd.kind != frameRequestTraced {
			return // protocol violation
		}
		id := rd.id
		method := rd.method
		traceID, spanID, sampled, deadline := rd.traceID, rd.spanID, rd.sampled, rd.deadline
		// Copy the body out of the read frame into a pooled buffer; the
		// handler contract (request valid only for the duration of the
		// call) lets the buffer be reused once Dispatch returns.
		bodyBuf := frameBufPool.Get().(*[]byte)
		body := append((*bodyBuf)[:0], rd.body...)
		*bodyBuf = body
		go func() {
			// Join the wire-carried span context so the handler's spans
			// land in a local fragment of the caller's trace; the server-
			// side dispatch span is recorded here (never in DispatchCtx)
			// so in-process transports do not get a duplicate. The wire
			// deadline re-attaches even when the server has no tracer —
			// admission control must see the SLO either way.
			sc := s.tracer.Join(traceID, spanID, sampled).WithDeadlineUnixNano(deadline)
			act, hsc := trace.Start(sc, s.traceName, method)
			resp, err := s.DispatchCtx(hsc, method, body)
			act.SetBytes(len(body), len(resp))
			act.End()
			out := frame{id: id}
			if err != nil {
				out.kind = frameError
				out.method = method
				out.body = []byte(err.Error())
			} else {
				out.kind = frameResponse
				out.body = resp
			}
			respBuf := frameBufPool.Get().(*[]byte)
			buf, ferr := appendFrame((*respBuf)[:0], &out)
			if ferr != nil {
				out = frame{id: id, kind: frameError, method: method, body: []byte(ferr.Error())}
				buf, _ = appendFrame((*respBuf)[:0], &out)
			}
			// Recycle the request buffer only after the response frame is
			// encoded: resp may alias body (an echo-style handler).
			frameBufPool.Put(bodyBuf)
			wmu.Lock()
			_, werr := conn.Write(buf)
			wmu.Unlock()
			*respBuf = buf
			frameBufPool.Put(respBuf)
			if werr != nil && !errors.Is(werr, net.ErrClosed) {
				conn.Close()
			}
		}()
	}
}
