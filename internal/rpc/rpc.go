// Package rpc is the remote-procedure-call substrate for the cachecost
// laboratory. It plays the role gRPC plays in the paper's testbed (§5.1):
// every hop between application servers, remote caches and storage nodes
// pays framing, copying and dispatch CPU here.
//
// Two transports are provided. The TCP transport runs components as real
// networked processes (see cmd/). The loopback transport runs them in one
// process with identical framing and copying semantics, plus a calibrated
// CPU burn standing in for the kernel network stack — giving deterministic,
// fast experiment runs with the same relative cost shape.
package rpc

import (
	"errors"
	"fmt"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// Conn issues calls against a remote server. Implementations must be safe
// for concurrent use.
type Conn interface {
	// Call sends req to the named method and returns the response body.
	// The returned slice is owned by the caller.
	Call(method string, req []byte) ([]byte, error)
	// Close releases the connection's resources.
	Close() error
}

// TraceConn is implemented by connections that can propagate a span
// context to the callee. All of this package's transports implement it;
// wrappers (retry, pool, fault) pass the context through.
type TraceConn interface {
	Conn
	// CallCtx is Call carrying the caller's span context.
	CallCtx(sc trace.SpanContext, method string, req []byte) ([]byte, error)
}

// CallTraced issues a call with span-context propagation when the
// context carries anything worth propagating — a tracer or a deadline —
// and the connection supports it, falling back to the untraced path
// otherwise. Instrumented layers route every call through this helper,
// so a run with tracing disabled pays exactly one branch here.
func CallTraced(conn Conn, sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	if sc.Traced() || sc.HasDeadline() {
		if tc, ok := conn.(TraceConn); ok {
			return tc.CallCtx(sc, method, req)
		}
	}
	return conn.Call(method, req)
}

// HandlerFunc processes one request body and returns a response body.
// The request slice is only valid for the duration of the call.
type HandlerFunc func(req []byte) ([]byte, error)

// HandlerCtxFunc is a handler that also receives the caller's span
// context, so it can open child spans and bump path counters. The
// context is the zero value when the request arrived untraced.
type HandlerCtxFunc func(sc trace.SpanContext, req []byte) ([]byte, error)

// ErrNoSuchMethod is returned to callers of unregistered methods.
var ErrNoSuchMethod = errors.New("rpc: no such method")

// RemoteError wraps an error string returned by a server so callers can
// distinguish transport failures from application failures.
type RemoteError struct {
	Method string
	Msg    string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote error from %s: %s", e.Method, e.Msg)
}

// CostModel charges the CPU overhead of moving one message through a
// transport endpoint: a fixed per-message cost (syscalls, interrupt and
// dispatch work) plus a per-byte cost (copies through the kernel and NIC
// ring). Units are Burner work units (≈ one unit per byte processed).
//
// The defaults are calibrated so that, as in the paper's profile of
// production clusters, RPC communication is a visible but not dominant
// fraction of request cost at small values and the per-byte term dominates
// at large values.
type CostModel struct {
	PerMessage int
	PerByte    float64
}

// DefaultCost is the calibration used by all experiments.
var DefaultCost = CostModel{PerMessage: 4096, PerByte: 0.5}

// Charge burns CPU for one message of n payload bytes and attributes the
// time to component c, returning the busy duration attributed. A zero
// model charges nothing and returns 0. The return value lets callers that
// track a per-goroutine attribution context credit the charge there.
func (m CostModel) Charge(c *meter.Component, b *meter.Burner, n int) time.Duration {
	work := m.work(n)
	if work <= 0 {
		return 0
	}
	sw := c.Start()
	b.Burn(work)
	return sw.Stop()
}

// burnIn is Charge for a message handled inside an attribution window
// already open on c: it burns the same work and counts the message, but
// takes no clock readings — the window's own readings cover the burn.
func (m CostModel) burnIn(c *meter.Component, b *meter.Burner, n int) {
	if work := m.work(n); work > 0 {
		b.Burn(work)
		c.AddOps(1)
	}
}

// work returns the Burner units one message of n payload bytes costs.
func (m CostModel) work(n int) int {
	if m.PerMessage == 0 && m.PerByte == 0 {
		return 0
	}
	return m.PerMessage + int(m.PerByte*float64(n))
}
