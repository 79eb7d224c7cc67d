package main

import (
	"cachecost/internal/rpc"
	"cachecost/internal/trace"
)

// Layers timed at the rpc.Conn seam, below the front door.
const (
	layerStorage = iota
	layerCache
	nLayers
)

// laneSpans accumulates one lane's spans: the front-door span of each
// request (the lane's call into the service) and the child spans the
// timing connections record inside it. One lane's requests run on one
// goroutine, so no synchronization is needed.
type laneSpans struct {
	reqStart int64
	child    [nLayers]int64 // ns in child spans of the open request

	reqs       int64
	selfNs     int64 // front-door time not covered by child spans
	calls      [nLayers]int64
	callNs     [nLayers]int64
	bytes      int64 // request + response bytes through the seam
	violations int64 // requests whose children outlasted them
}

func (s *laneSpans) begin(t int64) {
	s.reqStart = t
	s.child = [nLayers]int64{}
}

func (s *laneSpans) end(t int64) {
	d := t - s.reqStart
	var sum int64
	for k, c := range s.child {
		sum += c
		s.callNs[k] += c
	}
	if sum > d {
		s.violations++
	}
	s.reqs++
	s.selfNs += d - sum
}

func (s *laneSpans) record(layer int, start, end int64, bytes int) {
	s.child[layer] += end - start
	s.calls[layer]++
	s.bytes += int64(bytes)
}

func (s *laneSpans) reset() { *s = laneSpans{} }

// add folds o's totals into s.
func (s *laneSpans) add(o *laneSpans) {
	s.reqs += o.reqs
	s.selfNs += o.selfNs
	s.bytes += o.bytes
	s.violations += o.violations
	for k := range s.calls {
		s.calls[k] += o.calls[k]
		s.callNs[k] += o.callNs[k]
	}
}

// timedConn is an rpc.Conn that times every call through it as a child
// span of the lane's open request.
type timedConn struct {
	next  rpc.Conn
	spans *laneSpans
	layer int
}

// Call implements rpc.Conn.
func (c *timedConn) Call(method string, req []byte) ([]byte, error) {
	t0 := nanotime()
	resp, err := c.next.Call(method, req)
	c.spans.record(c.layer, t0, nanotime(), len(req)+len(resp))
	return resp, err
}

// CallCtx implements rpc.TraceConn, so deadlines and span contexts still
// reach the callee.
func (c *timedConn) CallCtx(sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	t0 := nanotime()
	resp, err := rpc.CallTraced(c.next, sc, method, req)
	c.spans.record(c.layer, t0, nanotime(), len(req)+len(resp))
	return resp, err
}

// Close implements rpc.Conn.
func (c *timedConn) Close() error { return c.next.Close() }
