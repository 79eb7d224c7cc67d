package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cachecost/internal/core"
	"cachecost/internal/workload"
)

// epoch anchors nanotime on the monotonic clock.
var epoch = time.Now()

// nanotime is the benchmark's clock: monotonic nanoseconds, so the stale
// checker can order operations in real time.
func nanotime() int64 { return int64(time.Since(epoch)) }

// stampBytes is the prefix of every written payload that carries the
// write's version and key, so each write's value — and its digest — is
// unique. Writes shorter than the stamp are padded to it.
const stampBytes = 8

// op is one pre-drawn operation. A write installs version ver (1, 2, …
// per key, in stream order). For a read, ver is how many writes to the
// key precede it in the stream: the version it must see.
type op struct {
	key   uint32
	ver   uint32
	size  int32
	write bool
}

// digestKey identifies one value of one key by the digest the service
// replies with.
type digestKey struct {
	key uint32
	sum [16]byte
}

// stream is a workload's op sequence, drawn from its seeded generator
// ahead of each window so the measured loop only indexes into it.
type stream struct {
	gen    workload.Generator
	keys   []string
	ops    []op
	writes []uint32
	// known maps every value the benchmark preloaded or wrote to its
	// version (0 = preloaded), keyed by the value's core.Digest. Nil when
	// replies are checked against another architecture instead.
	known   map[digestKey]uint32
	scratch []byte
	maxSize int
}

// newStream prepares a stream over keys [0,nkeys). With preloadSize set,
// reads are checked by digest: the preloaded values are registered as
// version 0.
func newStream(gen workload.Generator, nkeys int, preloadSize func(int) int) *stream {
	s := &stream{gen: gen, keys: make([]string, nkeys), writes: make([]uint32, nkeys)}
	for i := range s.keys {
		s.keys[i] = workload.KeyName(i)
	}
	if preloadSize != nil {
		s.known = make(map[digestKey]uint32, nkeys)
		for i, k := range s.keys {
			s.known[digestKey{uint32(i), digestOf(core.Digest(core.ValueFor(k, preloadSize(i))))}] = 0
		}
	}
	return s
}

func digestOf(b []byte) (d [16]byte) {
	copy(d[:], b)
	return d
}

// keyIndex parses a generator key ("key-%08d") back to its index.
func keyIndex(key string, n int) (uint32, error) {
	i, err := strconv.Atoi(strings.TrimPrefix(key, "key-"))
	if err != nil || i < 0 || i >= n {
		return 0, fmt.Errorf("key %q outside the %d-key population", key, n)
	}
	return uint32(i), nil
}

// fillPattern writes the fixed filler every payload carries after its
// stamp.
func fillPattern(b []byte) {
	for i := stampBytes; i < len(b); i++ {
		b[i] = byte(i*131 + 17)
	}
}

// payload stamps o's version and key into buf (pre-filled by
// fillPattern) and returns the value to write.
func payload(buf []byte, o op) []byte {
	p := buf[:o.size]
	binary.LittleEndian.PutUint32(p[0:], o.ver)
	binary.LittleEndian.PutUint32(p[4:], o.key)
	return p
}

// grow extends the scratch buffer to hold n bytes of payload.
func growBuf(b []byte, n int) []byte {
	if len(b) >= n {
		return b
	}
	b = make([]byte, n)
	fillPattern(b)
	return b
}

// draw extends the stream to at least n ops.
func (s *stream) draw(n int) error {
	for len(s.ops) < n {
		g := s.gen.Next()
		k, err := keyIndex(g.Key, len(s.keys))
		if err != nil {
			return err
		}
		o := op{key: k, ver: s.writes[k]}
		if g.Kind == workload.Write {
			s.writes[k]++
			size := g.ValueSize
			if size < stampBytes {
				size = stampBytes
			}
			o = op{key: k, ver: s.writes[k], size: int32(size), write: true}
			if size > s.maxSize {
				s.maxSize = size
			}
			if s.known != nil {
				s.scratch = growBuf(s.scratch, size)
				dk := digestKey{k, digestOf(core.Digest(payload(s.scratch, o)))}
				if v, dup := s.known[dk]; dup {
					return fmt.Errorf("key %s: versions %d and %d share a digest", s.keys[k], v, o.ver)
				}
				s.known[dk] = o.ver
			}
		}
		s.ops = append(s.ops, o)
	}
	return nil
}

// trim drops the ops the lane has passed, so a long run holds only the
// ops ahead of it.
func (s *stream) trim(l *lane) {
	s.ops = append([]op(nil), s.ops[l.next:]...)
	l.next = 0
}

// worker is the client surface the lane drives: a KVService or the
// CatalogService.
type worker interface {
	Read(key string) ([]byte, error)
	Write(key string, value []byte) error
}

// rec is one executed operation, as the client saw it.
type rec struct {
	start, end int64
	// sum is a read's reply: the value digest for KV services, a hash of
	// the reply for the catalog service.
	sum   [16]byte
	key   uint32
	ver   uint32
	write bool
	err   bool
}

// lane is the closed-loop caller: it executes the stream's ops in
// order, each after the previous one returned.
type lane struct {
	w     worker
	next  int
	buf   []byte
	recs  []rec
	spans *laneSpans // traced deployments only
	// hashReply hashes replies (catalog summaries) instead of taking them
	// as digests.
	hashReply bool
}

// window is one measured interval of a deployment.
type window struct {
	ops, reads, writes int64
	readNs, writeNs    int64
	wall               time.Duration
	lat                []int64 // per-op latencies, ns
	exhausted          bool    // the lane ran out of drawn ops before the deadline
}

func (w window) opsPerSec() float64 { return float64(w.ops) / w.wall.Seconds() }

// drive runs the lane until dur has elapsed (0: no time limit) or it has
// executed limit ops (0: no count limit). The stream must already hold
// every op the lane may reach.
func drive(l *lane, st *stream, dur time.Duration, limit int) window {
	// Pin to one OS thread: the meter's thread-CPU clock readings are
	// then all taken against one clock.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	first := len(l.recs)
	room := len(st.ops) - l.next
	if limit > 0 {
		room = min(room, limit)
	}
	if cap(l.recs)-len(l.recs) < room {
		grown := make([]rec, len(l.recs), len(l.recs)+room)
		copy(grown, l.recs)
		l.recs = grown
	}
	l.buf = growBuf(l.buf, st.maxSize)
	t0 := nanotime()
	deadline := int64(math.MaxInt64)
	if dur > 0 {
		deadline = t0 + int64(dur)
	}
	w := window{exhausted: l.loop(st, deadline, limit) && dur > 0}
	recs := l.recs[first:]
	w.lat = make([]int64, 0, len(recs))
	last := t0
	for _, r := range recs {
		d := r.end - r.start
		w.lat = append(w.lat, d)
		if r.write {
			w.writes++
			w.writeNs += d
		} else {
			w.reads++
			w.readNs += d
		}
		last = r.end
	}
	w.ops = int64(len(recs))
	w.wall = time.Duration(last - t0)
	return w
}

// loop is the measured loop. It allocates nothing: ops, payload buffer
// and record slots are all prepared before the window. It reports
// whether the lane ran out of drawn ops before its limits.
func (l *lane) loop(st *stream, deadline int64, limit int) bool {
	ops, keys := st.ops, st.keys
	done := 0
	for l.next < len(ops) {
		o := ops[l.next]
		l.next++
		key := keys[o.key]
		var value []byte
		if o.write {
			value = payload(l.buf, o)
		}
		var reply []byte
		var err error
		t0 := nanotime()
		if l.spans != nil {
			l.spans.begin(t0)
		}
		if o.write {
			err = l.w.Write(key, value)
		} else {
			reply, err = l.w.Read(key)
		}
		t1 := nanotime()
		if l.spans != nil {
			l.spans.end(t1)
		}
		r := rec{start: t0, end: t1, key: o.key, ver: o.ver, write: o.write, err: err != nil}
		if !o.write && err == nil {
			if l.hashReply {
				r.sum = replyHash(reply)
			} else if len(reply) == len(r.sum) {
				copy(r.sum[:], reply)
			} else {
				r.err = true
			}
		}
		l.recs = append(l.recs, r)
		done++
		if t1 >= deadline || done == limit {
			return false
		}
	}
	return true
}

// replyHash condenses a reply into a comparable fingerprint: FNV-1a of
// the bytes plus the length.
func replyHash(b []byte) (h [16]byte) {
	var x uint64 = 1469598103934665603
	for _, c := range b {
		x = (x ^ uint64(c)) * 1099511628211
	}
	binary.LittleEndian.PutUint64(h[0:], x)
	binary.LittleEndian.PutUint64(h[8:], uint64(len(b)))
	return h
}
