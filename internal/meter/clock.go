package meter

import (
	"sync/atomic"
	"time"
)

// busyClock selects the time source busy-time measurements read. The
// default is the wall clock: for a single-threaded driver on real CPU
// work, wall time of a non-blocking section IS its CPU time, and it is
// what the historical (and test) semantics are defined against.
//
// In thread-CPU mode, readings come from the calling OS thread's CPU
// clock instead. That makes busy time robust to oversubscription: a
// goroutine that is preempted — or parked on a mutex — while it holds a
// stopwatch open accrues nothing, instead of silently absorbing the
// runtime of whichever goroutines the scheduler ran in its place. The
// concurrent experiment driver enables this mode and pins each worker
// goroutine to an OS thread, so deltas are always taken against the
// same thread's clock.
//
// A thread-CPU reading is a real clock_gettime system call (Linux has no
// vDSO path for per-thread clocks), several times the cost of a wall
// reading, and the meter's own overhead lands in the bill it produces.
// Metering therefore takes one reading per boundary: adjacent sections
// share it (Window.Next), and work inside an open window is not timed
// again (AttrCtx.Covers).
type busyClock struct {
	threadCPU atomic.Bool
	// reads, when set, counts every reading (Meter.CountClockReads).
	reads atomic.Pointer[atomic.Int64]
}

// now returns nanoseconds on the selected time source. A nil clock (a
// detached component or zero AttrCtx) reads the wall clock.
func (c *busyClock) now() int64 {
	if c == nil {
		return wallNanos()
	}
	if n := c.reads.Load(); n != nil {
		n.Add(1)
	}
	if c.threadCPU.Load() {
		return threadCPUNanos()
	}
	return wallNanos()
}

// CountClockReads starts counting the readings taken on the meter's busy
// clock and returns a function reporting how many were taken since.
// Readings per request are deterministic, like allocations per op, so
// tests pin them; while counting, each reading pays one atomic add.
func (m *Meter) CountClockReads() func() int64 {
	n := new(atomic.Int64)
	m.clk.reads.Store(n)
	return n.Load
}

// wallBase anchors wall readings so they use the monotonic clock.
var wallBase = time.Now()

func wallNanos() int64 { return int64(time.Since(wallBase)) }
