//go:build linux

package meter

import (
	"syscall"
	"unsafe"
)

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID: CPU time
// consumed by the calling thread.
const clockThreadCPUTimeID = 3

// threadCPUNanos reads the calling OS thread's CPU clock. Meaningful
// deltas require the goroutine to stay on one thread between readings
// (runtime.LockOSThread); the stopwatch layer clamps the occasional
// cross-thread delta at zero. clock_gettime never blocks, so the call
// skips the scheduler's entersyscall/exitsyscall bracket (RawSyscall).
func threadCPUNanos() int64 {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
