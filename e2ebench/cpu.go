package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The bounded throughput and set-up figures, and the pipeline's per-call
// classify figure, are taken in CPU time, not wall time. On a host whose
// few cores other tenants share, a run's wall time stretches by however
// long the guest's scheduler or the hypervisor kept the process off a
// core, and across runs of the same code that swung the wall throughput
// by far more than any regression bound. The CPU time the program spends
// on the same work does not include those waits (Linux leaves time stolen
// by the hypervisor out of a thread's CPU time when paravirtual steal
// accounting is on). A CPU figure also leaves out waits that burn no CPU,
// such as a disk sync; the wall figures are printed beside it.

// processCPU returns the CPU time this process has used so far, user and
// system, over all its threads: the program's goroutines, the benchmark's
// load generator and the garbage collector.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID; the benchmark
// runs on Linux.
const clockThreadCPUTimeID = 3

// threadCPU returns the CPU time the calling thread has used so far. The
// caller keeps its goroutine on one thread (runtime.LockOSThread) between
// two readings.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// onThreadCPU runs fn on one locked thread and returns the thread CPU time
// it took.
func onThreadCPU(fn func()) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	fn()
	return threadCPU() - start
}
