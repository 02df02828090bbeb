package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The open-loop senders use it to hold their
// schedule: time.Sleep parks the goroutine on the runtime's netpoller,
// which on Linux waits in whole milliseconds when the process is idle, so
// a sub-millisecond wait can come back up to a millisecond late — the
// generator's lateness would then dominate the latencies it measures.
// nanosleep(2) blocks just this goroutine's thread on a high-resolution
// timer instead.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(time.Until(t))
			return
		}
	}
}
