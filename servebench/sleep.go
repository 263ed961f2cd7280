package main

import (
	"syscall"
	"time"
)

// spinWindow is how long before a scheduled send waitUntil stops
// sleeping: nanosleep overshoots by the kernel's default 50 µs timer
// slack plus the wake-up.
const spinWindow = 150 * time.Microsecond

// sleepThread blocks the calling OS thread for about d with nanosleep,
// which, unlike time.Sleep, keeps sub-millisecond precision. The
// benchmark runs on Linux.
func sleepThread(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	// EINTR only shortens the sleep; waitUntil re-checks the clock.
	_ = syscall.Nanosleep(&ts, nil)
}
