package load

import (
	"syscall"
	"time"
)

// sleep blocks for d with the kernel's high-resolution timer. The Go
// runtime's own timers wake an idle process through epoll_wait, whose
// timeout counts whole milliseconds; at a few hundred requests per
// second that slack would be a large part of every measured latency.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
