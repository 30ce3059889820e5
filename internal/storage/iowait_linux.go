package storage

import (
	"context"
	"syscall"
	"time"
)

// waitSlice bounds one kernel sleep of waitIO, and so how long a canceled
// context can go unnoticed.
const waitSlice = time.Millisecond

// waitIO blocks the calling thread in the kernel for d, the way a real
// pread blocks on its seek, or until ctx is done, whichever comes first.
// A Go timer would not do: the runtime's netpoller rounds every
// sub-millisecond timer wait up to a millisecond, so a 100µs seek would
// cost eleven times its configured latency.
//
// The thread's timer slack is set to 1ns first (the kernel's default is
// 50µs), and the wait sleeps toward a deadline in slices of at most
// waitSlice, checking ctx before each slice. An interrupted slice (EINTR)
// resumes toward the same deadline.
func waitIO(ctx context.Context, d time.Duration) error {
	deadline := time.Now().Add(d)
	syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		left := time.Until(deadline)
		if left <= 0 {
			return nil
		}
		ts := syscall.NsecToTimespec(int64(min(left, waitSlice)))
		_ = syscall.Nanosleep(&ts, nil)
	}
}
