//go:build !linux

package storage

import (
	"context"
	"time"
)

// waitIO waits for d or until ctx is done, whichever comes first. A
// context that can never be canceled sleeps directly, avoiding the timer
// allocation on the common Background path. Off Linux the wait is a Go
// timer, which the runtime may round up to its timer granularity.
func waitIO(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
