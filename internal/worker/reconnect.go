package worker

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// This file implements the crash-recovery participation mode the paper's
// §2.3 footnote describes ("crash-recovery, in which a process may fail
// then recover and try participating again"): a volunteer that keeps
// rejoining the deployment after transient failures, with exponential
// backoff. From the master's point of view each rejoin is simply a new
// device joining dynamically — no protocol change is needed, which is the
// point of the crash-stop design.

// ReconnectConfig tunes the rejoin loop.
type ReconnectConfig struct {
	// InitialBackoff before the first retry; zero selects 200ms.
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential growth; zero selects 30s.
	MaxBackoff time.Duration
	// MaxAttempts bounds consecutive failed attempts; zero means
	// unlimited.
	MaxAttempts int
}

func (c ReconnectConfig) initial() time.Duration {
	if c.InitialBackoff <= 0 {
		return 200 * time.Millisecond
	}
	return c.InitialBackoff
}

func (c ReconnectConfig) max() time.Duration {
	if c.MaxBackoff <= 0 {
		return 30 * time.Second
	}
	return c.MaxBackoff
}

// ErrRetriesExhausted reports that MaxAttempts consecutive joins failed.
var ErrRetriesExhausted = errors.New("worker: reconnect attempts exhausted")

// ServeWithReconnect keeps the volunteer participating until the stream
// completes gracefully (join returns nil), the context is cancelled, or
// MaxAttempts consecutive attempts fail. join performs one full join
// (e.g. dial + JoinWS); a successful period of participation resets the
// backoff.
//
// Cancelling the context returns ctx.Err() promptly even while join is
// still blocked (mid-dial, mid-handshake, or serving): the join runs on
// its own goroutine and is abandoned to unwind on its own. Joins that
// hold resources should watch the same context and release them, so the
// abandoned join unblocks instead of lingering.
func ServeWithReconnect(ctx context.Context, v *Volunteer, cfg ReconnectConfig, join func() error) error {
	backoff := cfg.initial()
	failures := 0
	for {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		before := v.Processed()
		err := joinCtx(ctx, join)
		if err == nil {
			// Graceful completion: the stream is done.
			return nil
		}
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		if v.Processed() > before {
			// We participated before failing: this was a working period,
			// so the backoff resets (the paper's transient-fault case).
			backoff = cfg.initial()
			failures = 0
		} else {
			failures++
			if cfg.MaxAttempts > 0 && failures >= cfg.MaxAttempts {
				return fmt.Errorf("%w after %d attempts: %v", ErrRetriesExhausted, failures, err)
			}
		}
		select {
		case <-time.After(backoff):
		case <-ctxDone(ctx):
			return ctx.Err()
		}
		backoff *= 2
		if backoff > cfg.max() {
			backoff = cfg.max()
		}
	}
}

func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// joinCtx runs join, returning ctx.Err() promptly if the context is
// cancelled while join is still blocked. The abandoned join goroutine
// unwinds on its own once its underlying connection fails or is severed.
func joinCtx(ctx context.Context, join func() error) error {
	if ctx == nil {
		return join()
	}
	done := make(chan error, 1)
	go func() { done <- join() }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}
