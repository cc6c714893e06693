package api

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync/atomic"
	"time"

	"dynautosar/internal/core"
)

// The retrying transport: a DeploymentService decorator that absorbs
// the transient error shapes of a federated control plane — a shard
// leader dying mid-request (`unavailable`) or a request landing on a
// follower or deposed leader (`not_leader`) — with capped jittered
// backoff. Reads are retried as-is; operation-creating calls are made
// safe to retry by stamping a per-operation idempotency key before the
// first attempt, so a request whose response was lost to a failover is
// answered on retry with the originally created operation instead of a
// duplicate. A create whose request has no key field (a rollout) is
// retried only on `not_leader`; see Route.Resendable.

// RetryOptions tunes NewRetryClient.
type RetryOptions struct {
	// Attempts caps total tries per call (first try included); 0 means
	// the default (6).
	Attempts int
	// Backoff paces the waits between tries; the zero value uses the
	// core.Backoff defaults (100ms base, 30s cap, 0.5 jitter).
	Backoff core.Backoff
	// Sleep, when non-nil, replaces the real wait (tests).
	Sleep func(context.Context, time.Duration) error
	// Logf receives one line per retried attempt; nil disables.
	Logf func(format string, args ...any)
}

const defaultRetryAttempts = 6

// retryClient carries out routes on an inner DeploymentService with
// retry semantics.
type retryClient struct {
	inner DeploymentService
	o     RetryOptions
	// prefix + seq generate distinct idempotency keys; the random
	// prefix keeps keys unique across client restarts.
	prefix string
	seq    atomic.Uint64
}

// NewRetryClient wraps svc — typically an httpTransport from NewClient,
// or a federation router — in the retrying transport and returns it as
// a Client. Callers may pre-fill IdempotencyKey on op-creating
// requests; otherwise one is generated per call (not per attempt), so
// every retry of one logical create carries the same key.
func NewRetryClient(svc DeploymentService, opts RetryOptions) *Client {
	if opts.Attempts <= 0 {
		opts.Attempts = defaultRetryAttempts
	}
	if opts.Sleep == nil {
		opts.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return Errorf(CodeUnavailable, "api: retry wait: %v", ctx.Err())
			case <-t.C:
				return nil
			}
		}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	var raw [8]byte
	if _, err := rand.Read(raw[:]); err != nil {
		// Entropy exhaustion is effectively unreachable; fall back to a
		// fixed prefix rather than failing client construction.
		copy(raw[:], "idemkey0")
	}
	if u, ok := svc.(*Client); ok {
		svc = u.DeploymentService
	}
	return &Client{DeploymentService: Stub{&retryClient{
		inner: svc, o: opts, prefix: hex.EncodeToString(raw[:]),
	}}}
}

// nextKey mints a fresh idempotency key.
func (r *retryClient) nextKey() string {
	return "idem-" + r.prefix + "-" + itoa(r.seq.Add(1))
}

func itoa(n uint64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Invoke stamps a keyed request's idempotency key once, then runs the
// route up to the attempt budget, backing off between tries. What is
// worth re-sending comes from the table: an at-most-once route only on
// `not_leader`, every other also on `unavailable`.
func (r *retryClient) Invoke(ctx context.Context, rt *Route, arg any) (any, error) {
	if rt.Keyed {
		arg = rt.stamp(arg, r.nextKey)
	}
	b := r.o.Backoff
	for attempt := 1; ; attempt++ {
		out, err := rt.call(ctx, r.inner, arg)
		if err == nil || !rt.Resendable(err) || attempt >= r.o.Attempts {
			return out, err
		}
		d := b.Next()
		r.o.Logf("api: %s attempt %d failed (%s), retrying in %s", rt.Name, attempt, CodeOf(err), d)
		if serr := r.o.Sleep(ctx, d); serr != nil {
			return out, err
		}
	}
}
