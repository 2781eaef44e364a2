package stream

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"cad3/internal/flow"
)

// RetryClient decorates a TCP client with automatic reconnection: when a
// request fails with a transport error, it redials (with capped,
// jittered exponential backoff) and retries. Broker-level errors
// (unknown topic, bad partition, ...) are returned as-is — only the
// connection is healed. Vehicles and inter-RSU links use it so a
// restarted RSU does not strand its peers.
//
// Backoff is jittered because a broker restart disconnects every peer at
// once: with pure doubling they would all redial in synchronized waves
// (a reconnect storm), re-overloading the broker exactly when it is
// weakest. Each sleep is scaled by a uniform factor in [1-j, 1+j].
type RetryClient struct {
	connClient // every request runs through do

	addr string
	ctx  context.Context // bounds dialing and backoff sleeps
	// maxAttempts per operation. Values <= 0 select 3.
	maxAttempts int
	// baseBackoff doubles per retry, capped at maxBackoff.
	baseBackoff time.Duration
	maxBackoff  time.Duration
	jitter      float64
	sleep       func(time.Duration) // injectable for tests

	mu     sync.Mutex
	rng    *rand.Rand
	client *TCPClient
	closed bool
}

var _ Client = (*RetryClient)(nil)

// ErrClientClosed is returned after Close.
var ErrClientClosed = errors.New("stream: retry client closed")

// DefaultRetryJitter spreads reconnect attempts ±20% around the
// exponential schedule.
const DefaultRetryJitter = 0.2

// RetryConfig tunes a RetryClient. The zero value selects 3 attempts,
// 50 ms doubling to 1 s, and DefaultRetryJitter.
type RetryConfig struct {
	// MaxAttempts per operation. Values <= 0 select 3.
	MaxAttempts int
	// BaseBackoff doubles per retry. Values <= 0 select 50 ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling. Values <= 0 select 1 s.
	MaxBackoff time.Duration
	// Jitter scales each sleep by a uniform factor in [1-J, 1+J].
	// Values outside [0, 1] select DefaultRetryJitter; use a tiny
	// positive value (e.g. 1e-9) for effectively-zero jitter.
	Jitter float64
	// Seed drives the jitter PRNG (deterministic tests). Zero seeds from
	// the wall clock.
	Seed int64
}

func (cfg RetryConfig) withDefaults() RetryConfig {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = time.Second
	}
	if cfg.Jitter <= 0 || cfg.Jitter > 1 {
		cfg.Jitter = DefaultRetryJitter
	}
	if cfg.Seed == 0 {
		cfg.Seed = time.Now().UnixNano()
	}
	return cfg
}

// DialRetry connects with reconnection support. maxAttempts <= 0 selects
// 3; backoff <= 0 selects 50 ms doubling to 1 s (jittered).
func DialRetry(addr string, maxAttempts int, backoff time.Duration) (*RetryClient, error) {
	return DialRetryContext(context.Background(), addr, RetryConfig{
		MaxAttempts: maxAttempts,
		BaseBackoff: backoff,
	})
}

// DialRetryContext connects with reconnection support under a context:
// the context bounds the initial dial, every redial, and every backoff
// sleep, so callers can cap the total time an operation may spend
// retrying (e.g. a handover that must succeed within its deadline or be
// counted as dropped).
func DialRetryContext(ctx context.Context, addr string, cfg RetryConfig) (*RetryClient, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	rc := &RetryClient{
		addr:        addr,
		ctx:         ctx,
		maxAttempts: cfg.MaxAttempts,
		baseBackoff: cfg.BaseBackoff,
		maxBackoff:  cfg.MaxBackoff,
		jitter:      cfg.Jitter,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
	}
	rc.sleep = rc.sleepCtx
	rc.connClient = connClient{run: rc.do}
	c, err := dialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	rc.client = c
	return rc, nil
}

// dialContext dials a stream server under a context (plus the usual
// connect timeout).
func dialContext(ctx context.Context, addr string) (*TCPClient, error) {
	d := net.Dialer{Timeout: DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream dial %s: %w", addr, err)
	}
	return newTCPClient(conn, DialConfig{})
}

// sleepCtx sleeps for d or until the client's context ends.
func (rc *RetryClient) sleepCtx(d time.Duration) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-rc.ctx.Done():
	}
}

// jittered scales d by a uniform factor in [1-j, 1+j].
func (rc *RetryClient) jittered(d time.Duration) time.Duration {
	rc.mu.Lock()
	f := 1 + rc.jitter*(2*rc.rng.Float64()-1)
	rc.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// brokerError reports whether the error is an application-level broker
// response (retrying cannot help) rather than a transport failure.
// Backpressure is deliberately broker-class: a refused send must NOT be
// blind-retried on the spot — that is the retry storm flow control exists
// to prevent. Senders pace (flow.Pacer) or drop instead.
func brokerError(err error) bool {
	for _, sentinel := range []error{
		ErrTopicExists, ErrUnknownTopic, ErrBadPartition,
		ErrBrokerClosed, ErrPartitionDown, ErrValueTooLarge, ErrEmptyTopicName,
		ErrFencedEpoch, ErrOffsetGap,
		flow.ErrBackpressure,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// address returns the current dial target (it moves on leader failover).
func (rc *RetryClient) address() string {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.addr
}

// Addr returns the address the client currently dials. It starts as the
// DialRetry target and follows ErrNotLeader redirects.
func (rc *RetryClient) Addr() string { return rc.address() }

// do runs op, redialing on transport errors. An ErrNotLeader refusal is
// a redirect, not a failure: the client waits out the broker's
// retry-after hint (election settle time) instead of the exponential
// schedule — still jittered, so a herd of failed-over producers does not
// thunder at the freshly elected leader — then redials at the leader
// address the refusal named, and retries there.
//
// A lent read (FetchEach) may run op again only because a fetch answer is
// checked whole (wireDecoder.walkAnswer) before its first message is
// lent: an error never follows a delivered message, so a retried read
// lends nothing twice.
func (rc *RetryClient) do(_ []byte, op func(c *TCPClient) error) error {
	backoff := rc.baseBackoff
	var lastErr error
	notLeader := false
	for attempt := 0; attempt < rc.maxAttempts; attempt++ {
		if err := rc.ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			return fmt.Errorf("stream retry %s: %w", rc.address(), lastErr)
		}
		rc.mu.Lock()
		if rc.closed {
			rc.mu.Unlock()
			return ErrClientClosed
		}
		c := rc.client
		rc.mu.Unlock()

		if c != nil {
			err := op(c)
			notLeader = err != nil && errors.Is(err, ErrNotLeader)
			if err == nil || (!notLeader && brokerError(err)) {
				return err
			}
			lastErr = err
			_ = c.Close()
		}

		// Redial.
		if attempt < rc.maxAttempts-1 {
			delay := backoff
			if notLeader {
				if hint, ok := flow.RetryAfter(lastErr); ok && hint > 0 {
					delay = hint
				}
			}
			rc.sleep(rc.jittered(delay))
			backoff *= 2
			if backoff > rc.maxBackoff {
				backoff = rc.maxBackoff
			}
		}
		if notLeader {
			if leader, ok := LeaderHint(lastErr); ok {
				rc.mu.Lock()
				rc.addr = leader
				rc.mu.Unlock()
			}
		}
		fresh, err := dialContext(rc.ctx, rc.address())
		rc.mu.Lock()
		if rc.closed {
			rc.mu.Unlock()
			if err == nil {
				_ = fresh.Close()
			}
			return ErrClientClosed
		}
		if err != nil {
			rc.client = nil
			lastErr = err
		} else {
			rc.client = fresh
		}
		rc.mu.Unlock()
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("stream: retry budget exhausted for %s", rc.address())
	}
	return fmt.Errorf("stream retry %s: %w", rc.address(), lastErr)
}

// Close implements Client. Closing twice is a no-op.
func (rc *RetryClient) Close() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return nil
	}
	rc.closed = true
	if rc.client != nil {
		return rc.client.Close()
	}
	return nil
}
