package flow

import (
	"errors"
	"sync"
	"time"

	"cad3/internal/obsv"
)

// ErrCircuitOpen is returned by a transport whose links are all tripped:
// the sender should treat it like sustained backpressure — cut its rate
// to the floor and let the breaker's half-open probes discover recovery —
// rather than retrying into a dead or dying peer. It is distinct from
// ErrBackpressure: backpressure is the broker refusing load it could see,
// a tripped circuit is the link not answering at all.
var ErrCircuitOpen = errors.New("flow: circuit open")

// Breaker states.
type BreakerState int32

const (
	// BreakerClosed passes requests through (healthy link).
	BreakerClosed BreakerState = iota
	// BreakerOpen refuses requests until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets a single probe through at a time; its outcome
	// closes or re-opens the breaker.
	BreakerHalfOpen
)

// String renders the state for logs and debug endpoints.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker defaults.
const (
	// DefaultBreakerThreshold is the consecutive-failure count that trips
	// the breaker.
	DefaultBreakerThreshold = 5
	// DefaultBreakerCooldown is how long an open breaker refuses before
	// allowing a half-open probe.
	DefaultBreakerCooldown = 500 * time.Millisecond
)

// BreakerConfig configures a circuit breaker.
type BreakerConfig struct {
	// FailThreshold is the consecutive-failure count that trips the
	// breaker. Values <= 0 select DefaultBreakerThreshold.
	FailThreshold int
	// Cooldown is the open -> half-open delay. Values <= 0 select
	// DefaultBreakerCooldown.
	Cooldown time.Duration
	// Metrics, when set, receives <name>.trips and <name>.probes counters
	// plus a <name>.open gauge counting breakers currently tripped
	// (open or half-open). Several breakers may share the same registry
	// and name — the pool's per-link breakers aggregate into one family.
	Metrics *obsv.Registry
	// Name prefixes the breaker's metric names. Empty selects
	// "flow.breaker".
	Name string
	// Now injects the clock (deterministic tests). Nil selects time.Now.
	Now func() time.Time
}

// Breaker is a per-link circuit breaker: consecutive transport failures
// trip it open, refusing further traffic on the link; after a cooldown it
// half-opens and admits one probe at a time, closing again on a probe
// success. It protects a dying link from retry pile-up and gives the
// send-side pacer an unambiguous "stop sending" signal (ErrCircuitOpen).
//
// Safe for concurrent use; allocation-free.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    BreakerState
	fails    int
	openedAt time.Time
	probing  bool

	mTrips, mProbes *obsv.Counter
	mOpen           *obsv.Gauge
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = DefaultBreakerThreshold
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultBreakerCooldown
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	b := &Breaker{threshold: cfg.FailThreshold, cooldown: cfg.Cooldown, now: cfg.Now}
	if cfg.Metrics != nil {
		name := cfg.Name
		if name == "" {
			name = "flow.breaker"
		}
		b.mTrips = cfg.Metrics.Counter(name + ".trips")
		b.mProbes = cfg.Metrics.Counter(name + ".probes")
		b.mOpen = cfg.Metrics.Gauge(name + ".open")
	}
	return b
}

// Allow reports whether a request may use the link right now. An open
// breaker whose cooldown has elapsed transitions to half-open and admits
// exactly one probe; further Allow calls refuse until that probe's
// OnSuccess/OnFailure lands.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		if b.mProbes != nil {
			b.mProbes.Inc()
		}
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		if b.mProbes != nil {
			b.mProbes.Inc()
		}
		return true
	}
}

// OnSuccess records a request that completed over the link. A half-open
// probe success closes the breaker.
func (b *Breaker) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	if b.state == BreakerHalfOpen {
		b.state = BreakerClosed
		b.probing = false
		if b.mOpen != nil {
			b.mOpen.Add(-1)
		}
	}
}

// OnFailure records a transport failure (error or timeout) on the link.
// Reaching the consecutive-failure threshold trips the breaker; a failed
// half-open probe re-opens it for another cooldown.
func (b *Breaker) OnFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.state = BreakerOpen
			b.openedAt = b.now()
			if b.mTrips != nil {
				b.mTrips.Inc()
			}
			if b.mOpen != nil {
				b.mOpen.Add(1)
			}
		}
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.probing = false
		if b.mTrips != nil {
			b.mTrips.Inc()
		}
	case BreakerOpen:
		// Already open (e.g. a straggling in-flight request failing after
		// the trip): keep the original cooldown clock.
	}
}
