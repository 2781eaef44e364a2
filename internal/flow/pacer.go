package flow

import (
	"sync"

	"cad3/internal/obsv"
)

// Pacer defaults.
const (
	// DefaultMaxDecimation caps how far a vehicle backs off: at 16 a 10 Hz
	// sender degrades to 0.625 Hz, the floor DSRC congestion control
	// tolerates before a vehicle is effectively silent.
	DefaultMaxDecimation = 16
	// DefaultRecoverAfter is how many consecutive accepted sends earn one
	// halving of the decimation factor.
	DefaultRecoverAfter = 8
)

// PacerConfig configures a Pacer. The zero value is a valid enabled pacer
// with the defaults; layers that want pacing to be opt-in should gate on
// their own flag.
type PacerConfig struct {
	// MaxDecimation caps the decimation factor (send every k-th sample,
	// k <= MaxDecimation). Values <= 0 select DefaultMaxDecimation.
	MaxDecimation int
	// RecoverAfter is the accepted-send streak that halves the factor.
	// Values <= 0 select DefaultRecoverAfter.
	RecoverAfter int
	// Metrics, when set, receives <name>.decimated and <name>.backpressure
	// counters plus a <name>.decimation gauge.
	Metrics *obsv.Registry
	// Name prefixes the pacer's metric names. Empty selects "flow.pacer".
	Name string
}

// Pacer implements send-side congestion response: multiplicative decrease
// of the effective send rate on backpressure, additive (streak-earned)
// recovery on sustained acceptance — the AIMD shape DSRC congestion
// control applies to status-message channels. A paced sender decimates:
// with factor k it transmits every k-th sample and locally drops the
// rest, so the channel sees an immediate rate cut instead of a retry
// storm.
//
// Safe for concurrent use; allocation-free.
type Pacer struct {
	maxDecimation int
	recoverAfter  int

	mu           sync.Mutex
	k            int // current decimation factor (1 = full rate)
	phase        int // sample counter within the current factor
	streak       int // consecutive accepted sends
	decimated    int64
	backpressure int64

	mDecimated, mBackpressure *obsv.Counter
	mDecimation               *obsv.Gauge
}

// NewPacer builds a pacer at full rate.
func NewPacer(cfg PacerConfig) *Pacer {
	if cfg.MaxDecimation <= 0 {
		cfg.MaxDecimation = DefaultMaxDecimation
	}
	if cfg.RecoverAfter <= 0 {
		cfg.RecoverAfter = DefaultRecoverAfter
	}
	p := &Pacer{maxDecimation: cfg.MaxDecimation, recoverAfter: cfg.RecoverAfter, k: 1}
	if cfg.Metrics != nil {
		name := cfg.Name
		if name == "" {
			name = "flow.pacer"
		}
		p.mDecimated = cfg.Metrics.Counter(name + ".decimated")
		p.mBackpressure = cfg.Metrics.Counter(name + ".backpressure")
		p.mDecimation = cfg.Metrics.Gauge(name + ".decimation")
		p.mDecimation.Set(1)
	}
	return p
}

// Tick accounts one sample due for transmission and reports whether it
// should actually be sent (true) or locally decimated (false).
func (p *Pacer) Tick() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.phase++
	if p.phase >= p.k {
		p.phase = 0
		return true
	}
	p.decimated++
	if p.mDecimated != nil {
		p.mDecimated.Inc()
	}
	return false
}

// OnBackpressure records a refused send: the decimation factor doubles
// (capped) and the recovery streak resets.
func (p *Pacer) OnBackpressure() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.backpressure++
	if p.mBackpressure != nil {
		p.mBackpressure.Inc()
	}
	p.streak = 0
	if p.k < p.maxDecimation {
		p.k *= 2
		if p.k > p.maxDecimation {
			p.k = p.maxDecimation
		}
		if p.mDecimation != nil {
			p.mDecimation.Set(int64(p.k))
		}
	}
}

// Floor drops the pacer straight to its maximum decimation factor. A
// tripped circuit breaker calls this: an unanswering link is worse than a
// backpressuring broker, so instead of doubling per refusal the sender
// cuts to the floor at once and earns the rate back through the usual
// recovery streaks once the breaker's probes restore the link.
func (p *Pacer) Floor() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.streak = 0
	if p.k == p.maxDecimation {
		return
	}
	p.k = p.maxDecimation
	if p.mDecimation != nil {
		p.mDecimation.Set(int64(p.k))
	}
}

// OnSuccess records an accepted send; a long enough streak halves the
// decimation factor back toward full rate.
func (p *Pacer) OnSuccess() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.k == 1 {
		return
	}
	p.streak++
	if p.streak >= p.recoverAfter {
		p.streak = 0
		p.k /= 2
		if p.k < 1 {
			p.k = 1
		}
		if p.mDecimation != nil {
			p.mDecimation.Set(int64(p.k))
		}
	}
}

// Decimated returns how many samples were locally dropped.
func (p *Pacer) Decimated() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.decimated
}

// Backpressured returns how many sends were refused by the gate.
func (p *Pacer) Backpressured() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.backpressure
}
