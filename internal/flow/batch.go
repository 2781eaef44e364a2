package flow

import (
	"sync"
	"time"

	"cad3/internal/obsv"
)

// Batch controller defaults.
const (
	// DefaultBatchSLO is the per-batch latency objective: the paper's 50 ms
	// micro-batch window — a batch that takes longer than its window to
	// process is the definition of falling behind.
	DefaultBatchSLO = 50 * time.Millisecond
	// DefaultBatchGrow is the additive increase step (records per adjust).
	DefaultBatchGrow = 64
	// DefaultBatchShrink is the multiplicative decrease factor applied when
	// a batch overruns the SLO.
	DefaultBatchShrink = 0.5
)

// BatchControllerConfig configures a BatchController.
type BatchControllerConfig struct {
	// Min and Max bound the batch size. Values <= 0 select 32 and 8192.
	Min, Max int
	// Initial is the starting size. Values <= 0 select Min.
	Initial int
	// SLO is the per-batch latency objective. Values <= 0 select
	// DefaultBatchSLO.
	SLO time.Duration
	// Grow is the additive increase step. Values <= 0 select
	// DefaultBatchGrow.
	Grow int
	// Shrink is the multiplicative decrease factor in (0, 1). Values
	// outside select DefaultBatchShrink.
	Shrink float64
	// Metrics, when set, receives a <name>.batch_limit gauge and
	// <name>.grows / <name>.shrinks counters.
	Metrics *obsv.Registry
	// Name prefixes the controller's metric names. Empty selects
	// "flow.batch".
	Name string
}

// BatchController adapts a micro-batch drain bound toward a per-batch
// latency SLO with an AIMD loop: a batch that overruns the SLO shrinks the
// bound multiplicatively (fast reaction to falling behind); a saturated
// batch that finishes comfortably under it grows the bound additively
// (cautious probing for headroom). Unsaturated batches leave the bound
// alone — an idle pipeline is not evidence of capacity.
//
// Safe for concurrent use; Size is a single atomic-free read under a
// mutex the engine's step loop already serialises on.
type BatchController struct {
	cfg BatchControllerConfig

	mu   sync.Mutex
	size int

	mLimit         *obsv.Gauge
	mGrow, mShrink *obsv.Counter
}

// NewBatchController validates the config and builds a controller.
func NewBatchController(cfg BatchControllerConfig) *BatchController {
	if cfg.Min <= 0 {
		cfg.Min = 32
	}
	if cfg.Max <= 0 {
		cfg.Max = 8192
	}
	if cfg.Max < cfg.Min {
		cfg.Max = cfg.Min
	}
	if cfg.Initial <= 0 {
		cfg.Initial = cfg.Min
	}
	if cfg.Initial < cfg.Min {
		cfg.Initial = cfg.Min
	}
	if cfg.Initial > cfg.Max {
		cfg.Initial = cfg.Max
	}
	if cfg.SLO <= 0 {
		cfg.SLO = DefaultBatchSLO
	}
	if cfg.Grow <= 0 {
		cfg.Grow = DefaultBatchGrow
	}
	if cfg.Shrink <= 0 || cfg.Shrink >= 1 {
		cfg.Shrink = DefaultBatchShrink
	}
	c := &BatchController{cfg: cfg, size: cfg.Initial}
	if cfg.Metrics != nil {
		name := cfg.Name
		if name == "" {
			name = "flow.batch"
		}
		c.mLimit = cfg.Metrics.Gauge(name + ".batch_limit")
		c.mLimit.Set(int64(cfg.Initial))
		c.mGrow = cfg.Metrics.Counter(name + ".grows")
		c.mShrink = cfg.Metrics.Counter(name + ".shrinks")
	}
	return c
}

// Size returns the current drain bound.
func (c *BatchController) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Observe feeds one batch outcome back: how many records it drained
// (against the bound it ran under) and how long processing took.
func (c *BatchController) Observe(drained int, latency time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case latency > c.cfg.SLO:
		// Overrun: shrink multiplicatively, never below Min.
		next := int(float64(c.size) * c.cfg.Shrink)
		if next < c.cfg.Min {
			next = c.cfg.Min
		}
		if next != c.size {
			c.size = next
			if c.mShrink != nil {
				c.mShrink.Inc()
			}
		}
	case drained >= c.size && latency <= c.cfg.SLO*7/10:
		// Saturated and comfortably inside the SLO: probe for headroom.
		next := c.size + c.cfg.Grow
		if next > c.cfg.Max {
			next = c.cfg.Max
		}
		if next != c.size {
			c.size = next
			if c.mGrow != nil {
				c.mGrow.Inc()
			}
		}
	}
	if c.mLimit != nil {
		c.mLimit.Set(int64(c.size))
	}
}
