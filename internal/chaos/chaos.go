// Package chaos is a seeded, deterministic fault injector for the CAD3
// substrate. The paper's testbed (§VII-E) never exercises real failures;
// this package makes RSU crashes, broker restarts, lossy links, and
// asymmetric inter-RSU partitions first-class, reproducible events:
//
//   - Injector draws every fault decision (drop / delay / duplicate /
//     connection kill) from one seeded PRNG, so a chaos run is a pure
//     function of its seed and can be asserted in regression tests.
//   - Client (client.go) wraps a stream.Client as one named directed link
//     (from -> to), subjecting its operations to the injector.
//   - ReplicaLink (replink.go) does the same for a replica set's
//     leader-to-follower replication link.
//
// When faults happen is the scenario engine's business (internal/scenario):
// a spec's phases and actions switch links, partitions and crashes on and
// off in virtual time.
package chaos

import (
	"math/rand"
	"sync"
	"time"
)

// Config tunes an Injector. The zero value injects nothing.
type Config struct {
	// Seed drives every probabilistic decision. Two injectors with the
	// same seed and the same operation sequence make identical decisions.
	Seed int64
	// DropProb is the probability a produced message is silently lost in
	// transit (the sender observes success; the broker never sees it).
	DropProb float64
	// DupProb is the probability a produced message is delivered twice
	// (retransmission after a lost ack).
	DupProb float64
	// DelayProb is the probability an operation is delayed by a uniform
	// duration in [MinDelay, MaxDelay].
	DelayProb float64
	// MinDelay/MaxDelay bound injected delays. MaxDelay <= 0 selects 10 ms.
	MinDelay time.Duration
	MaxDelay time.Duration
	// KillProb is the probability an operation fails with ErrConnKilled,
	// as if the TCP connection died mid-request.
	KillProb float64
}

// Stats counts injected faults.
type Stats struct {
	Drops      int64
	Dups       int64
	Delays     int64
	Kills      int64
	Blocked    int64 // operations refused because the link was partitioned
	Operations int64
}

// Injector owns the fault state shared by the chaos clients of one run:
// the seeded PRNG and the named-link partition matrix. Safe for
// concurrent use; determinism additionally requires a deterministic
// operation order (drive the pipeline step-wise, as the simulator and
// the scenario harness do).
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	cfg   Config
	cut   map[string]map[string]bool // from -> to -> partitioned
	stats Stats
}

// NewInjector creates an injector.
func NewInjector(cfg Config) *Injector {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 10 * time.Millisecond
	}
	if cfg.MinDelay < 0 {
		cfg.MinDelay = 0
	}
	if cfg.MinDelay > cfg.MaxDelay {
		cfg.MinDelay = cfg.MaxDelay
	}
	return &Injector{
		rng: rand.New(rand.NewSource(cfg.Seed)),
		cfg: cfg,
		cut: make(map[string]map[string]bool),
	}
}

// Partition cuts the directed link from -> to. Traffic the other way is
// unaffected (asymmetric partitions are the hard case for protocols).
func (in *Injector) Partition(from, to string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	m, ok := in.cut[from]
	if !ok {
		m = make(map[string]bool)
		in.cut[from] = m
	}
	m[to] = true
}

// PartitionBoth cuts both directions between a and b.
func (in *Injector) PartitionBoth(a, b string) {
	in.Partition(a, b)
	in.Partition(b, a)
}

// Heal restores the directed link from -> to.
func (in *Injector) Heal(from, to string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.cut[from], to)
}

// HealAll restores every link.
func (in *Injector) HealAll() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.cut = make(map[string]map[string]bool)
}

// Config returns the injector's current fault configuration.
func (in *Injector) Config() Config {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.cfg
}

// SetConfig replaces the fault probabilities mid-run — the primitive
// behind loss/delay ramps in scripted scenarios. The PRNG keeps its
// stream (cfg.Seed is ignored; the run stays a pure function of the
// constructor's seed plus the operation and SetConfig sequence), and the
// delay bounds are normalised exactly like NewInjector's.
func (in *Injector) SetConfig(cfg Config) {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 10 * time.Millisecond
	}
	if cfg.MinDelay < 0 {
		cfg.MinDelay = 0
	}
	if cfg.MinDelay > cfg.MaxDelay {
		cfg.MinDelay = cfg.MaxDelay
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	cfg.Seed = in.cfg.Seed
	in.cfg = cfg
}

// decision is one operation's fault verdict, drawn under the injector
// lock so the PRNG consumption order is well-defined.
type decision struct {
	blocked bool
	kill    bool
	drop    bool
	dup     bool
	delay   time.Duration
}

// decide draws the fault verdict for one operation over the from -> to
// link. A partitioned link short-circuits: no randomness is consumed, so
// partition windows do not shift the decision sequence of other links.
func (in *Injector) decide(from, to string) decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Operations++
	if in.cut[from][to] {
		in.stats.Blocked++
		return decision{blocked: true}
	}
	var d decision
	if in.cfg.KillProb > 0 && in.rng.Float64() < in.cfg.KillProb {
		d.kill = true
		in.stats.Kills++
		return d
	}
	if in.cfg.DropProb > 0 && in.rng.Float64() < in.cfg.DropProb {
		d.drop = true
		in.stats.Drops++
	}
	if in.cfg.DupProb > 0 && in.rng.Float64() < in.cfg.DupProb {
		d.dup = true
		in.stats.Dups++
	}
	if in.cfg.DelayProb > 0 && in.rng.Float64() < in.cfg.DelayProb {
		span := in.cfg.MaxDelay - in.cfg.MinDelay
		d.delay = in.cfg.MinDelay
		if span > 0 {
			d.delay += time.Duration(in.rng.Int63n(int64(span)))
		}
		in.stats.Delays++
	}
	return d
}
