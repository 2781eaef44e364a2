// Package obsv is the live observability substrate for the CAD3 stack: a
// lock-cheap metrics registry (atomic counters, gauges, and fixed-bucket
// histograms), span-style pipeline tracing carried inside the binary wire
// format's reserved padding, and a debug HTTP endpoint exposing both plus
// pprof on every long-running binary.
//
// The paper's entire evaluation (Figure 6a-6d) is an observability
// exercise — decomposing warning latency into transmission, queuing,
// processing, and dissemination, and accounting bandwidth per vehicle and
// per RSU. internal/metrics summarises samples offline; this package
// instruments the running pipeline so the same decomposition is available
// live, per warning, from a curl against a deployed RSU.
//
// Three pieces:
//
//   - Registry (this file, histogram.go): named atomic counters, gauges
//     and histograms with consistent-enough snapshots, JSON rendering, and
//     checkpoint restore. It is the one place named counters live.
//   - TraceContext (trace.go): a batch ID plus per-stage timestamps that
//     ride the record's 200 B frame padding and an optional warning tail,
//     accumulating stamps as the payload crosses netem -> broker ->
//     consumer -> micro-batch -> detector -> dissemination. A completed
//     context yields a metrics.LatencyBreakdown without any offline
//     reconstruction.
//   - DebugServer (debug.go): /metrics, /trace/recent and /health JSON
//     endpoints plus net/http/pprof, wired into cmd/cad3-rsu and
//     cmd/cad3-bench behind -debug-addr.
//
// Everything is stdlib-only and allocation-free on the hot path: counters
// and histogram observations are single atomic adds, and trace stamps are
// in-place writes into bytes the frame already carries.
package obsv

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta. Non-positive deltas are ignored:
// counters are monotonic.
func (c *Counter) Add(delta int64) {
	if delta <= 0 {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue depth, tracked cars,
// degraded-node count).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a named-metric registry. Metric lookup takes a short RWMutex
// critical section; the returned handles are lock-free atomics, so steady
// state instrumentation holds no locks at all — callers cache the handle
// once and Add/Observe forever. Safe for concurrent use.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	gaugeFuncs map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		hists:      make(map[string]*Histogram),
		gaugeFuncs: make(map[string]func() int64),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (nil bounds select DefaultLatencyBuckets). Bounds are
// fixed at creation; a later call with different bounds returns the
// existing histogram unchanged.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = NewHistogram(bounds)
	r.hists[name] = h
	return h
}

// RegisterGaugeFunc registers a callback evaluated at snapshot time — the
// bridge for components that already keep their own atomics (rsu.Node
// stats) and should not double-account on the hot path.
func (r *Registry) RegisterGaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// AddCounter is shorthand for Counter(name).Add(delta); use the handle
// form on hot paths.
func (r *Registry) AddCounter(name string, delta int64) { r.Counter(name).Add(delta) }

// Snapshot is a point-in-time copy of a registry, JSON-marshalable as the
// /metrics response body and embeddable in an RSU checkpoint. Each metric
// is read atomically; the set as a whole is "consistent enough" — see
// DESIGN.md §9 for the memory model.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric. Gauge funcs are evaluated inline.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)+len(r.gaugeFuncs)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, fn := range r.gaugeFuncs {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Reset zeroes every counter, gauge and histogram (registered gauge funcs
// are unaffected — they reflect live component state).
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Restore loads a snapshot into the registry, overwriting current values —
// the checkpoint-recovery path: a restarted RSU resumes its counters
// instead of starting the accounting from zero. Histograms whose bounds
// disagree with the snapshot's are left untouched.
func (r *Registry) Restore(s Snapshot) {
	for name, v := range s.Counters {
		r.Counter(name).v.Store(v)
	}
	for name, v := range s.Gauges {
		r.Gauge(name).Set(v)
	}
	for name, hs := range s.Histograms {
		r.Histogram(name, hs.Bounds).restore(hs)
	}
}

// CounterNames returns the registered counter names, sorted (tests and
// text renderers).
func (r *Registry) CounterNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
