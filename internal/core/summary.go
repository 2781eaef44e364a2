package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cad3/internal/trace"
)

// PredictionSummary is the CO-DATA payload a motorway RSU forwards to the
// next RSU when a vehicle hands over (§IV-D): the vehicle's prediction
// history along the previous road, condensed to the mean of the
// probabilities the previous node's detector returned (P̄_prevs in
// Equation 1) plus bookkeeping. An AD3 node's detector is Naive Bayes; a
// CAD3 node folds its fused tree output, so on a chain a hop's mean
// already carries the prior it received (DESIGN.md, "The node's
// conversation with its broker").
type PredictionSummary struct {
	Car trace.CarID `json:"carId"`
	// MeanPNormal is the average P(normal) the previous RSU's detector
	// returned for this vehicle's records (Detection.PNormal: Naive Bayes
	// for AD3, the fused tree output for CAD3).
	MeanPNormal float64 `json:"meanPNormal"`
	// Count is the number of predictions the mean aggregates.
	Count int `json:"count"`
	// FromRoad identifies the summarising RSU's road.
	FromRoad int64 `json:"fromRd"`
	// UpdatedMs is the summary's production time (Unix ms).
	UpdatedMs int64 `json:"updatedMs"`
}

// SummaryBuilder accumulates a vehicle's predictions at one RSU and emits
// summaries on handover. Safe for concurrent use (the micro-batch worker
// pool calls Observe from several goroutines).
type SummaryBuilder struct {
	road int64
	now  func() time.Time

	mu sync.Mutex
	// cars maps a car to its aggregate's slot in aggs, so an observation
	// of a tracked car is one map lookup and an add in place. Forget
	// returns the slot to free, and the next new car takes it.
	cars map[trace.CarID]int32
	aggs []carAgg
	free []int32
}

type carAgg struct {
	sum   float64
	count int
}

// NewSummaryBuilder creates a builder for the RSU covering the given road.
// now injects the clock; nil selects time.Now.
func NewSummaryBuilder(road int64, now func() time.Time) *SummaryBuilder {
	if now == nil {
		now = time.Now
	}
	return &SummaryBuilder{road: road, now: now, cars: make(map[trace.CarID]int32)}
}

// Observation is one prediction probability for a car.
type Observation struct {
	Car     trace.CarID
	PNormal float64
}

// Observe records one prediction probability for a car.
func (b *SummaryBuilder) Observe(car trace.CarID, pNormal float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.observeLocked(car, pNormal)
}

// ObserveBatch records the observations in order under one lock hold, as
// that many Observe calls would.
func (b *SummaryBuilder) ObserveBatch(obs []Observation) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, o := range obs {
		b.observeLocked(o.Car, o.PNormal)
	}
}

func (b *SummaryBuilder) observeLocked(car trace.CarID, pNormal float64) {
	i, ok := b.cars[car]
	if !ok {
		i = b.slotLocked()
		b.cars[car] = i
	}
	a := &b.aggs[i]
	a.sum += pNormal
	a.count++
}

// slotLocked returns a zeroed aggregate slot: a forgotten car's if there
// is one, a new one at the end of aggs if not.
func (b *SummaryBuilder) slotLocked() int32 {
	if n := len(b.free); n > 0 {
		i := b.free[n-1]
		b.free = b.free[:n-1]
		return i
	}
	b.aggs = append(b.aggs, carAgg{})
	return int32(len(b.aggs) - 1)
}

// Summarize emits the car's summary, or ok=false if the car is unknown.
func (b *SummaryBuilder) Summarize(car trace.CarID) (PredictionSummary, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i, ok := b.cars[car]
	if !ok || b.aggs[i].count == 0 {
		return PredictionSummary{}, false
	}
	a := b.aggs[i]
	return PredictionSummary{
		Car:         car,
		MeanPNormal: a.sum / float64(a.count),
		Count:       a.count,
		FromRoad:    b.road,
		UpdatedMs:   b.now().UnixMilli(),
	}, true
}

// Forget drops the car's history (after a completed handover).
func (b *SummaryBuilder) Forget(car trace.CarID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i, ok := b.cars[car]; ok {
		delete(b.cars, car)
		b.aggs[i] = carAgg{}
		b.free = append(b.free, i)
	}
}

// Cars returns the number of tracked vehicles.
func (b *SummaryBuilder) Cars() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.cars)
}

// CarHistory is one vehicle's accumulated prediction state, exported for
// checkpointing.
type CarHistory struct {
	Car   trace.CarID `json:"carId"`
	Sum   float64     `json:"sum"`
	Count int         `json:"count"`
}

// BuilderSnapshot is a SummaryBuilder checkpoint: the road it serves and
// every tracked vehicle's history. A restarted RSU restores it so
// handovers after recovery still carry the pre-crash prediction history.
type BuilderSnapshot struct {
	Road int64        `json:"road"`
	Cars []CarHistory `json:"cars"`
}

// Snapshot exports the builder's state, sorted by car for deterministic
// serialization.
func (b *SummaryBuilder) Snapshot() BuilderSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	snap := BuilderSnapshot{Road: b.road, Cars: make([]CarHistory, 0, len(b.cars))}
	for car, i := range b.cars {
		a := b.aggs[i]
		snap.Cars = append(snap.Cars, CarHistory{Car: car, Sum: a.sum, Count: a.count})
	}
	sort.Slice(snap.Cars, func(i, j int) bool { return snap.Cars[i].Car < snap.Cars[j].Car })
	return snap
}

// Restore replaces the builder's state with a snapshot's.
func (b *SummaryBuilder) Restore(snap BuilderSnapshot) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.road = snap.Road
	b.cars = make(map[trace.CarID]int32, len(snap.Cars))
	b.aggs = make([]carAgg, 0, len(snap.Cars))
	b.free = nil
	for _, h := range snap.Cars {
		b.cars[h.Car] = int32(len(b.aggs))
		b.aggs = append(b.aggs, carAgg{sum: h.Sum, count: h.Count})
	}
}

// SummaryStore holds the summaries an RSU has received over CO-DATA,
// keyed by car, with staleness-based expiry. Safe for concurrent use.
//
// The store counts its lookups: a miss or an expiry on the detection
// path is exactly a CAD3 -> AD3 degradation (the fusion falls back to
// the standalone probability), so these counters are what makes the
// paper's silent fallback observable and assertable.
type SummaryStore struct {
	ttl time.Duration
	now func() time.Time

	mu   sync.Mutex
	byID map[trace.CarID]PredictionSummary

	hits    atomic.Int64
	misses  atomic.Int64
	expired atomic.Int64
}

// SummaryStoreStats counts store lookups.
type SummaryStoreStats struct {
	// Hits are Get calls answered with a fresh summary.
	Hits int64
	// Misses are Get calls for cars with no stored summary.
	Misses int64
	// Expired are Get calls that found a summary but evicted it as
	// stale — the silent CAD3 -> AD3 fallback case.
	Expired int64
}

// DefaultSummaryTTL expires summaries that are too old to describe the
// driver's current behaviour.
const DefaultSummaryTTL = 10 * time.Minute

// NewSummaryStore creates a store. ttl <= 0 selects DefaultSummaryTTL;
// nil now selects time.Now.
func NewSummaryStore(ttl time.Duration, now func() time.Time) *SummaryStore {
	if ttl <= 0 {
		ttl = DefaultSummaryTTL
	}
	if now == nil {
		now = time.Now
	}
	return &SummaryStore{ttl: ttl, now: now, byID: make(map[trace.CarID]PredictionSummary)}
}

// Put stores (or replaces) a car's summary.
func (s *SummaryStore) Put(sum PredictionSummary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byID[sum.Car] = sum
}

// Get returns the car's summary if present and fresh.
func (s *SummaryStore) Get(car trace.CarID) (PredictionSummary, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var c SummaryStoreStats
	sum, ok := s.getLocked(car, s.now().UnixMilli(), &c)
	s.count(c)
	return sum, ok
}

// GetBatch looks each cars[i] up into sums[i] and found[i] in order, as
// len(cars) Get calls judging freshness as of now would, under one lock
// hold; each counter moves once. sums and found must be as long as cars.
func (s *SummaryStore) GetBatch(cars []trace.CarID, now time.Time, sums []PredictionSummary, found []bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	nowMs := now.UnixMilli()
	var c SummaryStoreStats
	for i, car := range cars {
		sums[i], found[i] = s.getLocked(car, nowMs, &c)
	}
	s.count(c)
}

// getLocked is one lookup: a summary older than the TTL is evicted and
// reads as absent. It tallies the outcome in c.
func (s *SummaryStore) getLocked(car trace.CarID, nowMs int64, c *SummaryStoreStats) (PredictionSummary, bool) {
	sum, ok := s.byID[car]
	if !ok {
		c.Misses++
		return PredictionSummary{}, false
	}
	if nowMs-sum.UpdatedMs > s.ttl.Milliseconds() {
		delete(s.byID, car)
		c.Expired++
		return PredictionSummary{}, false
	}
	c.Hits++
	return sum, true
}

// count adds a tally to the counters, skipping the ones it leaves at zero.
func (s *SummaryStore) count(c SummaryStoreStats) {
	if c.Hits != 0 {
		s.hits.Add(c.Hits)
	}
	if c.Misses != 0 {
		s.misses.Add(c.Misses)
	}
	if c.Expired != 0 {
		s.expired.Add(c.Expired)
	}
}

// Len returns the number of stored summaries (including possibly stale
// ones not yet swept).
func (s *SummaryStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// Stats returns the lookup counters.
func (s *SummaryStore) Stats() SummaryStoreStats {
	return SummaryStoreStats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Expired: s.expired.Load(),
	}
}

// Snapshot exports every stored summary (fresh or not — the restore-side
// Get re-applies TTL), sorted by car for deterministic serialization.
func (s *SummaryStore) Snapshot() []PredictionSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PredictionSummary, 0, len(s.byID))
	for _, sum := range s.byID {
		out = append(out, sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Car < out[j].Car })
	return out
}

// Restore replaces the store's contents with a snapshot's. Counters are
// not restored: they describe the live process, not the data.
func (s *SummaryStore) Restore(sums []PredictionSummary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byID = make(map[trace.CarID]PredictionSummary, len(sums))
	for _, sum := range sums {
		s.byID[sum.Car] = sum
	}
}
