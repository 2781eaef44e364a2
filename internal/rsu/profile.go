package rsu

import (
	"math"
	"sync"
	"time"
)

// RoadProfile is the rolling per-road context an RSU maintains (§IV-C of
// the paper: each RSU "utilizes contextual information (i.e., road type,
// hour of the day, and speed profile)"): a time-windowed mean/variance of
// observed speeds, updated on every record and queried to fill the
// road-mean-speed context (v̄_r of Equation 4) for records that arrive
// without one.
//
// The window is implemented as a ring of per-interval buckets, so old
// traffic ages out and the profile follows the road's actual condition
// (rush hours, incidents) rather than an all-time average.
type RoadProfile struct {
	mu       sync.Mutex
	bucketD  time.Duration
	buckets  []profileBucket
	now      func() time.Time
	lastTick int64
}

type profileBucket struct {
	tick  int64 // bucket epoch (unix / bucketD); stale buckets are reset
	n     int64
	sum   float64
	sumSq float64
}

// Window defaults: 10 buckets of 1 minute — a 10-minute rolling profile.
const (
	defaultProfileBuckets  = 10
	defaultProfileBucketD  = time.Minute
	minProfileObservations = 8
)

// NewRoadProfile creates a rolling profile. bucketD <= 0 selects 1 min,
// buckets <= 0 selects 10; now nil selects time.Now.
func NewRoadProfile(bucketD time.Duration, buckets int, now func() time.Time) *RoadProfile {
	if bucketD <= 0 {
		bucketD = defaultProfileBucketD
	}
	if buckets <= 0 {
		buckets = defaultProfileBuckets
	}
	if now == nil {
		now = time.Now
	}
	return &RoadProfile{
		bucketD: bucketD,
		buckets: make([]profileBucket, buckets),
		now:     now,
	}
}

// Observe folds one speed sample into the current bucket.
func (p *RoadProfile) Observe(speedKmh float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bucketLocked(p.tickLocked(p.now())).add(speedKmh)
}

// fold is Observe then MeanStd for each record in order, under one lock
// hold and one clock reading: it folds the record's speed into the window
// and backfills a missing road-mean-speed context from the window as it
// stands after that sample, so record i sees samples 0..i.
func (p *RoadProfile) fold(records []tracedRecord, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	tick := p.tickLocked(now)
	b := p.bucketLocked(tick)
	for i := range records {
		rec := &records[i].rec
		b.add(rec.Speed)
		if rec.RoadMeanSpeed == 0 {
			if mean, _, ok := p.meanStdLocked(tick); ok {
				rec.RoadMeanSpeed = mean
			}
		}
	}
}

func (p *RoadProfile) tickLocked(now time.Time) int64 {
	return now.UnixNano() / int64(p.bucketD)
}

// bucketLocked returns the ring bucket of tick, emptied first if it still
// holds an older tick's samples.
func (p *RoadProfile) bucketLocked(tick int64) *profileBucket {
	b := &p.buckets[tick%int64(len(p.buckets))]
	if b.tick != tick {
		*b = profileBucket{tick: tick}
	}
	return b
}

func (b *profileBucket) add(speedKmh float64) {
	b.n++
	b.sum += speedKmh
	b.sumSq += speedKmh * speedKmh
}

// MeanStd returns the windowed mean and standard deviation of speed, and
// ok=false until enough samples accumulated.
func (p *RoadProfile) MeanStd() (mean, std float64, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.meanStdLocked(p.tickLocked(p.now()))
}

func (p *RoadProfile) meanStdLocked(tick int64) (mean, std float64, ok bool) {
	oldest := tick - int64(len(p.buckets)) + 1
	var n int64
	var sum, sumSq float64
	for i := range p.buckets {
		b := p.buckets[i]
		if b.tick < oldest || b.tick > tick {
			continue // stale or future bucket
		}
		n += b.n
		sum += b.sum
		sumSq += b.sumSq
	}
	if n < minProfileObservations {
		return 0, 0, false
	}
	mean = sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance), true
}

// ProfileBucketState is one exported ring bucket (checkpointing).
type ProfileBucketState struct {
	Tick  int64   `json:"tick"`
	N     int64   `json:"n"`
	Sum   float64 `json:"sum"`
	SumSq float64 `json:"sumSq"`
}

// ProfileSnapshot is a RoadProfile checkpoint: the window geometry plus
// every bucket, so a restarted RSU resumes with its rolling speed
// context instead of spending minutes re-warming it.
type ProfileSnapshot struct {
	BucketNanos int64                `json:"bucketNs"`
	Buckets     []ProfileBucketState `json:"buckets"`
}

// Snapshot exports the profile's state.
func (p *RoadProfile) Snapshot() ProfileSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := ProfileSnapshot{
		BucketNanos: int64(p.bucketD),
		Buckets:     make([]ProfileBucketState, len(p.buckets)),
	}
	for i, b := range p.buckets {
		snap.Buckets[i] = ProfileBucketState{Tick: b.tick, N: b.n, Sum: b.sum, SumSq: b.sumSq}
	}
	return snap
}

// Restore replaces the profile's window with a snapshot's. Bucket ticks
// carry their epoch, so stale buckets age out naturally after restore.
func (p *RoadProfile) Restore(snap ProfileSnapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if snap.BucketNanos > 0 {
		p.bucketD = time.Duration(snap.BucketNanos)
	}
	if len(snap.Buckets) > 0 {
		p.buckets = make([]profileBucket, len(snap.Buckets))
		for i, b := range snap.Buckets {
			p.buckets[i] = profileBucket{tick: b.Tick, n: b.N, sum: b.Sum, sumSq: b.SumSq}
		}
	}
}

// Samples returns the number of samples currently inside the window.
func (p *RoadProfile) Samples() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	tick := p.tickLocked(p.now())
	oldest := tick - int64(len(p.buckets)) + 1
	var n int64
	for i := range p.buckets {
		if b := p.buckets[i]; b.tick >= oldest && b.tick <= tick {
			n += b.n
		}
	}
	return n
}
