package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestAccumulatorMatchesSummarize is the equivalence proof: the streaming
// Welford moments must agree with the offline sort-and-sum Summarize on
// every shared field, across spiky, uniform and tiny samples.
func TestAccumulatorMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string][]time.Duration{
		"single":  {1500 * time.Microsecond},
		"pair":    {time.Millisecond, 3 * time.Millisecond},
		"uniform": nil, // filled below
		"spiky":   nil,
	}
	uniform := make([]time.Duration, 5000)
	for i := range uniform {
		uniform[i] = time.Duration(rng.Int63n(int64(80 * time.Millisecond)))
	}
	cases["uniform"] = uniform
	spiky := make([]time.Duration, 3000)
	for i := range spiky {
		spiky[i] = time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
		if i%100 == 0 {
			spiky[i] = 3*time.Second + time.Duration(rng.Int63n(int64(time.Second)))
		}
	}
	cases["spiky"] = spiky

	for name, durs := range cases {
		t.Run(name, func(t *testing.T) {
			acc := &Accumulator{}
			for _, d := range durs {
				acc.Observe(d)
			}
			want := Summarize(durs)
			got := acc.Summary()

			if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max {
				t.Fatalf("count/min/max mismatch:\n got %+v\nwant %+v", got, want)
			}
			closeEnough := func(field string, a, b time.Duration) {
				// One-pass float accumulation vs two-pass: allow 1 ns per
				// thousand samples of drift.
				tol := 1 + time.Duration(len(durs)/1000)
				if d := a - b; d < -tol || d > tol {
					t.Errorf("%s: streaming %v vs offline %v", field, a, b)
				}
			}
			closeEnough("mean", got.Mean, want.Mean)
			closeEnough("std", got.Std, want.Std)
			closeEnough("stderr", got.StdErr, want.StdErr)
		})
	}
}

func TestAccumulatorEmptyAndReset(t *testing.T) {
	acc := &Accumulator{}
	if s := acc.Summary(); s != (Summary{}) {
		t.Fatalf("empty summary %+v", s)
	}
	acc.Observe(time.Second)
	acc.Reset()
	if acc.Count() != 0 || acc.Summary() != (Summary{}) {
		t.Fatal("reset did not clear")
	}
}

func TestAccumulatorConcurrent(t *testing.T) {
	acc := &Accumulator{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				acc.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := acc.Summary()
	if s.Count != 8000 {
		t.Fatalf("count %d", s.Count)
	}
	wantMean := 500500 * float64(time.Microsecond) / 1000
	if math.Abs(float64(s.Mean)-wantMean) > float64(time.Microsecond) {
		t.Fatalf("mean %v, want ~%v", s.Mean, time.Duration(wantMean))
	}
}

// TestAccumulatorMerge checks the pairwise combination: splitting a sample
// across shards and merging must match observing it all in one stream.
func TestAccumulatorMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	whole := &Accumulator{}
	shards := []*Accumulator{&Accumulator{}, &Accumulator{}, &Accumulator{}}
	for i := 0; i < 3000; i++ {
		d := time.Duration(rng.Int63n(int64(40 * time.Millisecond)))
		whole.Observe(d)
		shards[i%len(shards)].Observe(d)
	}
	merged := &Accumulator{}
	merged.Merge(shards[0])
	merged.Merge(shards[1])
	merged.Merge(shards[2])
	merged.Merge(&Accumulator{}) // empty shard is a no-op

	got, want := merged.Summary(), whole.Summary()
	if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("count/min/max mismatch:\n got %+v\nwant %+v", got, want)
	}
	closeEnough := func(field string, a, b time.Duration) {
		if d := a - b; d < -5 || d > 5 {
			t.Errorf("%s: merged %v vs single-stream %v", field, a, b)
		}
	}
	closeEnough("mean", got.Mean, want.Mean)
	closeEnough("std", got.Std, want.Std)
	if merged.Sum() != whole.Sum() {
		t.Errorf("sum: merged %v vs %v", merged.Sum(), whole.Sum())
	}
}

func TestBreakdownAccumulator(t *testing.T) {
	ba := NewBreakdownAccumulator()
	rec := NewLatencyRecorder()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		lb := LatencyBreakdown{
			Tx:            time.Duration(rng.Int63n(int64(5 * time.Millisecond))),
			Queue:         time.Duration(rng.Int63n(int64(50 * time.Millisecond))),
			Processing:    time.Duration(rng.Int63n(int64(12 * time.Millisecond))),
			Dissemination: time.Duration(rng.Int63n(int64(15 * time.Millisecond))),
		}
		ba.Observe(lb)
		rec.Record(lb)
	}
	live := ba.Report()
	offline := rec.Report()
	check := func(name string, a, b Summary) {
		if a.Count != b.Count {
			t.Fatalf("%s count %d vs %d", name, a.Count, b.Count)
		}
		if d := a.Mean - b.Mean; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("%s mean %v vs %v", name, a.Mean, b.Mean)
		}
	}
	check("tx", live.Tx, offline.Tx)
	check("queue", live.Queue, offline.Queue)
	check("processing", live.Processing, offline.Processing)
	check("dissemination", live.Dissemination, offline.Dissemination)
	check("total", live.Total, offline.Total)
}
