package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"cad3/internal/trace"
)

func TestSummaryBuilderMean(t *testing.T) {
	b := NewSummaryBuilder(42, nil)
	if _, ok := b.Summarize(1); ok {
		t.Error("unknown car should not summarise")
	}
	b.Observe(1, 0.2)
	b.Observe(1, 0.4)
	b.Observe(1, 0.6)
	s, ok := b.Summarize(1)
	if !ok {
		t.Fatal("summary missing")
	}
	if math.Abs(s.MeanPNormal-0.4) > 1e-12 {
		t.Errorf("mean = %v, want 0.4", s.MeanPNormal)
	}
	if s.Count != 3 || s.FromRoad != 42 || s.Car != 1 {
		t.Errorf("summary = %+v", s)
	}
	if b.Cars() != 1 {
		t.Errorf("Cars = %d", b.Cars())
	}
	b.Forget(1)
	if _, ok := b.Summarize(1); ok {
		t.Error("forgotten car should not summarise")
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	in := PredictionSummary{Car: 9, MeanPNormal: 0.31, Count: 12, FromRoad: 5, UpdatedMs: 123456}
	b, err := EncodeSummary(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSummary(b)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip = %+v", out)
	}
	if _, err := DecodeSummary([]byte("{broken")); err == nil {
		t.Error("want decode error")
	}
}

func TestSummaryStoreTTL(t *testing.T) {
	now := time.Date(2016, 7, 1, 8, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	st := NewSummaryStore(time.Minute, clock)

	st.Put(PredictionSummary{Car: 1, MeanPNormal: 0.5, UpdatedMs: now.UnixMilli()})
	if _, ok := st.Get(1); !ok {
		t.Fatal("fresh summary missing")
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d", st.Len())
	}
	now = now.Add(2 * time.Minute)
	if _, ok := st.Get(1); ok {
		t.Error("stale summary should expire")
	}
	if st.Len() != 0 {
		t.Errorf("Len after expiry = %d", st.Len())
	}
	if _, ok := st.Get(99); ok {
		t.Error("unknown car should miss")
	}
}

// TestSummaryStoreTTLBoundary pins the freshness predicate at the exact
// TTL edge: age == TTL is still fresh (expiry is strict >), age == TTL+1ms
// expires — and every lookup lands in exactly one counter.
func TestSummaryStoreTTLBoundary(t *testing.T) {
	base := time.Date(2016, 7, 1, 8, 0, 0, 0, time.UTC)
	now := base
	st := NewSummaryStore(time.Minute, func() time.Time { return now })
	st.Put(PredictionSummary{Car: 1, MeanPNormal: 0.5, UpdatedMs: base.UnixMilli()})

	// Exactly at the TTL the summary is still usable.
	now = base.Add(time.Minute)
	if _, ok := st.Get(1); !ok {
		t.Error("summary exactly at TTL should still be fresh")
	}
	// One millisecond past it the summary expires and is evicted.
	now = base.Add(time.Minute + time.Millisecond)
	if _, ok := st.Get(1); ok {
		t.Error("summary 1ms past TTL should expire")
	}
	if st.Len() != 0 {
		t.Errorf("Len after expiry = %d, want 0 (evicted)", st.Len())
	}
	// Once evicted, the same car is a plain miss, not a second expiry.
	if _, ok := st.Get(1); ok {
		t.Error("evicted car should miss")
	}
	if _, ok := st.Get(99); ok {
		t.Error("unknown car should miss")
	}

	want := SummaryStoreStats{Hits: 1, Misses: 2, Expired: 1}
	if got := st.Stats(); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
}

// TestSummaryStoreGetBatchMatchesGet: a batch lookup answers, evicts and
// counts as the same lookups one Get at a time — a car whose summary
// expires is an expiry once and a miss after that, within one batch too.
func TestSummaryStoreGetBatchMatchesGet(t *testing.T) {
	base := time.Date(2016, 7, 1, 8, 0, 0, 0, time.UTC)
	now := base
	stores := [2]*SummaryStore{}
	for i := range stores {
		stores[i] = NewSummaryStore(time.Minute, func() time.Time { return now })
		stores[i].Put(PredictionSummary{Car: 1, MeanPNormal: 0.4, UpdatedMs: base.UnixMilli()})
		stores[i].Put(PredictionSummary{Car: 2, MeanPNormal: 0.9, UpdatedMs: base.Add(45 * time.Second).UnixMilli()})
	}
	now = base.Add(90 * time.Second) // car 1 stale, car 2 fresh
	cars := []trace.CarID{1, 2, 3, 1, 2}
	sums := make([]PredictionSummary, len(cars))
	found := make([]bool, len(cars))
	stores[0].GetBatch(cars, now, sums, found)
	for i, car := range cars {
		want, ok := stores[1].Get(car)
		if found[i] != ok || sums[i].Car != want.Car || sums[i].MeanPNormal != want.MeanPNormal {
			t.Errorf("lookup %d (car %d): batch %+v %v, Get %+v %v", i, car, sums[i], found[i], want, ok)
		}
	}
	want := SummaryStoreStats{Hits: 2, Misses: 2, Expired: 1}
	if got := stores[0].Stats(); got != want || stores[1].Stats() != want {
		t.Errorf("Stats batch %+v, one at a time %+v; want %+v", got, stores[1].Stats(), want)
	}
	if stores[0].Len() != 1 {
		t.Errorf("Len after the batch = %d, want 1 (car 1 evicted)", stores[0].Len())
	}
}

// TestSummaryBuilderObserveBatchMatchesObserve: a batch fold leaves every
// car's sum, count and tail exactly where the same Observe calls do.
func TestSummaryBuilderObserveBatchMatchesObserve(t *testing.T) {
	batch, loop := NewSummaryBuilder(1, nil), NewSummaryBuilder(1, nil)
	var obs []Observation
	for i := 0; i < 100; i++ {
		o := Observation{Car: trace.CarID(i % 3), PNormal: float64(i%17) / 17}
		obs = append(obs, o)
		loop.Observe(o.Car, o.PNormal)
	}
	batch.ObserveBatch(obs[:40])
	batch.ObserveBatch(obs[40:])
	if got, want := batch.Snapshot(), loop.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("batch fold %+v, Observe loop %+v", got, want)
	}
}

// TestSummaryBuilderReusesForgottenSlot holds the aggregate slab to
// recycling: a car forgotten at handover gives its slot to the next new
// car, which starts from zero and not from the forgotten car's history.
func TestSummaryBuilderReusesForgottenSlot(t *testing.T) {
	b := NewSummaryBuilder(1, nil)
	b.Observe(1, 0.9)
	b.Observe(1, 0.7)
	b.Observe(2, 0.5)
	b.Forget(1)
	b.Observe(3, 0.1)
	if len(b.aggs) != 2 || b.cars[3] != 0 {
		t.Fatalf("new car took slot %d of %d, want the forgotten car's slot 0 of 2", b.cars[3], len(b.aggs))
	}
	s, ok := b.Summarize(3)
	if !ok || s.Count != 1 || s.MeanPNormal != 0.1 {
		t.Errorf("car in a reused slot summarises as %+v (ok=%t), want one prediction of 0.1", s, ok)
	}
	if s, _ := b.Summarize(2); s.Count != 1 || s.MeanPNormal != 0.5 {
		t.Errorf("untouched car summarises as %+v", s)
	}
	b.Observe(1, 0.3) // the forgotten car comes back as a new one
	if s, _ := b.Summarize(1); s.Count != 1 || s.MeanPNormal != 0.3 || len(b.aggs) != 3 {
		t.Errorf("returning car summarises as %+v over %d slots, want one prediction of 0.3 over 3", s, len(b.aggs))
	}
}

// TestSummaryStoreZeroTTLDefaults ensures ttl <= 0 selects the default
// rather than expiring everything instantly.
func TestSummaryStoreZeroTTLDefaults(t *testing.T) {
	base := time.Date(2016, 7, 1, 8, 0, 0, 0, time.UTC)
	now := base
	st := NewSummaryStore(0, func() time.Time { return now })
	st.Put(PredictionSummary{Car: 3, MeanPNormal: 0.7, UpdatedMs: base.UnixMilli()})
	now = base.Add(DefaultSummaryTTL)
	if _, ok := st.Get(3); !ok {
		t.Error("summary at the default TTL should still be fresh")
	}
	now = base.Add(DefaultSummaryTTL + time.Millisecond)
	if _, ok := st.Get(3); ok {
		t.Error("summary past the default TTL should expire")
	}
}

// TestSummaryStoreSnapshotRestore round-trips the store contents and
// checks that restored entries keep their original freshness clock.
func TestSummaryStoreSnapshotRestore(t *testing.T) {
	base := time.Date(2016, 7, 1, 8, 0, 0, 0, time.UTC)
	now := base
	st := NewSummaryStore(time.Minute, func() time.Time { return now })
	st.Put(PredictionSummary{Car: 1, MeanPNormal: 0.4, UpdatedMs: base.UnixMilli()})
	st.Put(PredictionSummary{Car: 2, MeanPNormal: 0.9, UpdatedMs: base.Add(30 * time.Second).UnixMilli()})

	snap := st.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot = %d entries, want 2", len(snap))
	}

	st2 := NewSummaryStore(time.Minute, func() time.Time { return now })
	st2.Restore(snap)
	if st2.Len() != 2 {
		t.Fatalf("restored Len = %d, want 2", st2.Len())
	}
	// Freshness is judged against UpdatedMs, not restore time: advancing
	// past car 1's TTL (but not car 2's) expires only car 1.
	now = base.Add(time.Minute + time.Millisecond)
	if _, ok := st2.Get(1); ok {
		t.Error("restored car 1 should expire on its original clock")
	}
	if _, ok := st2.Get(2); !ok {
		t.Error("restored car 2 should still be fresh")
	}
}

func TestWarningRoundTrip(t *testing.T) {
	in := Warning{Car: 3, Road: 7, PNormal: 0.12, SourceTsMs: 111, DetectedTsMs: 222}
	out, err := DecodeWarning(AppendWarning(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip = %+v, want %+v", out, in)
	}
	if _, err := DecodeWarning([]byte("nope")); err == nil {
		t.Error("want decode error")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	in := mkRecord(5, 2, 88.5, -1.25, 17)
	in.TimestampMs = 987654
	b, err := EncodeRecord(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Car != 5 || out.Speed != 88.5 || out.Accel != -1.25 || out.Hour != 17 || out.TimestampMs != 987654 {
		t.Errorf("round trip = %+v", out)
	}
	if _, err := DecodeRecord([]byte("x")); err == nil {
		t.Error("want decode error")
	}
}
