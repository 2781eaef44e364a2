package core

import (
	"math"
	"testing"

	"cad3/internal/geo"
	"cad3/internal/trace"
)

func mkRecord(car trace.CarID, t geo.RoadType, speed, accel float64, hour int) trace.Record {
	return trace.Record{
		Car: car, Road: 1, RoadType: t, Speed: speed, Accel: accel,
		Hour: hour, Day: 4, RoadMeanSpeed: 0,
	}
}

// labelFixture builds records with a known distribution: motorway speeds
// N(100, 10), link speeds N(35, 5), accel N(0, 1).
func labelFixture() []trace.Record {
	var recs []trace.Record
	// Deterministic quasi-Gaussian via symmetric offsets.
	offsets := []float64{-2.5, -1.5, -0.8, -0.3, 0, 0.3, 0.8, 1.5, 2.5}
	for i, o := range offsets {
		for j := 0; j < 10; j++ {
			recs = append(recs, mkRecord(trace.CarID(i), geo.Motorway, 100+o*10, o*0.4, 9))
			recs = append(recs, mkRecord(trace.CarID(i), geo.MotorwayLink, 35+o*5, o*0.4, 9))
		}
	}
	return recs
}

func TestTrainLabelerStats(t *testing.T) {
	l, err := TrainLabeler(labelFixture(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.SigmaK() != DefaultSigmaK {
		t.Errorf("SigmaK = %v", l.SigmaK())
	}
	mu, sigma, ok := l.RoadStats(geo.Motorway)
	if !ok {
		t.Fatal("no motorway stats")
	}
	if math.Abs(mu-100) > 0.5 {
		t.Errorf("motorway mu = %.2f, want ~100", mu)
	}
	if sigma < 5 || sigma > 20 {
		t.Errorf("motorway sigma = %.2f", sigma)
	}
	if _, _, ok := l.RoadStats(geo.Residential); ok {
		t.Error("unseen road type should report ok=false")
	}
}

func TestLabelSigmaCutoff(t *testing.T) {
	l, err := TrainLabeler(labelFixture(), 1)
	if err != nil {
		t.Fatal(err)
	}
	mu, sigma, _ := l.RoadStats(geo.Motorway)

	atMean := mkRecord(1, geo.Motorway, mu, 0, 9)
	if got, err := l.Label(atMean); err != nil || got != ClassNormal {
		t.Errorf("Label(at mean) = %d, %v", got, err)
	}
	speeding := mkRecord(1, geo.Motorway, mu+2*sigma, 0, 9)
	if got, _ := l.Label(speeding); got != ClassAbnormal {
		t.Error("2-sigma speeding should be abnormal")
	}
	slowing := mkRecord(1, geo.Motorway, mu-2*sigma, 0, 9)
	if got, _ := l.Label(slowing); got != ClassAbnormal {
		t.Error("2-sigma slowing should be abnormal")
	}
	hardAccel := mkRecord(1, geo.Motorway, mu, 25, 9)
	if got, _ := l.Label(hardAccel); got != ClassAbnormal {
		t.Error("extreme acceleration should be abnormal")
	}
	// Context-awareness: 90 km/h is fine on a motorway, wild on a link
	// (the paper's own example in §IV-C).
	if got, _ := l.Label(mkRecord(1, geo.Motorway, 95, 0, 9)); got != ClassNormal {
		t.Error("95 km/h on motorway should be normal")
	}
	if got, _ := l.Label(mkRecord(1, geo.MotorwayLink, 90, 0, 9)); got != ClassAbnormal {
		t.Error("90 km/h on motorway link should be abnormal")
	}

	if _, err := l.Label(mkRecord(1, geo.Residential, 30, 0, 9)); err == nil {
		t.Error("want error for road type without stats")
	}
}

func TestLabelerSigmaKWidens(t *testing.T) {
	recs := labelFixture()
	tight, _ := TrainLabeler(recs, 1)
	loose, _ := TrainLabeler(recs, 3)
	if tight.AbnormalShare(recs) <= loose.AbnormalShare(recs) {
		t.Errorf("1-sigma share %.3f should exceed 3-sigma share %.3f",
			tight.AbnormalShare(recs), loose.AbnormalShare(recs))
	}
}

func TestMakeSamples(t *testing.T) {
	recs := labelFixture()
	l, _ := TrainLabeler(recs, 0)
	recs = append(recs, mkRecord(1, geo.Residential, 30, 0, 9)) // unseen type
	samples, skipped := l.MakeSamples(recs)
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1", skipped)
	}
	if len(samples) != len(recs)-1 {
		t.Errorf("samples = %d", len(samples))
	}
	for _, s := range samples {
		if len(s.Features) != 3 {
			t.Fatalf("feature width = %d", len(s.Features))
		}
	}
}

func TestTrainLabelerEmpty(t *testing.T) {
	if _, err := TrainLabeler(nil, 0); err != ErrNoRecords {
		t.Errorf("err = %v, want ErrNoRecords", err)
	}
}

func TestDeltaSeverity(t *testing.T) {
	// Speeding: delta grows toward 1 as v outruns vr.
	if d := Delta(100, 100); d != 0 {
		t.Errorf("Delta(at road speed) = %v, want 0", d)
	}
	if d := Delta(200, 100); math.Abs(d-0.75) > 1e-12 {
		t.Errorf("Delta(2x) = %v, want 0.75", d)
	}
	// Slowing: vr=100, v=50 -> ratio 100/150, delta = 1-(2/3)^2 = 5/9.
	if d := Delta(50, 100); math.Abs(d-5.0/9.0) > 1e-12 {
		t.Errorf("Delta(slow) = %v, want 5/9", d)
	}
	// Monotone in deviation.
	if Delta(130, 100) >= Delta(180, 100) {
		t.Error("faster speeding should be more severe")
	}
	if Delta(80, 100) >= Delta(30, 100) {
		t.Error("harder slowing should be more severe")
	}
	// Degenerate inputs.
	if Delta(50, 0) != 0 {
		t.Error("vr=0 should yield 0")
	}
	if d := Delta(0, 100); d <= 0 || d > 1 {
		t.Errorf("full stop severity = %v", d)
	}
	// Range.
	for _, v := range []float64{0, 10, 99, 100, 101, 500} {
		if d := Delta(v, 100); d < 0 || d > 1 {
			t.Errorf("Delta(%v,100) = %v out of [0,1]", v, d)
		}
	}
}

// RoadStats returns the fitted (speedMu, speedSigma) for a road type,
// used by the accident estimator and reporting. ok is false when the road
// type was unseen.
func (l *Labeler) RoadStats(t geo.RoadType) (mu, sigma float64, ok bool) {
	st, found := l.stats[t]
	return st.speedMu, st.speedSigma, found
}

// SigmaK returns the configured cutoff multiplier.
func (l *Labeler) SigmaK() float64 { return l.sigmaK }

// AbnormalShare returns the labelled abnormal fraction of records.
func (l *Labeler) AbnormalShare(records []trace.Record) float64 {
	if len(records) == 0 {
		return 0
	}
	var abnormal, total int
	for _, r := range records {
		label, err := l.Label(r)
		if err != nil {
			continue
		}
		total++
		if label == ClassAbnormal {
			abnormal++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(abnormal) / float64(total)
}
