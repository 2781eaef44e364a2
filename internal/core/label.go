package core

import (
	"fmt"
	"math"

	"cad3/internal/geo"
	"cad3/internal/mlkit"
	"cad3/internal/trace"
)

// Labeler implements the paper's offline outlier-labelling stage (§IV-B):
// within each road type the speed distribution is Gaussian-like, so a data
// point is normal (class 1) when both its speed and acceleration fall in
// [mu - k*sigma, mu + k*sigma] of that road type's distribution, and
// abnormal (class 0) otherwise. The paper uses k = 1.
type Labeler struct {
	sigmaK float64
	stats  map[geo.RoadType]labelStats
}

type labelStats struct {
	speedMu, speedSigma float64
	accelMu, accelSigma float64
	n                   int
}

// DefaultSigmaK is the paper's 1-sigma cutoff.
const DefaultSigmaK = 1.0

// TrainLabeler estimates per-road-type distributions from records.
// sigmaK <= 0 selects DefaultSigmaK.
func TrainLabeler(records []trace.Record, sigmaK float64) (*Labeler, error) {
	if len(records) == 0 {
		return nil, ErrNoRecords
	}
	if sigmaK <= 0 {
		sigmaK = DefaultSigmaK
	}
	type agg struct {
		n                                    int
		speedSum, speedSq, accelSum, accelSq float64
	}
	aggs := make(map[geo.RoadType]*agg)
	for _, r := range records {
		a := aggs[r.RoadType]
		if a == nil {
			a = &agg{}
			aggs[r.RoadType] = a
		}
		a.n++
		a.speedSum += r.Speed
		a.speedSq += r.Speed * r.Speed
		a.accelSum += r.Accel
		a.accelSq += r.Accel * r.Accel
	}
	l := &Labeler{sigmaK: sigmaK, stats: make(map[geo.RoadType]labelStats, len(aggs))}
	for t, a := range aggs {
		n := float64(a.n)
		sm := a.speedSum / n
		sv := a.speedSq/n - sm*sm
		am := a.accelSum / n
		av := a.accelSq/n - am*am
		l.stats[t] = labelStats{
			speedMu:    sm,
			speedSigma: math.Sqrt(math.Max(sv, 0)),
			accelMu:    am,
			accelSigma: math.Sqrt(math.Max(av, 0)),
			n:          a.n,
		}
	}
	return l, nil
}

// Label classifies one record against its road type's distribution.
func (l *Labeler) Label(r trace.Record) (int, error) {
	st, ok := l.stats[r.RoadType]
	if !ok {
		return 0, fmt.Errorf("core: labeler has no statistics for road type %v", r.RoadType)
	}
	k := l.sigmaK
	speedOK := math.Abs(r.Speed-st.speedMu) <= k*st.speedSigma
	accelOK := math.Abs(r.Accel-st.accelMu) <= k*st.accelSigma
	if speedOK && accelOK {
		return ClassNormal, nil
	}
	return ClassAbnormal, nil
}

// MakeSamples converts records to labelled mlkit samples using the
// instantaneous features. Records with unseen road types are skipped and
// counted.
func (l *Labeler) MakeSamples(records []trace.Record) ([]mlkit.Sample, int) {
	out := make([]mlkit.Sample, 0, len(records))
	skipped := 0
	for _, r := range records {
		label, err := l.Label(r)
		if err != nil {
			skipped++
			continue
		}
		out = append(out, mlkit.Sample{Features: Features(r), Label: label})
	}
	return out, skipped
}
