package core

import (
	"fmt"

	"cad3/internal/geo"
	"cad3/internal/mlkit"
	"cad3/internal/trace"
)

// AD3 is the distributed standalone model (§IV-C): each RSU trains a
// Gaussian Naive Bayes on its own road type's data, learning the local
// normal profile. It is road-aware but not driver-aware — it ignores
// forwarded summaries.
type AD3 struct {
	roadType geo.RoadType
	nb       *mlkit.GaussianNB
}

var _ Detector = (*AD3)(nil)

// NewAD3 creates an untrained AD3 detector for the given road type.
func NewAD3(roadType geo.RoadType) *AD3 {
	return &AD3{roadType: roadType, nb: mlkit.NewGaussianNB()}
}

// Name implements Detector.
func (a *AD3) Name() string { return "AD3" }

// Train fits the Naive Bayes on the road type's slice of the training
// records, labelled by the given labeler.
func (a *AD3) Train(records []trace.Record, labeler *Labeler) error {
	own := trace.RecordsOfType(records, a.roadType)
	if len(own) == 0 {
		return fmt.Errorf("%w for road type %v", ErrNoRecords, a.roadType)
	}
	samples, _ := labeler.MakeSamples(own)
	if err := a.nb.Fit(samples); err != nil {
		return fmt.Errorf("AD3 fit %v: %w", a.roadType, err)
	}
	return nil
}

// Detect implements Detector. The prior summary is ignored (standalone
// model). The whole path is allocation-free: FeatureVec stays on the
// stack and the Naive Bayes constants are precomputed at Fit time.
func (a *AD3) Detect(rec trace.Record, _ *PredictionSummary) (Detection, error) {
	p, err := a.nb.PredictProba3(FeatureVec(rec))
	if err != nil {
		if err == mlkit.ErrNotTrained {
			return Detection{}, ErrNotTrained
		}
		return Detection{}, fmt.Errorf("AD3 detect: %w", err)
	}
	return Detection{
		Car:     rec.Car,
		Road:    int64(rec.Road),
		Class:   mlkit.PredictLabel(p),
		PNormal: p,
	}, nil
}

// PredictProba exposes the NB probability, used by CAD3 training and the
// summary builder.
func (a *AD3) PredictProba(rec trace.Record) (float64, error) {
	p, err := a.nb.PredictProba3(FeatureVec(rec))
	if err != nil {
		if err == mlkit.ErrNotTrained {
			return 0, ErrNotTrained
		}
		return 0, err
	}
	return p, nil
}

// Centralized is the cloud baseline (§VI-D4): one Gaussian Naive Bayes
// trained on all road vehicular data at once. Its whole pipeline is
// city-scale — including the offline labelling stage, which pools every
// road type into one sigma cutoff (see GlobalLabeler) — so it never
// acquires the road-level context AD3 and CAD3 have.
type Centralized struct {
	nb *mlkit.GaussianNB
}

var _ Detector = (*Centralized)(nil)

// NewCentralized creates an untrained centralized detector.
func NewCentralized() *Centralized {
	return &Centralized{nb: mlkit.NewGaussianNB()}
}

// Name implements Detector.
func (c *Centralized) Name() string { return "Centralized" }

// Train fits one pooled model over every record regardless of road type,
// labelled by the centralized pipeline's own city-global sigma cutoff.
// The labeler argument keeps the Detector training surface uniform; the
// per-road-type labels it would produce are unavailable to a centralized
// deployment, so it is ignored.
func (c *Centralized) Train(records []trace.Record, _ *Labeler) error {
	if len(records) == 0 {
		return ErrNoRecords
	}
	global, err := TrainGlobalLabeler(records, 0)
	if err != nil {
		return err
	}
	samples := make([]mlkit.Sample, 0, len(records))
	for _, r := range records {
		samples = append(samples, mlkit.Sample{
			Features: Features(r),
			Label:    global.Label(r),
		})
	}
	if err := c.nb.Fit(samples); err != nil {
		return fmt.Errorf("centralized fit: %w", err)
	}
	return nil
}

// Detect implements Detector.
func (c *Centralized) Detect(rec trace.Record, _ *PredictionSummary) (Detection, error) {
	p, err := c.nb.PredictProba3(FeatureVec(rec))
	if err != nil {
		if err == mlkit.ErrNotTrained {
			return Detection{}, ErrNotTrained
		}
		return Detection{}, fmt.Errorf("centralized detect: %w", err)
	}
	return Detection{
		Car:     rec.Car,
		Road:    int64(rec.Road),
		Class:   mlkit.PredictLabel(p),
		PNormal: p,
	}, nil
}
