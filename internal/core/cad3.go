package core

import (
	"fmt"
	"sort"

	"cad3/internal/geo"
	"cad3/internal/mlkit"
	"cad3/internal/trace"
)

// CAD3 is the collaborative model (§IV-D): the RSU's local Naive Bayes
// prediction is fused with the vehicle's prediction history forwarded by
// the previous RSU,
//
//	P_X = w * P̄_prevs + (1-w) * P_NB        (Equation 1, w = 0.5)
//
// and a Decision Tree over [Hour, P_X, Class_NB] makes the final call.
// When no summary is available for a vehicle (first sighting, upstream RSU
// failure, stale summary) CAD3 degrades to the standalone behaviour by
// substituting P_NB for P̄_prevs, which collapses P_X to P_NB.
type CAD3 struct {
	local *AD3 // NB for this RSU's road type
	tree  *mlkit.DecisionTree
	// weight is w in Equation 1 (paper: 0.5).
	weight      float64
	summaryRoad geo.SegmentID
	trained     bool
}

var _ Detector = (*CAD3)(nil)

// CAD3Config tunes the collaborative model. The zero value reproduces the
// paper.
type CAD3Config struct {
	// Weight is w in Equation 1. Values outside (0, 1] select 0.5.
	Weight float64
	// SummaryRoad, when nonzero, restricts training-summary construction
	// to the upstream records on that specific road — the paper's
	// P̄_prevs covers "the motorway" the vehicle just drove, not the
	// car's whole history on every motorway.
	SummaryRoad geo.SegmentID
}

// DefaultCollabWeight is the paper's w = 0.5.
const DefaultCollabWeight = 0.5

// CAD3TreeDepth bounds the collaborative Decision Tree. A shallow tree
// regularizes the three-feature fusion well and stays human-readable —
// the explainability the paper argues is critical for road-safety
// liability (§VI-D4).
const CAD3TreeDepth = 4

// NewCAD3 creates an untrained CAD3 detector for the given road type.
func NewCAD3(roadType geo.RoadType, cfg CAD3Config) *CAD3 {
	w := cfg.Weight
	if w <= 0 || w > 1 {
		w = DefaultCollabWeight
	}
	return &CAD3{
		local:       NewAD3(roadType),
		tree:        mlkit.NewDecisionTree(mlkit.TreeConfig{MaxDepth: CAD3TreeDepth}),
		weight:      w,
		summaryRoad: cfg.SummaryRoad,
	}
}

// Name implements Detector.
func (c *CAD3) Name() string { return "CAD3" }

// RoadType returns the road type the detector serves.
func (c *CAD3) RoadType() geo.RoadType { return c.local.roadType }

// Weight returns w of Equation 1.
func (c *CAD3) Weight() float64 { return c.weight }

// Train fits the model. records must contain this RSU's road type (for the
// local NB and the tree) and upstream's (to synthesise training
// summaries). upstream is the previous RSU's already-trained model, whose
// per-car prediction history stands in for the CO-DATA stream during
// offline training — mirroring the paper's procedure of passing previous
// prediction probabilities from the Motorway RSU.
func (c *CAD3) Train(records []trace.Record, labeler *Labeler, upstream *AD3) error {
	if upstream == nil {
		return fmt.Errorf("core: CAD3 training requires the upstream AD3 model")
	}
	if err := c.local.Train(records, labeler); err != nil {
		return err
	}

	// Synthesise per-car summaries from the upstream road's records.
	upstreamRecs := trace.RecordsOfType(records, upstream.roadType)
	if c.summaryRoad != 0 {
		scoped := upstreamRecs[:0:0]
		for _, r := range upstreamRecs {
			if r.Road == c.summaryRoad {
				scoped = append(scoped, r)
			}
		}
		upstreamRecs = scoped
	}
	summaries, err := BuildTrainingSummaries(upstreamRecs, upstream)
	if err != nil {
		return fmt.Errorf("CAD3 training summaries: %w", err)
	}

	// Fuse and grow the tree on this road's records.
	own := trace.RecordsOfType(records, c.local.roadType)
	if len(own) == 0 {
		return fmt.Errorf("%w for road type %v", ErrNoRecords, c.local.roadType)
	}
	samples := make([]mlkit.Sample, 0, len(own))
	for _, r := range own {
		label, err := labeler.Label(r)
		if err != nil {
			continue
		}
		pNB, err := c.local.PredictProba(r)
		if err != nil {
			return fmt.Errorf("CAD3 training NB: %w", err)
		}
		var prior *PredictionSummary
		if s, ok := summaries[r.Car]; ok {
			prior = &s
		}
		samples = append(samples, mlkit.Sample{
			Features: c.fusedFeatures(r, pNB, prior),
			Label:    label,
		})
	}
	if err := c.tree.Fit(samples); err != nil {
		return fmt.Errorf("CAD3 tree fit: %w", err)
	}
	c.trained = true
	return nil
}

// fusedVec builds [Hour, P_X, Class_NB] as a stack-resident array — the
// detect path's feature construction allocates nothing.
func (c *CAD3) fusedVec(r trace.Record, pNB float64, prior *PredictionSummary) [3]float64 {
	pPrev := pNB // no summary -> collapse to the standalone probability
	if prior != nil {
		pPrev = prior.MeanPNormal
	}
	pX := c.weight*pPrev + (1-c.weight)*pNB
	return [3]float64{float64(r.Hour), pX, float64(mlkit.PredictLabel(pNB))}
}

// fusedFeatures is the slice form of fusedVec, for training-sample
// construction (mlkit.Sample carries a slice).
func (c *CAD3) fusedFeatures(r trace.Record, pNB float64, prior *PredictionSummary) []float64 {
	v := c.fusedVec(r, pNB, prior)
	return v[:]
}

// Detect implements Detector: Naive Bayes, Equation 1 fusion with the
// forwarded summary, then the Decision Tree's final classification.
func (c *CAD3) Detect(rec trace.Record, prior *PredictionSummary) (Detection, error) {
	if !c.trained {
		return Detection{}, ErrNotTrained
	}
	pNB, err := c.local.PredictProba(rec)
	if err != nil {
		return Detection{}, err
	}
	pTree, err := c.tree.PredictProba3(c.fusedVec(rec, pNB, prior))
	if err != nil {
		return Detection{}, fmt.Errorf("CAD3 tree: %w", err)
	}
	return Detection{
		Car:       rec.Car,
		Road:      int64(rec.Road),
		Class:     mlkit.PredictLabel(pTree),
		PNormal:   pTree,
		UsedPrior: prior != nil,
	}, nil
}

// LocalNB exposes the local Naive Bayes (the summary builder feeds on its
// probabilities).
func (c *CAD3) LocalNB() *AD3 { return c.local }

// DumpTree renders the fitted Decision Tree for explainability review.
func (c *CAD3) DumpTree() string {
	return c.tree.Dump([]string{"hour", "pX", "classNB"})
}

// BuildTrainingSummaries replays an upstream model over its road's records
// grouped per car, producing the summaries the paper's CO-DATA stream
// would have delivered. Exported because the experiment harness also uses
// it to drive evaluation.
func BuildTrainingSummaries(upstreamRecs []trace.Record, upstream *AD3) (map[trace.CarID]PredictionSummary, error) {
	byCar := make(map[trace.CarID][]trace.Record)
	for _, r := range upstreamRecs {
		byCar[r.Car] = append(byCar[r.Car], r)
	}
	out := make(map[trace.CarID]PredictionSummary, len(byCar))
	for car, recs := range byCar {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].TimestampMs < recs[j].TimestampMs })
		builder := NewSummaryBuilder(0, nil)
		for _, r := range recs {
			p, err := upstream.PredictProba(r)
			if err != nil {
				return nil, err
			}
			builder.Observe(car, p)
		}
		if s, ok := builder.Summarize(car); ok {
			out[car] = s
		}
	}
	return out, nil
}
