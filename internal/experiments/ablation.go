package experiments

import (
	"fmt"
	"strings"
	"time"

	"cad3/internal/core"
	"cad3/internal/geo"
	"cad3/internal/mlkit"
	"cad3/internal/trace"
)

// The ablations quantify the design choices DESIGN.md calls out: the
// Equation 1 fusion weight, the micro-batch interval, the Decision Tree
// feature set, and the consumer poll interval. The accuracy sweeps train
// CAD3 as BuildScenario does (summaries scoped to the corridor motorway,
// the depth-bounded tree), so each sweep's paper-default row is Table IV's
// CAD3 row.

// WeightRow is one point of the collaboration-weight sweep (w = 0
// collapses CAD3 to AD3-like behaviour; the paper fixes w = 0.5).
type WeightRow struct {
	Weight float64
	F1     float64
	FNRate float64
}

// RunCollabWeightSweep retrains CAD3 across fusion weights.
func RunCollabWeightSweep(sc *Scenario, weights []float64) ([]WeightRow, error) {
	if len(weights) == 0 {
		weights = []float64{0.1, 0.25, 0.5, 0.75, 0.9}
	}
	rows := make([]WeightRow, 0, len(weights))
	for _, w := range weights {
		det := core.NewCAD3(geo.MotorwayLink, core.CAD3Config{Weight: w, SummaryRoad: CorridorMotorwayID})
		if err := det.Train(sc.Train, sc.Labeler, sc.Upstream); err != nil {
			return nil, fmt.Errorf("weight %.2f: %w", w, err)
		}
		m, err := core.EvaluateDetector(det, sc.TestLink, sc.Labeler, sc.Summaries)
		if err != nil {
			return nil, err
		}
		rows = append(rows, WeightRow{Weight: w, F1: m.F1(), FNRate: m.FNRate()})
	}
	return rows, nil
}

// featureAblationDetector reimplements the CAD3 fusion with a
// configurable Decision Tree feature subset, to measure what each of
// [Hour, P_X, Class_NB] contributes.
type featureAblationDetector struct {
	local   *core.AD3
	tree    *mlkit.DecisionTree
	useHour bool
	usePX   bool
	useCls  bool
}

func (d *featureAblationDetector) Name() string { return "CAD3-ablated" }

func (d *featureAblationDetector) features(rec trace.Record, pNB float64, prior *core.PredictionSummary) []float64 {
	pPrev := pNB
	if prior != nil {
		pPrev = prior.MeanPNormal
	}
	pX := core.DefaultCollabWeight*pPrev + (1-core.DefaultCollabWeight)*pNB
	out := make([]float64, 0, 3)
	if d.useHour {
		out = append(out, float64(rec.Hour))
	}
	if d.usePX {
		out = append(out, pX)
	}
	if d.useCls {
		out = append(out, float64(mlkit.PredictLabel(pNB)))
	}
	return out
}

func (d *featureAblationDetector) Detect(rec trace.Record, prior *core.PredictionSummary) (core.Detection, error) {
	pNB, err := d.local.PredictProba(rec)
	if err != nil {
		return core.Detection{}, err
	}
	p, err := d.tree.PredictProba(d.features(rec, pNB, prior))
	if err != nil {
		return core.Detection{}, err
	}
	return core.Detection{
		Car: rec.Car, Road: int64(rec.Road),
		Class: mlkit.PredictLabel(p), PNormal: p, UsedPrior: prior != nil,
	}, nil
}

// FeatureRow is one row of the DT-feature ablation.
type FeatureRow struct {
	Features string
	F1       float64
	FNRate   float64
}

// RunDTFeatureAblation trains the collaborative tree on each feature
// subset and evaluates it.
func RunDTFeatureAblation(sc *Scenario) ([]FeatureRow, error) {
	variants := []struct {
		name          string
		hour, pX, cls bool
	}{
		{"hour+pX+classNB", true, true, true}, // the paper's feature set
		{"pX+classNB", false, true, true},
		{"hour+classNB", true, false, true},
		{"hour+pX", true, true, false},
		{"pX", false, true, false},
	}
	trainSumm, err := core.BuildTrainingSummaries(corridorMotorway(sc.Train), sc.Upstream)
	if err != nil {
		return nil, err
	}
	linkTrain := trace.RecordsOfType(sc.Train, geo.MotorwayLink)

	rows := make([]FeatureRow, 0, len(variants))
	for _, v := range variants {
		det := &featureAblationDetector{
			local:   sc.AD3,
			tree:    mlkit.NewDecisionTree(mlkit.TreeConfig{MaxDepth: core.CAD3TreeDepth}),
			useHour: v.hour, usePX: v.pX, useCls: v.cls,
		}
		samples := make([]mlkit.Sample, 0, len(linkTrain))
		for _, r := range linkTrain {
			label, lerr := sc.Labeler.Label(r)
			if lerr != nil {
				continue
			}
			pNB, perr := sc.AD3.PredictProba(r)
			if perr != nil {
				return nil, perr
			}
			var prior *core.PredictionSummary
			if s, ok := trainSumm[r.Car]; ok {
				prior = &s
			}
			samples = append(samples, mlkit.Sample{Features: det.features(r, pNB, prior), Label: label})
		}
		if err := det.tree.Fit(samples); err != nil {
			return nil, fmt.Errorf("ablation %s: %w", v.name, err)
		}
		m, err := core.EvaluateDetector(det, sc.TestLink, sc.Labeler, sc.Summaries)
		if err != nil {
			return nil, err
		}
		rows = append(rows, FeatureRow{Features: v.name, F1: m.F1(), FNRate: m.FNRate()})
	}
	return rows, nil
}

// IntervalRow is one point of the batch-interval or poll-interval sweep.
type IntervalRow struct {
	Interval  time.Duration
	TotalMean time.Duration
	QueueMean time.Duration
	DissMean  time.Duration
}

// RunBatchIntervalSweep measures end-to-end latency across micro-batch
// windows (the paper fixes 50 ms).
func RunBatchIntervalSweep(base LatencyConfig, intervals []time.Duration) ([]IntervalRow, error) {
	if len(intervals) == 0 {
		intervals = []time.Duration{
			10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
			100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		}
	}
	rows := make([]IntervalRow, 0, len(intervals))
	for _, iv := range intervals {
		cfg := base
		cfg.BatchInterval = iv
		res, err := RunLatency(cfg)
		if err != nil {
			return nil, fmt.Errorf("batch interval %v: %w", iv, err)
		}
		rows = append(rows, IntervalRow{
			Interval:  iv,
			TotalMean: res.Report.Total.Mean,
			QueueMean: res.Report.Queue.Mean,
			DissMean:  res.Report.Dissemination.Mean,
		})
	}
	return rows, nil
}

// RunPollIntervalSweep measures dissemination latency across consumer
// poll periods (the paper fixes 10 ms "to avoid consuming the
// bandwidth").
func RunPollIntervalSweep(base LatencyConfig, intervals []time.Duration) ([]IntervalRow, error) {
	if len(intervals) == 0 {
		intervals = []time.Duration{
			time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond,
			20 * time.Millisecond, 50 * time.Millisecond,
		}
	}
	rows := make([]IntervalRow, 0, len(intervals))
	for _, iv := range intervals {
		cfg := base
		cfg.PollInterval = iv
		res, err := RunLatency(cfg)
		if err != nil {
			return nil, fmt.Errorf("poll interval %v: %w", iv, err)
		}
		rows = append(rows, IntervalRow{
			Interval:  iv,
			TotalMean: res.Report.Total.Mean,
			QueueMean: res.Report.Queue.Mean,
			DissMean:  res.Report.Dissemination.Mean,
		})
	}
	return rows, nil
}

// FormatWeightRows renders the weight sweep.
func FormatWeightRows(rows []WeightRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%8s %8s %8s\n", "weight", "F1", "FN-rate")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%8.2f %8.4f %8.4f\n", r.Weight, r.F1, r.FNRate)
	}
	return sb.String()
}

// FormatFeatureRows renders the feature ablation.
func FormatFeatureRows(rows []FeatureRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %8s %8s\n", "features", "F1", "FN-rate")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %8.4f %8.4f\n", r.Features, r.F1, r.FNRate)
	}
	return sb.String()
}

// FormatIntervalRows renders an interval sweep.
func FormatIntervalRows(rows []IntervalRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%10s %12s %12s %12s\n", "interval", "total", "queue", "dissem")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%10s %12s %12s %12s\n",
			r.Interval,
			r.TotalMean.Round(10*time.Microsecond),
			r.QueueMean.Round(10*time.Microsecond),
			r.DissMean.Round(10*time.Microsecond))
	}
	return sb.String()
}
