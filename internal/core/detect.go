// Package core implements the paper's primary contribution: context-aware
// anomalous-driving detection at the edge (AD3), its collaborative
// extension (CAD3) that fuses the vehicle's prediction history forwarded
// by the previous RSU, the centralized baseline, the sigma-cutoff offline
// labelling stage, and the Nilsson potential-accident estimator
// (Equations 2-3).
package core

import (
	"errors"

	"cad3/internal/mlkit"
	"cad3/internal/trace"
)

// Classes re-exported from mlkit using the paper's encoding.
const (
	ClassAbnormal = mlkit.ClassAbnormal // 0
	ClassNormal   = mlkit.ClassNormal   // 1
)

// Errors callers match.
var (
	ErrNotTrained = errors.New("core: detector is not trained")
	ErrNoRecords  = errors.New("core: no training records")
)

// Detection is the outcome of classifying one vehicle status record.
type Detection struct {
	Car     trace.CarID `json:"carId"`
	Road    int64       `json:"rdId"`
	Class   int         `json:"class"`   // 1 normal, 0 abnormal
	PNormal float64     `json:"pNormal"` // model probability of normal
	// UsedPrior reports whether a forwarded prediction summary
	// contributed (CAD3 only).
	UsedPrior bool `json:"usedPrior"`
}

// Abnormal reports whether the detection flagged the record.
func (d Detection) Abnormal() bool { return d.Class == ClassAbnormal }

// Detector classifies vehicle status records. prior carries the
// vehicle's prediction summary forwarded from the previous RSU (CO-DATA);
// detectors that do not collaborate ignore it, and CAD3 degrades
// gracefully when it is nil.
type Detector interface {
	Name() string
	Detect(rec trace.Record, prior *PredictionSummary) (Detection, error)
}

// Warning is the OUT-DATA payload disseminated to vehicles when abnormal
// driving is detected.
type Warning struct {
	Car     trace.CarID `json:"carId"`
	Road    int64       `json:"rdId"`
	PNormal float64     `json:"pNormal"`
	// SourceTsMs is the originating record's timestamp, preserved so the
	// receiving vehicle can compute end-to-end latency.
	SourceTsMs int64 `json:"srcTsMs"`
	// DetectedTsMs is when the RSU produced the warning.
	DetectedTsMs int64 `json:"detTsMs"`
}

// FeatureWidth is the width of the instantaneous feature vector.
const FeatureWidth = 3

// FeatureVec returns the instantaneous feature vector the detectors
// consume as a fixed-width array: [InstSpeed, accel, Hour] (the paper's
// Table II features; road type is implicit in which RSU's model runs).
// Being an array it lives on the caller's stack — the per-record detect
// path allocates nothing.
func FeatureVec(r trace.Record) [FeatureWidth]float64 {
	return [FeatureWidth]float64{r.Speed, r.Accel, float64(r.Hour)}
}

// Features returns the feature vector as a slice, for width-generic
// consumers (training-sample construction). The hot detect path uses
// FeatureVec instead.
func Features(r trace.Record) []float64 {
	v := FeatureVec(r)
	return v[:]
}
