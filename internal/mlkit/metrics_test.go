package mlkit

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestConfusionMatrixCounts(t *testing.T) {
	var m ConfusionMatrix
	m.Observe(ClassAbnormal, ClassAbnormal) // TP
	m.Observe(ClassAbnormal, ClassAbnormal) // TP
	m.Observe(ClassAbnormal, ClassNormal)   // FN
	m.Observe(ClassNormal, ClassNormal)     // TN
	m.Observe(ClassNormal, ClassNormal)     // TN
	m.Observe(ClassNormal, ClassNormal)     // TN
	m.Observe(ClassNormal, ClassAbnormal)   // FP

	if m.TP != 2 || m.FN != 1 || m.TN != 3 || m.FP != 1 {
		t.Fatalf("counts = %+v", m)
	}
	if m.Total() != 7 {
		t.Errorf("Total = %d", m.Total())
	}
	if got := m.Accuracy(); math.Abs(got-5.0/7.0) > 1e-12 {
		t.Errorf("Accuracy = %v", got)
	}
	if got := m.Precision(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("Precision = %v", got)
	}
	if got := m.Recall(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("Recall = %v", got)
	}
	if got := m.FNRate(); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("FNRate = %v", got)
	}
	wantF1 := 2 * (2.0 / 3.0) * (2.0 / 3.0) / (4.0 / 3.0)
	if got := m.F1(); math.Abs(got-wantF1) > 1e-12 {
		t.Errorf("F1 = %v, want %v", got, wantF1)
	}
}

func TestConfusionMatrixZeroSafety(t *testing.T) {
	var m ConfusionMatrix
	if m.Accuracy() != 0 || m.Precision() != 0 || m.Recall() != 0 || m.F1() != 0 || m.FNRate() != 0 {
		t.Error("empty matrix metrics should be 0, not NaN")
	}
}

func TestTPPlusFNRateIsOne(t *testing.T) {
	f := func(tp, fn uint8) bool {
		m := ConfusionMatrix{TP: int(tp), FN: int(fn)}
		if m.TP+m.FN == 0 {
			return true
		}
		return math.Abs(m.Recall()+m.FNRate()-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConfusionMatrixString(t *testing.T) {
	m := ConfusionMatrix{TP: 1, FN: 2, TN: 3, FP: 4}
	s := m.String()
	if s == "" {
		t.Error("empty String()")
	}
}

type constClassifier struct{ p float64 }

func (c constClassifier) PredictProba([]float64) (float64, error) { return c.p, nil }
func (c constClassifier) Predict([]float64) (int, error)          { return PredictLabel(c.p), nil }

func TestEvaluate(t *testing.T) {
	samples := []Sample{
		{Features: []float64{0}, Label: ClassNormal},
		{Features: []float64{0}, Label: ClassAbnormal},
	}
	m, err := Evaluate(constClassifier{p: 0.9}, samples)
	if err != nil {
		t.Fatal(err)
	}
	if m.TN != 1 || m.FN != 1 {
		t.Errorf("matrix = %+v", m)
	}
}

func TestEvaluatePropagatesErrors(t *testing.T) {
	nb := NewGaussianNB()
	if _, err := Evaluate(nb, []Sample{{Features: []float64{1}, Label: 1}}); err == nil {
		t.Error("want error from untrained classifier")
	}
}

func TestPredictLabel(t *testing.T) {
	if PredictLabel(0.5) != ClassNormal || PredictLabel(0.9) != ClassNormal {
		t.Error("p >= 0.5 should be normal")
	}
	if PredictLabel(0.49) != ClassAbnormal || PredictLabel(0) != ClassAbnormal {
		t.Error("p < 0.5 should be abnormal")
	}
}

// Evaluate runs a classifier over labelled samples and accumulates a
// confusion matrix.
func Evaluate(c Classifier, samples []Sample) (ConfusionMatrix, error) {
	var m ConfusionMatrix
	for i, s := range samples {
		pred, err := c.Predict(s.Features)
		if err != nil {
			return m, fmt.Errorf("evaluate sample %d: %w", i, err)
		}
		m.Observe(s.Label, pred)
	}
	return m, nil
}
