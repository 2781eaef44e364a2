package mlkit

import "fmt"

// ConfusionMatrix counts binary-classification outcomes with abnormal
// (ClassAbnormal) as the positive class, matching the paper's Table IV:
// a true positive is an abnormal point detected as abnormal, a false
// negative an abnormal point the model waved through.
type ConfusionMatrix struct {
	TP int // abnormal, predicted abnormal
	FN int // abnormal, predicted normal
	TN int // normal, predicted normal
	FP int // normal, predicted abnormal
}

// Observe records one (truth, prediction) pair.
func (m *ConfusionMatrix) Observe(truth, predicted int) {
	switch {
	case truth == ClassAbnormal && predicted == ClassAbnormal:
		m.TP++
	case truth == ClassAbnormal && predicted == ClassNormal:
		m.FN++
	case truth == ClassNormal && predicted == ClassNormal:
		m.TN++
	default:
		m.FP++
	}
}

// Total returns the number of observations.
func (m ConfusionMatrix) Total() int { return m.TP + m.FN + m.TN + m.FP }

// Accuracy returns (TP+TN)/total.
func (m ConfusionMatrix) Accuracy() float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	return float64(m.TP+m.TN) / float64(t)
}

// Precision returns TP/(TP+FP).
func (m ConfusionMatrix) Precision() float64 {
	if m.TP+m.FP == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FP)
}

// Recall returns TP/(TP+FN) — the paper's "TP rate".
func (m ConfusionMatrix) Recall() float64 {
	if m.TP+m.FN == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FN)
}

// FNRate returns FN/(TP+FN): the share of abnormal points the model missed,
// the quantity the paper ties to potential accidents.
func (m ConfusionMatrix) FNRate() float64 {
	if m.TP+m.FN == 0 {
		return 0
	}
	return float64(m.FN) / float64(m.TP+m.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (m ConfusionMatrix) F1() float64 {
	p, r := m.Precision(), m.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String implements fmt.Stringer.
func (m ConfusionMatrix) String() string {
	return fmt.Sprintf("TP=%d FN=%d TN=%d FP=%d acc=%.4f f1=%.4f",
		m.TP, m.FN, m.TN, m.FP, m.Accuracy(), m.F1())
}
