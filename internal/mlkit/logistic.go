package mlkit

import (
	"fmt"
	"math"
)

// LogisticRegression is a binary logistic-regression classifier trained
// with full-batch gradient descent and L2 regularisation. The paper's
// future work calls for "complex anomaly detection algorithms" operating
// within CAD3; this is the first step beyond Naive Bayes while staying
// explainable (weights are readable).
type LogisticRegression struct {
	cfg     LogisticConfig
	weights []float64 // one per feature
	bias    float64
	// Standardisation parameters learned from the training set.
	mean, std []float64
	trained   bool
}

var _ Classifier = (*LogisticRegression)(nil)

// LogisticConfig tunes training.
type LogisticConfig struct {
	// LearningRate for gradient descent. Values <= 0 select 0.1.
	LearningRate float64
	// Epochs of full-batch descent. Values <= 0 select 200.
	Epochs int
	// L2 regularisation strength. Values < 0 select 1e-4.
	L2 float64
}

func (c LogisticConfig) withDefaults() LogisticConfig {
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.Epochs <= 0 {
		c.Epochs = 200
	}
	if c.L2 < 0 {
		c.L2 = 1e-4
	}
	if c.L2 == 0 {
		c.L2 = 1e-4
	}
	return c
}

// NewLogisticRegression returns an untrained model.
func NewLogisticRegression(cfg LogisticConfig) *LogisticRegression {
	return &LogisticRegression{cfg: cfg.withDefaults()}
}

// Fit trains the model. Features are standardised internally.
func (lr *LogisticRegression) Fit(samples []Sample) error {
	width, err := validateSamples(samples)
	if err != nil {
		return err
	}
	lr.mean = make([]float64, width)
	lr.std = make([]float64, width)
	n := float64(len(samples))
	for _, s := range samples {
		for f, x := range s.Features {
			lr.mean[f] += x
		}
	}
	for f := range lr.mean {
		lr.mean[f] /= n
	}
	for _, s := range samples {
		for f, x := range s.Features {
			d := x - lr.mean[f]
			lr.std[f] += d * d
		}
	}
	for f := range lr.std {
		lr.std[f] = math.Sqrt(lr.std[f] / n)
		if lr.std[f] < 1e-9 {
			lr.std[f] = 1
		}
	}

	// Standardised design matrix, computed once.
	xs := make([][]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		row := make([]float64, width)
		for f, x := range s.Features {
			row[f] = (x - lr.mean[f]) / lr.std[f]
		}
		xs[i] = row
		ys[i] = float64(s.Label) // 1 = normal
	}

	lr.weights = make([]float64, width)
	lr.bias = 0
	grad := make([]float64, width)
	for epoch := 0; epoch < lr.cfg.Epochs; epoch++ {
		for f := range grad {
			grad[f] = 0
		}
		var gradBias float64
		for i, row := range xs {
			p := sigmoid(lr.bias + dot(lr.weights, row))
			e := p - ys[i]
			for f, x := range row {
				grad[f] += e * x
			}
			gradBias += e
		}
		for f := range lr.weights {
			lr.weights[f] -= lr.cfg.LearningRate * (grad[f]/n + lr.cfg.L2*lr.weights[f])
		}
		lr.bias -= lr.cfg.LearningRate * gradBias / n
	}
	lr.trained = true
	return nil
}

// PredictProba returns P(normal | features).
func (lr *LogisticRegression) PredictProba(features []float64) (float64, error) {
	if !lr.trained {
		return 0, ErrNotTrained
	}
	if len(features) != len(lr.weights) {
		return 0, ErrFeatureWidth
	}
	z := lr.bias
	for f, x := range features {
		z += lr.weights[f] * (x - lr.mean[f]) / lr.std[f]
	}
	if math.IsNaN(z) {
		// Two extreme features overflowed to opposite infinities: the
		// logit is undefined, so neither class is favoured.
		z = 0
	}
	return sigmoid(z), nil
}

// Predict returns the most likely class label.
func (lr *LogisticRegression) Predict(features []float64) (int, error) {
	p, err := lr.PredictProba(features)
	if err != nil {
		return 0, err
	}
	return PredictLabel(p), nil
}

// Weights returns a copy of the fitted (standardised-space) weights, for
// explainability.
func (lr *LogisticRegression) Weights() []float64 {
	out := make([]float64, len(lr.weights))
	copy(out, lr.weights)
	return out
}

// Trained reports whether Fit has succeeded.
func (lr *LogisticRegression) Trained() bool { return lr.trained }

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// KFoldCrossValidate scores a model-builder over k folds, returning the
// per-fold confusion matrices. build must return a fresh untrained
// classifier together with its Fit function.
func KFoldCrossValidate(samples []Sample, k int, build func() (Classifier, func([]Sample) error)) ([]ConfusionMatrix, error) {
	if k < 2 {
		return nil, fmt.Errorf("mlkit: k-fold needs k >= 2, got %d", k)
	}
	if len(samples) < k {
		return nil, fmt.Errorf("mlkit: %d samples cannot fill %d folds", len(samples), k)
	}
	out := make([]ConfusionMatrix, 0, k)
	foldSize := len(samples) / k
	for fold := 0; fold < k; fold++ {
		lo := fold * foldSize
		hi := lo + foldSize
		if fold == k-1 {
			hi = len(samples)
		}
		test := samples[lo:hi]
		train := make([]Sample, 0, len(samples)-len(test))
		train = append(train, samples[:lo]...)
		train = append(train, samples[hi:]...)

		clf, fit := build()
		if err := fit(train); err != nil {
			return nil, fmt.Errorf("fold %d: %w", fold, err)
		}
		m, err := Evaluate(clf, test)
		if err != nil {
			return nil, fmt.Errorf("fold %d: %w", fold, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// MeanF1 averages F1 across confusion matrices.
func MeanF1(ms []ConfusionMatrix) float64 {
	if len(ms) == 0 {
		return 0
	}
	var total float64
	for _, m := range ms {
		total += m.F1()
	}
	return total / float64(len(ms))
}
