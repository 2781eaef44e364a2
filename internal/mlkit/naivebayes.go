package mlkit

import (
	"math"
)

// GaussianNB is a binary Gaussian Naive Bayes classifier: per-class priors
// with per-feature independent Gaussian likelihoods. It is the road-aware
// detector of AD3 — each RSU trains one on its own road type's data and
// "learns the normal profile" (§IV-C of the paper).
type GaussianNB struct {
	trained bool
	width   int
	// prior[c] is log P(class c).
	prior [2]float64
	// mean[c][f] and vari[c][f] are the per-class Gaussian parameters.
	mean [2][]float64
	vari [2][]float64
	// logNorm[c][f] = -0.5·ln(2π·vari[c][f]) and inv2v[c][f] =
	// 1/(2·vari[c][f]) are precomputed at Fit time so the per-record
	// predict path does no math.Log and no division.
	logNorm [2][]float64
	inv2v   [2][]float64
}

var _ Classifier = (*GaussianNB)(nil)

// varSmoothing stabilises near-constant features, as in scikit-learn and
// Spark MLlib: a fraction of the largest feature variance is added to all.
const varSmoothing = 1e-9

// NewGaussianNB returns an untrained classifier.
func NewGaussianNB() *GaussianNB { return &GaussianNB{} }

// Fit estimates priors and Gaussian parameters from the training set.
func (nb *GaussianNB) Fit(samples []Sample) error {
	width, err := validateSamples(samples)
	if err != nil {
		return err
	}
	nb.width = width

	var count [2]int
	var sum, sumSq [2][]float64
	for c := 0; c < 2; c++ {
		sum[c] = make([]float64, width)
		sumSq[c] = make([]float64, width)
	}
	for _, s := range samples {
		count[s.Label]++
		for f, x := range s.Features {
			sum[s.Label][f] += x
			sumSq[s.Label][f] += x * x
		}
	}

	var maxVar float64
	for c := 0; c < 2; c++ {
		nb.prior[c] = math.Log(float64(count[c]) / float64(len(samples)))
		nb.mean[c] = make([]float64, width)
		nb.vari[c] = make([]float64, width)
		n := float64(count[c])
		for f := 0; f < width; f++ {
			m := sum[c][f] / n
			v := sumSq[c][f]/n - m*m
			if v < 0 {
				v = 0
			}
			nb.mean[c][f] = m
			nb.vari[c][f] = v
			if v > maxVar {
				maxVar = v
			}
		}
	}
	eps := varSmoothing * maxVar
	if eps <= 0 {
		eps = varSmoothing
	}
	for c := 0; c < 2; c++ {
		for f := 0; f < width; f++ {
			nb.vari[c][f] += eps
		}
	}
	nb.finalize()
	nb.trained = true
	return nil
}

// finalize derives the per-class Gaussian log-likelihood constants from
// the fitted variances. Fit and model deserialization both call it.
func (nb *GaussianNB) finalize() {
	for c := 0; c < 2; c++ {
		nb.logNorm[c] = make([]float64, nb.width)
		nb.inv2v[c] = make([]float64, nb.width)
		for f := 0; f < nb.width; f++ {
			v := nb.vari[c][f]
			nb.logNorm[c][f] = -0.5 * math.Log(2*math.Pi*v)
			nb.inv2v[c][f] = 1 / (2 * v)
		}
	}
}

// PredictProba returns P(normal | features).
func (nb *GaussianNB) PredictProba(features []float64) (float64, error) {
	if !nb.trained {
		return 0, ErrNotTrained
	}
	if len(features) != nb.width {
		return 0, ErrFeatureWidth
	}
	var logLik [2]float64
	for c := 0; c < 2; c++ {
		ll := nb.prior[c]
		mean, logNorm, inv2v := nb.mean[c], nb.logNorm[c], nb.inv2v[c]
		for f, x := range features {
			d := x - mean[f]
			ll += logNorm[f] - d*d*inv2v[f]
		}
		logLik[c] = ll
	}
	return nb.normalize(logLik), nil
}

// PredictProba3 is the allocation-free fast path for the paper's
// three-feature vector: identical arithmetic to PredictProba, fixed-width
// array input so the caller's vector stays on its stack.
func (nb *GaussianNB) PredictProba3(features [3]float64) (float64, error) {
	if !nb.trained {
		return 0, ErrNotTrained
	}
	if nb.width != 3 {
		return 0, ErrFeatureWidth
	}
	var logLik [2]float64
	for c := 0; c < 2; c++ {
		ll := nb.prior[c]
		mean, logNorm, inv2v := nb.mean[c], nb.logNorm[c], nb.inv2v[c]
		for f := 0; f < 3; f++ {
			d := features[f] - mean[f]
			ll += logNorm[f] - d*d*inv2v[f]
		}
		logLik[c] = ll
	}
	return nb.normalize(logLik), nil
}

// normalize converts per-class log-likelihoods to P(normal) in log space:
// P(normal) = 1 / (1 + exp(ll0 - ll1)).
func (nb *GaussianNB) normalize(logLik [2]float64) float64 {
	diff := logLik[ClassAbnormal] - logLik[ClassNormal]
	if math.IsNaN(diff) {
		// Both likelihoods underflowed to -Inf (inputs astronomically far
		// from both classes): fall back to the class priors.
		diff = nb.prior[ClassAbnormal] - nb.prior[ClassNormal]
	}
	return 1 / (1 + math.Exp(diff))
}

// Predict returns the most likely class label.
func (nb *GaussianNB) Predict(features []float64) (int, error) {
	p, err := nb.PredictProba(features)
	if err != nil {
		return 0, err
	}
	return PredictLabel(p), nil
}
