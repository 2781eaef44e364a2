package mlkit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gaussianSamples draws n samples per class from two well-separated 2-D
// Gaussians.
func gaussianSamples(rng *rand.Rand, n int, sep float64) []Sample {
	out := make([]Sample, 0, 2*n)
	for i := 0; i < n; i++ {
		out = append(out, Sample{
			Features: []float64{rng.NormFloat64(), rng.NormFloat64()},
			Label:    ClassNormal,
		})
		out = append(out, Sample{
			Features: []float64{sep + rng.NormFloat64(), sep + rng.NormFloat64()},
			Label:    ClassAbnormal,
		})
	}
	return out
}

func TestGaussianNBSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := gaussianSamples(rng, 500, 6)
	test := gaussianSamples(rng, 200, 6)

	nb := NewGaussianNB()
	if err := nb.Fit(train); err != nil {
		t.Fatal(err)
	}
	m, err := Evaluate(nb, test)
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy() < 0.98 {
		t.Errorf("accuracy %.3f on well-separated classes, want >= 0.98", m.Accuracy())
	}
}

func TestGaussianNBProbabilityRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nb := NewGaussianNB()
	if err := nb.Fit(gaussianSamples(rng, 200, 3)); err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		p, err := nb.PredictProba([]float64{a, b})
		return err == nil && p >= 0 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGaussianNBProbabilityMonotone(t *testing.T) {
	// With normal centered at 0 and abnormal at +6, P(normal) must fall
	// as the feature grows.
	rng := rand.New(rand.NewSource(3))
	nb := NewGaussianNB()
	if err := nb.Fit(gaussianSamples(rng, 500, 6)); err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for x := -2.0; x <= 8; x += 0.5 {
		p, err := nb.PredictProba([]float64{x, x})
		if err != nil {
			t.Fatal(err)
		}
		if p > prev+1e-9 {
			t.Fatalf("P(normal) not monotone: p(%v)=%.4f > previous %.4f", x, p, prev)
		}
		prev = p
	}
}

func TestGaussianNBErrors(t *testing.T) {
	nb := NewGaussianNB()
	if _, err := nb.PredictProba([]float64{1}); err != ErrNotTrained {
		t.Errorf("err = %v, want ErrNotTrained", err)
	}
	if err := nb.Fit(nil); err != ErrNoSamples {
		t.Errorf("err = %v, want ErrNoSamples", err)
	}
	oneClass := []Sample{{Features: []float64{1}, Label: ClassNormal}}
	if err := nb.Fit(oneClass); err != ErrSingleClass {
		t.Errorf("err = %v, want ErrSingleClass", err)
	}
	bad := []Sample{
		{Features: []float64{1}, Label: ClassNormal},
		{Features: []float64{1, 2}, Label: ClassAbnormal},
	}
	if err := nb.Fit(bad); err == nil {
		t.Error("want feature-width error")
	}
	badLabel := []Sample{
		{Features: []float64{1}, Label: 3},
		{Features: []float64{2}, Label: ClassAbnormal},
	}
	if err := nb.Fit(badLabel); err == nil {
		t.Error("want label error")
	}

	rng := rand.New(rand.NewSource(4))
	if err := nb.Fit(gaussianSamples(rng, 50, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := nb.PredictProba([]float64{1}); err != ErrFeatureWidth {
		t.Errorf("err = %v, want ErrFeatureWidth", err)
	}
}

func TestGaussianNBConstantFeature(t *testing.T) {
	// A zero-variance feature must not blow up thanks to smoothing.
	samples := []Sample{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		samples = append(samples,
			Sample{Features: []float64{1, rng.NormFloat64()}, Label: ClassNormal},
			Sample{Features: []float64{1, 5 + rng.NormFloat64()}, Label: ClassAbnormal},
		)
	}
	nb := NewGaussianNB()
	if err := nb.Fit(samples); err != nil {
		t.Fatal(err)
	}
	p, err := nb.PredictProba([]float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(p) || p < 0.5 {
		t.Errorf("P(normal|x2=0) = %v, want > 0.5", p)
	}
}

func TestGaussianNBIntrospection(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nb := NewGaussianNB()
	if !math.IsNaN(nb.ClassMean(0, 0)) {
		t.Error("untrained ClassMean should be NaN")
	}
	if err := nb.Fit(gaussianSamples(rng, 300, 5)); err != nil {
		t.Fatal(err)
	}
	if !nb.Trained() || nb.FeatureWidth() != 2 {
		t.Errorf("Trained=%v width=%d", nb.Trained(), nb.FeatureWidth())
	}
	if m := nb.ClassMean(ClassAbnormal, 0); math.Abs(m-5) > 0.5 {
		t.Errorf("abnormal mean = %.2f, want ~5", m)
	}
	if m := nb.ClassMean(ClassNormal, 0); math.Abs(m) > 0.5 {
		t.Errorf("normal mean = %.2f, want ~0", m)
	}
	if !math.IsNaN(nb.ClassMean(2, 0)) || !math.IsNaN(nb.ClassMean(0, 9)) {
		t.Error("out-of-range ClassMean should be NaN")
	}
}

// Trained reports whether Fit has succeeded.
func (nb *GaussianNB) Trained() bool { return nb.trained }

// FeatureWidth returns the trained feature width (0 if untrained).
func (nb *GaussianNB) FeatureWidth() int { return nb.width }

// ClassMean returns the fitted mean of feature f under class c, for
// explainability surfaces (the paper stresses explainable models).
func (nb *GaussianNB) ClassMean(c, f int) float64 {
	if !nb.trained || c < 0 || c > 1 || f < 0 || f >= nb.width {
		return math.NaN()
	}
	return nb.mean[c][f]
}
