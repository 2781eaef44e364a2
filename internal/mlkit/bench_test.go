package mlkit

import (
	"math/rand"
	"testing"
)

func benchFixture(b *testing.B, n int) ([]Sample, [][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	train := gaussianSamples(rng, n, 3)
	probes := make([][]float64, 1024)
	for i := range probes {
		probes[i] = []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
	}
	return train, probes
}

func BenchmarkGaussianNBFit(b *testing.B) {
	train, _ := benchFixture(b, 5000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nb := NewGaussianNB()
		if err := nb.Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGaussianNBPredict(b *testing.B) {
	train, probes := benchFixture(b, 5000)
	nb := NewGaussianNB()
	if err := nb.Fit(train); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := nb.PredictProba(probes[i%len(probes)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecisionTreeFit(b *testing.B) {
	train, _ := benchFixture(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dt := NewDecisionTree(TreeConfig{})
		if err := dt.Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecisionTreePredict(b *testing.B) {
	train, probes := benchFixture(b, 5000)
	dt := NewDecisionTree(TreeConfig{})
	if err := dt.Fit(train); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dt.PredictProba(probes[i%len(probes)]); err != nil {
			b.Fatal(err)
		}
	}
}
