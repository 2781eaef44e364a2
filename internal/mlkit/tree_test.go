package mlkit

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// xorSamples builds the XOR pattern that a linear model cannot solve but a
// depth-2 tree can.
func xorSamples(rng *rand.Rand, n int) []Sample {
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		x := float64(rng.Intn(2))
		y := float64(rng.Intn(2))
		label := ClassNormal
		if (x > 0.5) != (y > 0.5) {
			label = ClassAbnormal
		}
		out = append(out, Sample{
			Features: []float64{x + rng.NormFloat64()*0.05, y + rng.NormFloat64()*0.05},
			Label:    label,
		})
	}
	return out
}

func TestDecisionTreeXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := xorSamples(rng, 800)
	test := xorSamples(rng, 200)

	dt := NewDecisionTree(TreeConfig{MaxDepth: 4})
	if err := dt.Fit(train); err != nil {
		t.Fatal(err)
	}
	m, err := Evaluate(dt, test)
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy() < 0.95 {
		t.Errorf("XOR accuracy %.3f, want >= 0.95", m.Accuracy())
	}
	if dt.Depth() < 2 {
		t.Errorf("XOR needs depth >= 2, got %d", dt.Depth())
	}
}

func TestDecisionTreeRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train := gaussianSamples(rng, 500, 1) // heavily overlapping
	for _, depth := range []int{1, 2, 3, 5} {
		dt := NewDecisionTree(TreeConfig{MaxDepth: depth, MinSamplesLeaf: 1})
		if err := dt.Fit(train); err != nil {
			t.Fatal(err)
		}
		if got := dt.Depth(); got > depth {
			t.Errorf("depth %d exceeds MaxDepth %d", got, depth)
		}
	}
}

func TestDecisionTreeProbabilityRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dt := NewDecisionTree(TreeConfig{})
	if err := dt.Fit(gaussianSamples(rng, 300, 2)); err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		p, err := dt.PredictProba([]float64{a, b})
		return err == nil && p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecisionTreeDeterministic(t *testing.T) {
	rng1 := rand.New(rand.NewSource(4))
	rng2 := rand.New(rand.NewSource(4))
	a := NewDecisionTree(TreeConfig{})
	b := NewDecisionTree(TreeConfig{})
	if err := a.Fit(gaussianSamples(rng1, 400, 3)); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(gaussianSamples(rng2, 400, 3)); err != nil {
		t.Fatal(err)
	}
	probe := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		x := []float64{probe.NormFloat64() * 3, probe.NormFloat64() * 3}
		pa, _ := a.PredictProba(x)
		pb, _ := b.PredictProba(x)
		if pa != pb {
			t.Fatalf("identical training produced different trees at %v: %v vs %v", x, pa, pb)
		}
	}
}

func TestDecisionTreeErrors(t *testing.T) {
	dt := NewDecisionTree(TreeConfig{})
	if _, err := dt.Predict([]float64{1}); err != ErrNotTrained {
		t.Errorf("err = %v, want ErrNotTrained", err)
	}
	if err := dt.Fit(nil); err != ErrNoSamples {
		t.Errorf("err = %v, want ErrNoSamples", err)
	}
	rng := rand.New(rand.NewSource(6))
	if err := dt.Fit(gaussianSamples(rng, 100, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := dt.Predict([]float64{1, 2, 3}); err != ErrFeatureWidth {
		t.Errorf("err = %v, want ErrFeatureWidth", err)
	}
	if !dt.Trained() {
		t.Error("Trained() should be true after Fit")
	}
}

func TestDecisionTreeMinSamplesLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	train := gaussianSamples(rng, 50, 5)
	dt := NewDecisionTree(TreeConfig{MinSamplesLeaf: 40})
	if err := dt.Fit(train); err != nil {
		t.Fatal(err)
	}
	// With 100 samples and MinSamplesLeaf 40, depth can be at most 1.
	if dt.Depth() > 1 {
		t.Errorf("depth %d with huge leaf floor", dt.Depth())
	}
}

func TestDecisionTreeDump(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	dt := NewDecisionTree(TreeConfig{MaxDepth: 2})
	if err := dt.Fit(gaussianSamples(rng, 200, 5)); err != nil {
		t.Fatal(err)
	}
	out := dt.Dump([]string{"speed", "accel"})
	if !strings.Contains(out, "leaf:") {
		t.Errorf("dump missing leaves:\n%s", out)
	}
	if !strings.Contains(out, "speed") && !strings.Contains(out, "accel") {
		t.Errorf("dump missing feature names:\n%s", out)
	}
}

// Trained reports whether Fit has succeeded.
func (t *DecisionTree) Trained() bool { return t.trained }

// Depth returns the depth of the grown tree (0 for a stump/untrained).
func (t *DecisionTree) Depth() int { return depthOf(t.root) }

func depthOf(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}
