package mlkit

import (
	"fmt"
	"sort"
	"strings"
)

// DecisionTree is a binary CART classifier with Gini-impurity splits on
// continuous features. CAD3's collaborative stage feeds it the vector
// [Hour, P_X, Class_NB] (§IV-D of the paper).
type DecisionTree struct {
	cfg     TreeConfig
	root    *treeNode
	width   int
	trained bool
}

var _ Classifier = (*DecisionTree)(nil)

// TreeConfig bounds tree growth.
type TreeConfig struct {
	// MaxDepth limits the tree depth. Values <= 0 select 6.
	MaxDepth int
	// MinSamplesLeaf is the minimum samples per leaf. Values <= 0 select 5.
	MinSamplesLeaf int
	// MinImpurityDecrease prunes splits with negligible gain. Values < 0
	// select 1e-7.
	MinImpurityDecrease float64
	// MaxThresholds caps candidate thresholds evaluated per feature at
	// each node (quantile sketch), bounding training cost on large data.
	// Values <= 0 select 32.
	MaxThresholds int
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 6
	}
	if c.MinSamplesLeaf <= 0 {
		c.MinSamplesLeaf = 5
	}
	if c.MinImpurityDecrease < 0 {
		c.MinImpurityDecrease = 1e-7
	}
	if c.MinImpurityDecrease == 0 {
		c.MinImpurityDecrease = 1e-7
	}
	if c.MaxThresholds <= 0 {
		c.MaxThresholds = 32
	}
	return c
}

type treeNode struct {
	// Leaf payload.
	leaf    bool
	pNormal float64 // fraction of ClassNormal samples at the leaf
	n       int
	// Split payload.
	feature   int
	threshold float64
	left      *treeNode // features[feature] <= threshold
	right     *treeNode
}

// NewDecisionTree returns an untrained tree.
func NewDecisionTree(cfg TreeConfig) *DecisionTree {
	return &DecisionTree{cfg: cfg.withDefaults()}
}

// Fit grows the tree on the training set.
func (t *DecisionTree) Fit(samples []Sample) error {
	width, err := validateSamples(samples)
	if err != nil {
		return err
	}
	t.width = width
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.grow(samples, idx, 0)
	t.trained = true
	return nil
}

func (t *DecisionTree) grow(samples []Sample, idx []int, depth int) *treeNode {
	nNormal := 0
	for _, i := range idx {
		if samples[i].Label == ClassNormal {
			nNormal++
		}
	}
	node := &treeNode{
		pNormal: float64(nNormal) / float64(len(idx)),
		n:       len(idx),
	}
	if depth >= t.cfg.MaxDepth || len(idx) < 2*t.cfg.MinSamplesLeaf ||
		nNormal == 0 || nNormal == len(idx) {
		node.leaf = true
		return node
	}

	bestGain := t.cfg.MinImpurityDecrease
	bestFeature, bestThreshold := -1, 0.0
	parentImpurity := gini(nNormal, len(idx))

	for f := 0; f < t.width; f++ {
		thresholds := t.candidateThresholds(samples, idx, f)
		for _, th := range thresholds {
			lN, lNorm, rN, rNorm := 0, 0, 0, 0
			for _, i := range idx {
				if samples[i].Features[f] <= th {
					lN++
					if samples[i].Label == ClassNormal {
						lNorm++
					}
				} else {
					rN++
					if samples[i].Label == ClassNormal {
						rNorm++
					}
				}
			}
			if lN < t.cfg.MinSamplesLeaf || rN < t.cfg.MinSamplesLeaf {
				continue
			}
			wl := float64(lN) / float64(len(idx))
			gain := parentImpurity - wl*gini(lNorm, lN) - (1-wl)*gini(rNorm, rN)
			if gain > bestGain {
				bestGain, bestFeature, bestThreshold = gain, f, th
			}
		}
	}
	if bestFeature < 0 {
		node.leaf = true
		return node
	}

	var leftIdx, rightIdx []int
	for _, i := range idx {
		if samples[i].Features[bestFeature] <= bestThreshold {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	node.feature = bestFeature
	node.threshold = bestThreshold
	node.left = t.grow(samples, leftIdx, depth+1)
	node.right = t.grow(samples, rightIdx, depth+1)
	return node
}

// candidateThresholds returns up to MaxThresholds midpoints between
// distinct sorted values of feature f over idx.
func (t *DecisionTree) candidateThresholds(samples []Sample, idx []int, f int) []float64 {
	vals := make([]float64, 0, len(idx))
	for _, i := range idx {
		vals = append(vals, samples[i].Features[f])
	}
	sort.Float64s(vals)
	// De-duplicate.
	uniq := vals[:0]
	for i, v := range vals {
		if i == 0 || v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	if len(uniq) < 2 {
		return nil
	}
	mids := make([]float64, 0, len(uniq)-1)
	for i := 1; i < len(uniq); i++ {
		mids = append(mids, (uniq[i-1]+uniq[i])/2)
	}
	if len(mids) <= t.cfg.MaxThresholds {
		return mids
	}
	// Quantile subsample.
	out := make([]float64, 0, t.cfg.MaxThresholds)
	step := float64(len(mids)) / float64(t.cfg.MaxThresholds)
	for i := 0; i < t.cfg.MaxThresholds; i++ {
		out = append(out, mids[int(float64(i)*step)])
	}
	return out
}

func gini(nNormal, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(nNormal) / float64(n)
	return 2 * p * (1 - p)
}

// PredictProba returns P(normal | features): the normal-class fraction of
// the reached leaf.
func (t *DecisionTree) PredictProba(features []float64) (float64, error) {
	if !t.trained {
		return 0, ErrNotTrained
	}
	if len(features) != t.width {
		return 0, ErrFeatureWidth
	}
	node := t.root
	for !node.leaf {
		if features[node.feature] <= node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.pNormal, nil
}

// PredictProba3 is the allocation-free fast path for CAD3's fixed
// three-feature fusion vector [Hour, P_X, Class_NB]: the same traversal
// as PredictProba over an array the caller keeps on its stack.
func (t *DecisionTree) PredictProba3(features [3]float64) (float64, error) {
	if !t.trained {
		return 0, ErrNotTrained
	}
	if t.width != 3 {
		return 0, ErrFeatureWidth
	}
	node := t.root
	for !node.leaf {
		if features[node.feature] <= node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.pNormal, nil
}

// Predict returns the most likely class label.
func (t *DecisionTree) Predict(features []float64) (int, error) {
	p, err := t.PredictProba(features)
	if err != nil {
		return 0, err
	}
	return PredictLabel(p), nil
}

// Dump renders the tree as indented text — the explainability surface the
// paper argues matters for road-safety liability (§VI-D4).
func (t *DecisionTree) Dump(featureNames []string) string {
	var sb strings.Builder
	var walk func(n *treeNode, depth int)
	walk = func(n *treeNode, depth int) {
		indent := strings.Repeat("  ", depth)
		if n.leaf {
			fmt.Fprintf(&sb, "%sleaf: P(normal)=%.3f n=%d\n", indent, n.pNormal, n.n)
			return
		}
		name := fmt.Sprintf("f%d", n.feature)
		if n.feature < len(featureNames) {
			name = featureNames[n.feature]
		}
		fmt.Fprintf(&sb, "%sif %s <= %.4f:\n", indent, name, n.threshold)
		walk(n.left, depth+1)
		fmt.Fprintf(&sb, "%selse:\n", indent)
		walk(n.right, depth+1)
	}
	if t.root != nil {
		walk(t.root, 0)
	}
	return sb.String()
}
