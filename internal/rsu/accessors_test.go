package rsu

import (
	"cad3/internal/core"
	"cad3/internal/trace"
	"fmt"
	"slices"
)

// NodeByName returns the named node.
func (c *Cluster) NodeByName(name string) (*Node, error) {
	n, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoRSU, name)
	}
	return n, nil
}

// Nodes returns every node, ordered by road ID.
func (c *Cluster) Nodes() []*Node { return slices.Clone(c.nodes) }

// Observe folds one speed sample into the current bucket.
func (p *RoadProfile) Observe(speedKmh float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bucketLocked(p.tickLocked(p.now())).add(speedKmh)
}

// MeanStd returns the windowed mean and standard deviation of speed, and
// ok=false until enough samples accumulated.
func (p *RoadProfile) MeanStd() (mean, std float64, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.meanStdLocked(p.tickLocked(p.now()))
}

// Samples returns the number of samples currently inside the window.
func (p *RoadProfile) Samples() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	tick := p.tickLocked(p.now())
	oldest := tick - int64(len(p.buckets)) + 1
	var n int64
	for i := range p.buckets {
		if b := p.buckets[i]; b.tick >= oldest && b.tick <= tick {
			n += b.n
		}
	}
	return n
}

func carKey(car trace.CarID) []byte {
	return appendCarKey(make([]byte, 0, 24), car)
}

// Detector returns the node's detector (checkpointing persists it).
func (n *Node) Detector() core.Detector { return n.cfg.Detector }

// Profile returns the node's rolling road speed profile.
func (n *Node) Profile() *RoadProfile { return n.profile }

// StoredSummaries returns the number of summaries received and retained.
func (n *Node) StoredSummaries() int { return n.summaries.Len() }
