package rsu

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"cad3/internal/geo"
	"cad3/internal/microbatch"
	"cad3/internal/trace"
)

// Cluster deploys a set of RSU nodes over a road network and wires their
// collaboration topology from segment connectivity: whenever the road of
// one node leads into the road of another, the first gets the second as a
// CO-DATA neighbor — so vehicle handovers resolve automatically from the
// route, the way adjacent RSUs in Figure 1 of the paper are wired along
// the motorway/link geometry.
//
// NewCluster builds every lookup table and nothing changes them after, so
// all methods are safe for concurrent use without a lock.
type Cluster struct {
	net    *geo.Network
	byRoad map[geo.SegmentID]*Node
	byName map[string]*Node
	nodes  []*Node // ordered by road ID
	// neighborName[a][b] is the neighbor label node-a uses for node-b.
	neighborName map[geo.SegmentID]map[geo.SegmentID]string
}

// ErrNoRSU is returned when no node covers a road.
var ErrNoRSU = errors.New("rsu: no node covers that road")

// NewCluster creates the nodes from their configs and wires neighbors
// from the network's connectivity (both directions of each connection).
func NewCluster(net *geo.Network, configs []Config) (*Cluster, error) {
	if net == nil {
		return nil, fmt.Errorf("rsu: cluster requires a network")
	}
	if len(configs) == 0 {
		return nil, fmt.Errorf("rsu: cluster requires at least one node")
	}
	c := &Cluster{
		net:          net,
		byRoad:       make(map[geo.SegmentID]*Node, len(configs)),
		byName:       make(map[string]*Node, len(configs)),
		neighborName: make(map[geo.SegmentID]map[geo.SegmentID]string),
	}
	for i, cfg := range configs {
		if cfg.Name == "" {
			cfg.Name = fmt.Sprintf("rsu-%d", cfg.Road)
		}
		if _, dup := c.byRoad[cfg.Road]; dup {
			return nil, fmt.Errorf("rsu: two nodes cover road %d", cfg.Road)
		}
		if _, dup := c.byName[cfg.Name]; dup {
			return nil, fmt.Errorf("rsu: duplicate node name %q", cfg.Name)
		}
		node, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("cluster node %d: %w", i, err)
		}
		c.byRoad[cfg.Road] = node
		c.byName[cfg.Name] = node
	}

	// Wire neighbors from connectivity, both ways (a vehicle can enter a
	// motorway from a link too).
	link := func(from, to *Node) error {
		if from == to {
			return nil
		}
		names, ok := c.neighborName[from.Road()]
		if !ok {
			names = make(map[geo.SegmentID]string)
			c.neighborName[from.Road()] = names
		}
		if _, done := names[to.Road()]; done {
			return nil
		}
		if err := from.AddNeighbor(to.Name(), to.cfg.Client); err != nil {
			return err
		}
		names[to.Road()] = to.Name()
		return nil
	}
	c.nodes = make([]*Node, 0, len(c.byRoad))
	for _, n := range c.byRoad {
		c.nodes = append(c.nodes, n)
	}
	slices.SortFunc(c.nodes, func(a, b *Node) int { return cmp.Compare(a.Road(), b.Road()) })
	for _, from := range c.nodes {
		for _, succ := range net.Successors(from.Road()) {
			if to, ok := c.byRoad[succ]; ok {
				if err := link(from, to); err != nil {
					return nil, err
				}
				if err := link(to, from); err != nil {
					return nil, err
				}
			}
		}
	}
	return c, nil
}

// Node returns the node covering a road.
func (c *Cluster) Node(road geo.SegmentID) (*Node, error) {
	n, ok := c.byRoad[road]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoRSU, road)
	}
	return n, nil
}

// Handover moves a vehicle's prediction summary from the RSU covering
// fromRoad to the RSU covering toRoad, which must be wired neighbors.
func (c *Cluster) Handover(car trace.CarID, fromRoad, toRoad geo.SegmentID) error {
	from, ok := c.byRoad[fromRoad]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoRSU, fromRoad)
	}
	name, ok := c.neighborName[fromRoad][toRoad]
	if !ok {
		return fmt.Errorf("%w: %d is not a neighbor of %d", ErrNoNeighbor, toRoad, fromRoad)
	}
	return from.Handover(car, name)
}

// StepAll runs one pipeline round on every node, returning per-node batch
// stats keyed by name. Per-node errors are collected, not fatal.
func (c *Cluster) StepAll() (map[string]microbatch.BatchStats, error) {
	out := make(map[string]microbatch.BatchStats)
	var errs []error
	for _, n := range c.nodes {
		bs, err := n.Step()
		out[n.Name()] = bs
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", n.Name(), err))
		}
	}
	return out, errors.Join(errs...)
}

// Stats returns every node's stats keyed by name.
func (c *Cluster) Stats() map[string]Stats {
	out := make(map[string]Stats)
	for _, n := range c.nodes {
		out[n.Name()] = n.Stats()
	}
	return out
}
