package geo

import (
	"container/heap"
	"errors"
	"fmt"
	"testing"
)

// ErrNoRoute is returned when no connected path exists between segments.
var ErrNoRoute = errors.New("geo: no route between segments")

// Router computes shortest routes over the network's segment connectivity
// graph with Dijkstra's algorithm. No binary plans routes (journeys are
// seeded walks), so it lives with its tests as a check that the
// successor graph the builder wires is navigable. Costs are segment traversal times
// (length / speed limit), so routes prefer fast roads, as drivers do.
type Router struct {
	net *Network
}

// NewRouter creates a router over the network.
func NewRouter(net *Network) *Router { return &Router{net: net} }

// Route returns the segment sequence from `from` to `to` (inclusive of
// both) minimising total traversal time.
func (r *Router) Route(from, to SegmentID) ([]SegmentID, error) {
	if r.net.Segment(from) == nil {
		return nil, fmt.Errorf("geo: route source %d unknown", from)
	}
	if r.net.Segment(to) == nil {
		return nil, fmt.Errorf("geo: route target %d unknown", to)
	}
	if from == to {
		return []SegmentID{from}, nil
	}

	dist := map[SegmentID]float64{from: r.cost(from)}
	prev := make(map[SegmentID]SegmentID)
	done := make(map[SegmentID]bool)
	pq := &routeQueue{{id: from, cost: dist[from]}}

	for pq.Len() > 0 {
		cur := heap.Pop(pq).(routeItem)
		if done[cur.id] {
			continue
		}
		done[cur.id] = true
		if cur.id == to {
			break
		}
		for _, next := range r.net.next[cur.id] {
			if done[next] {
				continue
			}
			nd := cur.cost + r.cost(next)
			if old, ok := dist[next]; !ok || nd < old {
				dist[next] = nd
				prev[next] = cur.id
				heap.Push(pq, routeItem{id: next, cost: nd})
			}
		}
	}
	if !done[to] {
		return nil, fmt.Errorf("%w: %d -> %d", ErrNoRoute, from, to)
	}

	// Backtrack.
	var path []SegmentID
	for at := to; ; {
		path = append(path, at)
		if at == from {
			break
		}
		at = prev[at]
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// TravelTimeSeconds returns the summed traversal time of a route.
func (r *Router) TravelTimeSeconds(route []SegmentID) float64 {
	var total float64
	for _, id := range route {
		total += r.cost(id)
	}
	return total
}

// cost is a segment's free-flow traversal time in seconds.
func (r *Router) cost(id SegmentID) float64 {
	s := r.net.Segment(id)
	if s == nil {
		return 0
	}
	v := s.Type.SpeedLimitKmh() / 3.6 // m/s
	if v <= 0 {
		v = 10
	}
	return s.LengthMeters() / v
}

type routeItem struct {
	id   SegmentID
	cost float64
}

type routeQueue []routeItem

func (q routeQueue) Len() int           { return len(q) }
func (q routeQueue) Less(i, j int) bool { return q[i].cost < q[j].cost }
func (q routeQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *routeQueue) Push(x any)        { *q = append(*q, x.(routeItem)) }
func (q *routeQueue) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

func TestRouteLinearChain(t *testing.T) {
	net := chainNetwork(t, 5)
	r := NewRouter(net)
	route, err := r.Route(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 5 {
		t.Fatalf("route = %v", route)
	}
	for i, id := range route {
		if id != SegmentID(i+1) {
			t.Fatalf("route = %v, want 1..5 in order", route)
		}
	}
	if tt := r.TravelTimeSeconds(route); tt <= 0 {
		t.Errorf("travel time = %v", tt)
	}
}

func TestRoutePrefersFastRoads(t *testing.T) {
	// Two parallel paths 1 -> {2 slow residential, 3 fast motorway} -> 4.
	net := NewNetwork(0)
	a := line(t, 1, Primary, ShenzhenCenter, 90, 300, 2)
	slow := line(t, 2, Residential, a.End(), 60, 1000, 2)
	fast := line(t, 3, Motorway, a.End(), 120, 1200, 2)
	end := line(t, 4, Primary, slow.End(), 90, 300, 2)
	for _, s := range []*Segment{a, slow, fast, end} {
		if err := net.AddSegment(s); err != nil {
			t.Fatal(err)
		}
	}
	_ = net.Connect(1, 2)
	_ = net.Connect(1, 3)
	_ = net.Connect(2, 4)
	_ = net.Connect(3, 4)

	route, err := NewRouter(net).Route(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Motorway at 100 km/h over 1200 m (43 s) beats residential at
	// 30 km/h over 1000 m (120 s).
	if len(route) != 3 || route[1] != 3 {
		t.Errorf("route = %v, want via motorway (3)", route)
	}
}

func TestRouteTrivialAndErrors(t *testing.T) {
	net := chainNetwork(t, 3)
	r := NewRouter(net)
	route, err := r.Route(2, 2)
	if err != nil || len(route) != 1 || route[0] != 2 {
		t.Errorf("self route = %v, %v", route, err)
	}
	if _, err := r.Route(99, 1); err == nil {
		t.Error("want error for unknown source")
	}
	if _, err := r.Route(1, 99); err == nil {
		t.Error("want error for unknown target")
	}
	// Disconnected: 3 -> 1 has no edges (chain is directed).
	if _, err := r.Route(3, 1); !errors.Is(err, ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
}

func TestRouteOnSyntheticNetwork(t *testing.T) {
	net, err := BuildNetwork(BuildConfig{Scale: 0.05, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(net)
	// Every motorway connects to a link, so motorway -> its link routes.
	mw := net.SegmentsOfType(Motorway)[0]
	succ := net.Successors(mw.ID)
	if len(succ) == 0 {
		t.Skip("no successors")
	}
	route, err := r.Route(mw.ID, succ[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 2 {
		t.Errorf("route = %v", route)
	}
}
