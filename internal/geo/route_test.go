package geo

import (
	"errors"
	"testing"
)

// chainNetwork builds a linear chain of n segments: 1 -> 2 -> ... -> n,
// plus an expensive bypass 1 -> n for route-choice tests.
func chainNetwork(t *testing.T, n int) *Network {
	t.Helper()
	net := NewNetwork(0)
	start := ShenzhenCenter
	for i := 1; i <= n; i++ {
		seg := line(t, SegmentID(i), Primary, start, 90, 500, 2)
		if err := net.AddSegment(seg); err != nil {
			t.Fatal(err)
		}
		start = seg.End()
	}
	for i := 1; i < n; i++ {
		if err := net.Connect(SegmentID(i), SegmentID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

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
