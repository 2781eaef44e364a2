package rsu

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cad3/internal/geo"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// clusterFixture builds a 2-node cluster over a motorway -> link corridor.
func clusterFixture(t *testing.T) (*Cluster, *geo.Network, stream.Client, stream.Client) {
	t.Helper()
	_, link, mw, cad := trainedDetectors(t)

	net := geo.NewNetwork(0)
	mwSeg := lineSeg(t, 1, geo.Motorway)
	lkSeg := lineSeg(t, 2, geo.MotorwayLink)
	if err := net.AddSegment(mwSeg); err != nil {
		t.Fatal(err)
	}
	if err := net.AddSegment(lkSeg); err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(1, 2); err != nil {
		t.Fatal(err)
	}

	mwBroker := stream.NewBroker(stream.BrokerConfig{})
	lkBroker := stream.NewBroker(stream.BrokerConfig{})
	mwClient := stream.NewInProcClient(mwBroker)
	lkClient := stream.NewInProcClient(lkBroker)

	cluster, err := NewCluster(net, []Config{
		{Name: "Mw", Road: 1, Detector: mw, Client: mwClient},
		{Name: "Link", Road: 2, Detector: cad, Client: lkClient},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = link
	return cluster, net, mwClient, lkClient
}

// brokerFixture is the same 2-node corridor with its brokers reachable,
// so a test can kill one.
type brokerFixture struct {
	cluster  *Cluster
	mwBroker *stream.Broker
	lkBroker *stream.Broker
	mwClient stream.Client
	lkClient stream.Client
}

func newBrokerFixture(t *testing.T) *brokerFixture {
	t.Helper()
	_, _, mw, cad := trainedDetectors(t)

	net := geo.NewNetwork(0)
	if err := net.AddSegment(lineSeg(t, 1, geo.Motorway)); err != nil {
		t.Fatal(err)
	}
	if err := net.AddSegment(lineSeg(t, 2, geo.MotorwayLink)); err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(1, 2); err != nil {
		t.Fatal(err)
	}

	f := &brokerFixture{
		mwBroker: stream.NewBroker(stream.BrokerConfig{}),
		lkBroker: stream.NewBroker(stream.BrokerConfig{}),
	}
	f.mwClient = stream.NewInProcClient(f.mwBroker)
	f.lkClient = stream.NewInProcClient(f.lkBroker)
	cluster, err := NewCluster(net, []Config{
		{Name: "Mw", Road: 1, Detector: mw, Client: f.mwClient},
		{Name: "Link", Road: 2, Detector: cad, Client: f.lkClient},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.cluster = cluster
	return f
}

func lineSeg(t *testing.T, id geo.SegmentID, rt geo.RoadType) *geo.Segment {
	t.Helper()
	start := geo.Destination(geo.ShenzhenCenter, float64(id)*10, float64(id)*1000)
	s, err := geo.NewSegment(id, rt, "seg", []geo.Point{start, geo.Destination(start, 90, 500)})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestClusterWiringAndLookup(t *testing.T) {
	cluster, _, _, _ := clusterFixture(t)
	if len(cluster.Nodes()) != 2 {
		t.Fatalf("nodes = %d", len(cluster.Nodes()))
	}
	n, err := cluster.Node(1)
	if err != nil || n.Name() != "Mw" {
		t.Errorf("Node(1) = %v, %v", n, err)
	}
	if _, err := cluster.Node(99); !errors.Is(err, ErrNoRSU) {
		t.Errorf("err = %v, want ErrNoRSU", err)
	}
	n, err = cluster.NodeByName("Link")
	if err != nil || n.Road() != 2 {
		t.Errorf("NodeByName = %v, %v", n, err)
	}
	if _, err := cluster.NodeByName("ghost"); !errors.Is(err, ErrNoRSU) {
		t.Errorf("err = %v, want ErrNoRSU", err)
	}
}

func TestClusterHandoverThroughTopology(t *testing.T) {
	cluster, _, mwClient, _ := clusterFixture(t)

	// Car 9 drives the motorway abnormally.
	for i := 0; i < 4; i++ {
		sendRecord(t, mwClient, mkRec(9, geo.Motorway, 140, 14))
	}
	if _, err := cluster.StepAll(); err != nil {
		t.Fatal(err)
	}
	// Handover along the connectivity edge 1 -> 2.
	if err := cluster.Handover(9, 1, 2); err != nil {
		t.Fatal(err)
	}
	// The reverse direction is wired too (links connect both ways).
	if err := cluster.Handover(9, 2, 1); err != nil {
		t.Fatal(err)
	}
	// Unknown roads and non-neighbors fail cleanly.
	if err := cluster.Handover(9, 99, 2); !errors.Is(err, ErrNoRSU) {
		t.Errorf("err = %v, want ErrNoRSU", err)
	}
	if err := cluster.Handover(9, 1, 77); !errors.Is(err, ErrNoNeighbor) {
		t.Errorf("err = %v, want ErrNoNeighbor", err)
	}

	link, _ := cluster.NodeByName("Link")
	if _, err := cluster.StepAll(); err != nil {
		t.Fatal(err)
	}
	if link.StoredSummaries() != 1 {
		t.Errorf("link stored %d summaries, want 1", link.StoredSummaries())
	}
	stats := cluster.Stats()
	if stats["Mw"].SummariesSent != 1 {
		t.Errorf("stats = %+v", stats["Mw"])
	}
}

// TestClusterHandoverDeadNode drives the third handover error path: the
// topology knows the neighbor but its broker is dead, so the send fails,
// the drop is accounted, and the history survives for a later retry.
func TestClusterHandoverDeadNode(t *testing.T) {
	f := newBrokerFixture(t)

	for i := 0; i < 4; i++ {
		sendRecord(t, f.mwClient, mkRec(9, geo.Motorway, 140, 14))
	}
	if _, err := f.cluster.StepAll(); err != nil {
		t.Fatal(err)
	}
	if err := f.lkBroker.Close(); err != nil {
		t.Fatal(err)
	}

	err := f.cluster.Handover(9, 1, 2)
	if !errors.Is(err, stream.ErrBrokerClosed) {
		t.Fatalf("handover to dead node: err = %v, want ErrBrokerClosed", err)
	}
	mw, _ := f.cluster.NodeByName("Mw")
	if got := mw.Stats().DroppedHandovers; got != 1 {
		t.Errorf("DroppedHandovers = %d, want 1", got)
	}
	// The history is kept, not consumed: the car is still tracked so a
	// healed link can deliver the summary later.
	if mw.TrackedCars() != 1 {
		t.Errorf("TrackedCars after dropped handover = %d, want 1", mw.TrackedCars())
	}

	// A second attempt against the same dead broker accounts again...
	if err := f.cluster.Handover(9, 1, 2); err == nil {
		t.Fatal("second handover to dead node should fail")
	}
	if got := mw.Stats().DroppedHandovers; got != 2 {
		t.Errorf("DroppedHandovers after retry = %d, want 2", got)
	}
	// ...and a handover with no accumulated history is a clean no-op even
	// with the neighbor down (nothing to send, nothing to drop).
	if err := f.cluster.Handover(555, 1, 2); err != nil {
		t.Errorf("no-history handover = %v, want nil", err)
	}
	if got := mw.Stats().DroppedHandovers; got != 2 {
		t.Errorf("DroppedHandovers after no-op = %d, want 2", got)
	}
}

func TestClusterValidation(t *testing.T) {
	_, link, mwDet, _ := trainedDetectors(t)
	_ = link
	net := geo.NewNetwork(0)
	seg := lineSeg(t, 1, geo.Motorway)
	_ = net.AddSegment(seg)
	client := stream.NewInProcClient(stream.NewBroker(stream.BrokerConfig{}))

	if _, err := NewCluster(nil, []Config{{Road: 1, Detector: mwDet, Client: client}}); err == nil {
		t.Error("want error for nil network")
	}
	if _, err := NewCluster(net, nil); err == nil {
		t.Error("want error for empty configs")
	}
	dup := []Config{
		{Name: "a", Road: 1, Detector: mwDet, Client: client},
		{Name: "b", Road: 1, Detector: mwDet, Client: client},
	}
	if _, err := NewCluster(net, dup); err == nil {
		t.Error("want error for duplicate road")
	}
	c2 := stream.NewInProcClient(stream.NewBroker(stream.BrokerConfig{}))
	seg2 := lineSeg(t, 2, geo.MotorwayLink)
	_ = net.AddSegment(seg2)
	dupName := []Config{
		{Name: "a", Road: 1, Detector: mwDet, Client: client},
		{Name: "a", Road: 2, Detector: mwDet, Client: c2},
	}
	if _, err := NewCluster(net, dupName); err == nil {
		t.Error("want error for duplicate name")
	}
	// Default name assignment.
	ok := []Config{{Road: 1, Detector: mwDet, Client: client}}
	cluster, err := NewCluster(net, ok)
	if err != nil {
		t.Fatal(err)
	}
	if cluster.Nodes()[0].Name() != "rsu-1" {
		t.Errorf("default name = %q", cluster.Nodes()[0].Name())
	}
}

// Run drives every node on the wall clock until the context ends: each
// node's own Node.Run loop, side by side, as a deployment of several RSUs
// in one process would.
func (c *Cluster) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	errs := make([]error, len(c.nodes))
	for i, n := range c.nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			if err := n.Run(ctx); err != nil && !errors.Is(err, context.Canceled) &&
				!errors.Is(err, context.DeadlineExceeded) {
				errs[i] = fmt.Errorf("%s: %w", n.Name(), err)
			}
		}(i, n)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func TestClusterRunWallClock(t *testing.T) {
	cluster, _, mwClient, lkClient := clusterFixture(t)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- cluster.Run(ctx) }()

	sendRecord(t, mwClient, mkRec(1, geo.Motorway, 140, 14))
	sendRecord(t, lkClient, mkRec(2, geo.MotorwayLink, 90, 14))
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		st := cluster.Stats()
		if st["Mw"].Warnings >= 1 && st["Link"].Warnings >= 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := cluster.Stats()
	if st["Mw"].Warnings == 0 || st["Link"].Warnings == 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestClusterLookupsDuringRun reads the cluster's tables from eight
// goroutines while Run steps every node: the tables are built once in
// NewCluster, so the lookups need no lock (the race detector is the
// judge), and Nodes hands out a copy a caller may scribble on.
func TestClusterLookupsDuringRun(t *testing.T) {
	cluster, _, mwClient, _ := clusterFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- cluster.Run(ctx) }()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(car trace.CarID) {
			defer wg.Done()
			for !stop.Load() {
				if n, err := cluster.Node(1); err != nil || n.Name() != "Mw" {
					t.Errorf("Node(1) = %v, %v", n, err)
					return
				}
				if n, err := cluster.NodeByName("Link"); err != nil || n.Road() != 2 {
					t.Errorf("NodeByName(Link) = %v, %v", n, err)
					return
				}
				nodes := cluster.Nodes()
				if len(nodes) != 2 || nodes[0].Road() != 1 || nodes[1].Road() != 2 {
					t.Errorf("Nodes() = %v", nodes)
					return
				}
				nodes[0] = nil
				if err := cluster.Handover(car, 1, 2); err != nil {
					t.Errorf("Handover: %v", err)
					return
				}
			}
		}(trace.CarID(g))
	}

	// Keep the lookups going across several steps that find work.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		st := cluster.Stats()["Mw"]
		if st.Engine.Batches >= 4 && st.Records >= 8 {
			break
		}
		sendRecord(t, mwClient, mkRec(trace.CarID(i%8), geo.Motorway, 140, 14))
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := cluster.Stats()["Mw"]; st.Engine.Batches < 4 || st.Records < 8 {
		t.Errorf("the lookups overlapped %d steps and %d records, want >= 4 and >= 8", st.Engine.Batches, st.Records)
	}
}
