package geo

import (
	"math/rand"
	"testing"
)

func BenchmarkDistanceMeters(b *testing.B) {
	a := ShenzhenCenter
	c := Destination(a, 45, 5000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = DistanceMeters(a, c)
	}
}

func BenchmarkNetworkNearby(b *testing.B) {
	net, err := BuildNetwork(BuildConfig{Scale: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	probes := make([]Point, 256)
	for i := range probes {
		probes[i] = Destination(ShenzhenCenter, rng.Float64()*360, rng.Float64()*20000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Nearby(probes[i%len(probes)], 300)
	}
}

func BenchmarkMapMatch(b *testing.B) {
	net, err := BuildNetwork(BuildConfig{Scale: 0.05, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	seg := net.SegmentsOfType(Motorway)[0]
	rng := rand.New(rand.NewSource(4))
	fixes := make([]Point, 50)
	for i := range fixes {
		p := seg.PointAt(float64(i) / 49)
		fixes[i] = Destination(p, rng.Float64()*360, rng.Float64()*15)
	}
	m := NewMatcher(net, MatcherConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Match(fixes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoute(b *testing.B) {
	net, err := BuildNetwork(BuildConfig{Scale: 0.1, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	mws := net.SegmentsOfType(Motorway)
	links := net.SegmentsOfType(MotorwayLink)
	r := NewRouter(net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Routes may not exist between arbitrary pairs; benchmark the attempt.
		_, _ = r.Route(mws[i%len(mws)].ID, links[i%len(links)].ID)
	}
}

// BenchmarkConnectNearest is street-network densification on the network
// the city benchmark builds (seed 42, scale 0.25, 12 km): one op joins
// every segment of a freshly built network to its two nearest neighbours
// within 1.5 km. Building the network is outside the timer.
func BenchmarkConnectNearest(b *testing.B) {
	cfg := BuildConfig{Scale: 0.25, ExtentMeters: 12_000, Seed: 42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net, err := BuildNetwork(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if ConnectNearest(net, 2, 1500) == 0 {
			b.Fatal("no joins")
		}
	}
}
