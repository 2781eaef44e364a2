package city

import (
	"testing"
	"time"

	"cad3/internal/geo"
)

// BenchmarkCityEpisode is the city's per-event cost in isolation: one op
// is a fresh 4-shard x 3-replica driver carrying 10,000 vehicles through
// two virtual minutes of the street network `make city` uses, with a
// replica of every even shard killed and revived on the way. Building the
// driver is outside the timer. ns/event is the figure DESIGN.md §15
// budgets; the benchmark's city-40k workload is the end-to-end view.
func BenchmarkCityEpisode(b *testing.B) {
	net, err := geo.BuildNetwork(geo.BuildConfig{Scale: 0.25, ExtentMeters: 12_000, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	geo.ConnectNearest(net, 2, 1500)
	const span = 2 * time.Minute
	cfg := Config{
		Network: net, Shards: 4, Vehicles: 10_000, Seed: 21, Duration: span,
		Faults: []Fault{
			{At: span / 4, Shard: 0, Replica: 0}, {At: span * 3 / 4, Shard: 0, Replica: 0, Revive: true},
			{At: span / 4, Shard: 2, Replica: 0}, {At: span * 3 / 4, Shard: 2, Replica: 0, Revive: true},
		},
	}
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := NewDriver(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Start(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		n, err := d.Advance(span)
		if err != nil {
			b.Fatal(err)
		}
		events += int64(n)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkCityStart is the fleet spawn city-40k pays at every episode:
// one op is Start on a fresh driver carrying 40,000 vehicles over the
// same street network, which places every vehicle and schedules its
// first move and telemetry events. Building the driver is outside the
// timer.
func BenchmarkCityStart(b *testing.B) {
	net, err := geo.BuildNetwork(geo.BuildConfig{Scale: 0.25, ExtentMeters: 12_000, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	geo.ConnectNearest(net, 2, 1500)
	cfg := Config{Network: net, Shards: 4, Vehicles: 40_000, Seed: 21, Duration: 5 * time.Minute}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := NewDriver(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := d.Start(); err != nil {
			b.Fatal(err)
		}
	}
}
