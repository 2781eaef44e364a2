package city

import (
	"reflect"
	"testing"
	"time"

	"cad3/internal/geo"
	"cad3/internal/obsv"
)

// testNetwork builds a small deterministic synthetic city, densified so
// random walks keep moving.
func testNetwork(t *testing.T, seed int64) *geo.Network {
	t.Helper()
	net, err := geo.BuildNetwork(geo.BuildConfig{Scale: 0.05, ExtentMeters: 6000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if added := geo.ConnectNearest(net, 2, 1500); added == 0 {
		t.Fatal("ConnectNearest added no connections")
	}
	return net
}

func testConfig(t *testing.T, net *geo.Network) Config {
	t.Helper()
	return Config{
		Network:    net,
		Shards:     4,
		CellMeters: 1000,
		Vehicles:   150,
		Seed:       7,
		Duration:   3 * time.Minute,
		// High rates so a short run still exercises every path.
		EventsPerVehicleHour: 30,
		ProbesPerVehicleHour: 60,
	}
}

func runCity(t *testing.T, cfg Config) *Report {
	t.Helper()
	d, err := NewDriver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCityRunSettlesClean is the tentpole invariant at unit scale: a
// multi-shard run with live handover traffic settles with zero warnings
// lost or double-counted and zero handover summaries lost, duplicated
// or misrouted.
func TestCityRunSettlesClean(t *testing.T) {
	rep := runCity(t, testConfig(t, testNetwork(t, 1)))
	if rep.Telemetry == 0 || rep.Abnormal == 0 {
		t.Fatalf("no traffic: %+v", rep)
	}
	if rep.Handovers == 0 {
		t.Fatal("no shard handovers in a 4-shard city run")
	}
	if rep.HandoverSummaries == 0 {
		t.Fatal("no summaries crossed shards")
	}
	if rep.WarningsDelivered == 0 {
		t.Fatal("no warnings delivered")
	}
	if !rep.SettlementClean() {
		t.Fatalf("settlement dirty:\n%s", rep)
	}
	if rep.TelemetryUnacked != 0 {
		t.Fatalf("telemetry unacked without faults: %d", rep.TelemetryUnacked)
	}
	if rep.PriorHits == 0 {
		t.Fatal("no collaborative prior hits: handed-over summaries never consulted")
	}
	if rep.SiteHandovers < rep.Handovers {
		t.Fatalf("site handovers %d < shard handovers %d", rep.SiteHandovers, rep.Handovers)
	}
}

// TestCityDeterministicReport: identical config and seed produce
// byte-identical reports — the property every scenario replay and
// regression seed depends on.
func TestCityDeterministicReport(t *testing.T) {
	a := runCity(t, testConfig(t, testNetwork(t, 1)))
	b := runCity(t, testConfig(t, testNetwork(t, 1)))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
	c := func() Config {
		cfg := testConfig(t, testNetwork(t, 1))
		cfg.Seed = 8
		return cfg
	}()
	if reflect.DeepEqual(a, runCity(t, c)) {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestCityGoldenDigest pins the simulation itself, not just its
// self-consistency: the counts below were captured at the commit before
// the typed event queue, the cached per-vehicle closures and the
// leader-push replication path went in (PR 13), so any change to which
// event fires when — a different tie-break in the queue, a reordered
// reschedule, a replication call that shifts an election — fails here
// loudly instead of passing as "still deterministic". A change that
// means to alter the simulation updates the digest and says why.
func TestCityGoldenDigest(t *testing.T) {
	cfg := testConfig(t, testNetwork(t, 1))
	cfg.Shards = 2
	cfg.Vehicles = 2000
	cfg.Duration = 2 * time.Minute
	cfg.Faults = []Fault{
		// Off the one-second tick, so each kill opens a leaderless
		// window in which produces are refused and retried.
		{At: 30*time.Second + 250*time.Millisecond, Shard: 0, Replica: 0},
		{At: 40*time.Second + 50*time.Millisecond, Shard: 1, Replica: 1},
		{At: 90 * time.Second, Shard: 0, Replica: 0, Revive: true},
		{At: 100 * time.Second, Shard: 1, Replica: 1, Revive: true},
	}
	rep := runCity(t, cfg)
	if !rep.SettlementClean() || rep.TelemetryUnacked != 0 {
		t.Fatalf("settlement dirty:\n%s", rep)
	}
	got := map[string]int64{
		"events":              rep.SimEvents,
		"telemetry":           rep.Telemetry,
		"handovers":           rep.Handovers,
		"summaries_forwarded": rep.HandoverSummaries,
		"summaries_applied":   rep.HandoverApplied,
		"warnings_delivered":  rep.WarningsDelivered,
		"elections":           rep.Elections,
		"site_handovers":      rep.SiteHandovers,
		"prior_hits":          rep.PriorHits,
		"produce_retries":     rep.ProduceRetries,
	}
	want := map[string]int64{
		"events":              16842,
		"telemetry":           6015,
		"handovers":           3241,
		"summaries_forwarded": 1995,
		"summaries_applied":   1995,
		"warnings_delivered":  1956,
		"elections":           9,
		"site_handovers":      8183,
		"prior_hits":          1713,
		"produce_retries":     43,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("city digest moved:\n got  %v\n want %v", got, want)
	}
}

// TestCityLeaderKillZeroLoss kills one replica of two shards mid-run
// (leaderless windows + elections) and revives them later: the
// settlement must still be clean — acked telemetry and ledgered
// handovers survive broker failover.
func TestCityLeaderKillZeroLoss(t *testing.T) {
	cfg := testConfig(t, testNetwork(t, 1))
	cfg.Faults = []Fault{
		{At: 30 * time.Second, Shard: 0, Replica: 0},
		{At: 45 * time.Second, Shard: 1, Replica: 0},
		{At: 90 * time.Second, Shard: 0, Replica: 0, Revive: true},
		{At: 2 * time.Minute, Shard: 1, Replica: 0, Revive: true},
	}
	rep := runCity(t, cfg)
	if rep.Elections == 0 {
		t.Fatal("killed two leaders, saw no elections")
	}
	if !rep.SettlementClean() {
		t.Fatalf("settlement dirty after failover:\n%s", rep)
	}
	if rep.TelemetryUnacked != 0 {
		t.Fatalf("telemetry never acked after revival: %d", rep.TelemetryUnacked)
	}
}

// TestCityLoadSkewBounded: with position-cell sharding the per-shard
// dwell load stays within a small factor of the median even at unit
// scale (the scaled acceptance gate is 1.5x; small fleets are noisier).
func TestCityLoadSkewBounded(t *testing.T) {
	rep := runCity(t, testConfig(t, testNetwork(t, 1)))
	if rep.DwellMedianMs == 0 {
		t.Fatalf("no dwell recorded: %+v", rep.ShardDwellMs)
	}
	if skew := rep.Skew(); skew > 3.0 {
		t.Fatalf("shard dwell skew %.2fx > 3.0x: %v", skew, rep.ShardDwellMs)
	}
	for i, d := range rep.ShardDwellMs {
		if d == 0 {
			t.Fatalf("shard %d saw no vehicles: %v", i, rep.ShardDwellMs)
		}
	}
}

// TestCityMetricsExported: supplying a registry exposes the city.* and
// shard.* family, and the gauges agree with the report.
func TestCityMetricsExported(t *testing.T) {
	reg := obsv.NewRegistry()
	cfg := testConfig(t, testNetwork(t, 1))
	cfg.Metrics = reg
	rep := runCity(t, cfg)
	snap := snapshotMap(reg)
	for _, name := range []string{
		"city.telemetry", "city.warnings", "city.handovers",
		"city.handover_applied", "shard.skew_x1000", "shard.dwell_max_ms",
		"repl.follower_fetches", "shard.router.sent",
	} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("metric %q not exported", name)
		}
	}
	if snap["city.telemetry"] != rep.Telemetry {
		t.Fatalf("city.telemetry gauge %d != report %d", snap["city.telemetry"], rep.Telemetry)
	}
	if snap["city.handover_applied"] != rep.HandoverApplied {
		t.Fatal("handover_applied mismatch between registry and report")
	}
}

func snapshotMap(reg *obsv.Registry) map[string]int64 {
	out := make(map[string]int64)
	snap := reg.Snapshot()
	for name, v := range snap.Counters {
		out[name] = v
	}
	for name, v := range snap.Gauges {
		out[name] = v
	}
	return out
}

// TestCityDriverRunsOnce: a Driver refuses a second Run.
func TestCityDriverRunsOnce(t *testing.T) {
	d, err := NewDriver(testConfig(t, testNetwork(t, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

// TestCityConfigValidation: a missing network is refused.
func TestCityConfigValidation(t *testing.T) {
	if _, err := NewDriver(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}
