package city

import (
	"testing"

	"cad3/internal/stream"
	"cad3/internal/trace"
)

// handoverRig is a driver over the test city with no fleet spawned: its
// handovers are driven one vehicle at a time.
func handoverRig(t *testing.T) *Driver {
	t.Helper()
	cfg := testConfig(t, testNetwork(t, 1))
	cfg.Shards = 2
	d, err := NewDriver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCityRefusedHandoverKeepsHistory: a handover whose summary the
// router refuses (the destination's queue is full) leaves the driver's
// live history at the source, ledgers nothing and is counted as refused,
// so every shard handover is still a summary, an empty one or a refusal.
func TestCityRefusedHandoverKeepsHistory(t *testing.T) {
	d := handoverRig(t)
	src, dst := d.shards[0], d.shards[1]
	key, value := appendHandoverKey(nil, 1, 0), []byte("summary")
	full := 0
	for d.router.Forward(dst.name, key, value) == nil {
		full++
	}
	const car = trace.CarID(42)
	for i := 0; i < 5; i++ {
		src.builder.Observe(car, 0.9)
	}
	before, _ := src.builder.Summarize(car)
	v := &cityVehicle{d: d, car: car, shard: src.id}
	d.handover(v, dst.id)

	if v.shard != dst.id {
		t.Fatalf("vehicle on shard %d after a handover to %d", v.shard, dst.id)
	}
	after, ok := src.builder.Summarize(car)
	if !ok || after.Count != before.Count || after.MeanPNormal != before.MeanPNormal {
		t.Fatalf("history after a refused handover: %+v (ok %t), before %+v", after, ok, before)
	}
	if got := d.m.handoverRefused.Value(); got != 1 {
		t.Fatalf("city.handover_refused = %d, want 1", got)
	}
	if len(d.hoLedger) != 0 {
		t.Fatalf("a refused summary was ledgered: %v", d.hoLedger)
	}
	if h, s, e, r := d.m.handovers.Value(), d.m.handoverSummaries.Value(), d.m.handoverEmpty.Value(), d.m.handoverRefused.Value(); h != s+e+r {
		t.Fatalf("handovers %d != summaries %d + empty %d + refused %d", h, s, e, r)
	}
	if sent, _ := d.router.Flush(); sent != full {
		t.Fatalf("flushed %d of the %d queued entries", sent, full)
	}
}

// TestCityHandoverAllocatesNothing pins a warm shard handover end to end:
// the source summarizes the car's live history, the router copies the
// summary into its arena and flushes it to the destination's broker, and
// the destination lends it out of its CO-DATA log and applies it.
func TestCityHandoverAllocatesNothing(t *testing.T) {
	d := handoverRig(t)
	src, dst := d.shards[0], d.shards[1]
	const car = trace.CarID(42)
	v := &cityVehicle{d: d, car: car}
	hop := func() {
		src.builder.Observe(car, 0.9)
		v.shard = src.id
		d.handover(v, dst.id)
		if sent, err := d.router.Flush(); sent != 1 || err != nil {
			t.Fatalf("flush sent %d, %v", sent, err)
		}
		if n := dst.batch(); n != 1 {
			t.Fatalf("destination drained %d records, want the one summary", n)
		}
	}
	for i := 0; i < 3000; i++ {
		hop() // warm the ledgers, the router's arena and the CO-DATA log
	}
	applied := d.m.handoverApplied.Value()
	allocs := testing.AllocsPerRun(200, hop)
	if got := d.m.handoverApplied.Value() - applied; got != 201 {
		t.Fatalf("%d summaries applied over 201 handovers", got)
	}
	if !stream.PoolGuard && allocs != 0 {
		t.Errorf("warm handover, flush and apply: %v allocs, want 0", allocs)
	}
}
