package city

// Stepping API: the scenario harness drives a city Driver round by
// round (Start, then Advance per 50 ms window) instead of letting Run
// replay the whole span at once, injects faults at round boundaries
// (InjectFault, RewireRouter) and audits the settlement ledgers without
// consuming them (Audit). Run and the stepping calls share every
// invariant — same event scheduling, same ledgers — so a property the
// acceptance study proves holds under scenario-driven chaos too.

import (
	"fmt"
	"time"

	"cad3/internal/stream"
)

// Advance runs the virtual clock forward by dt, executing every due
// event, and returns the number of events executed. The driver must be
// Started and dt must keep the clock inside the configured Duration —
// past it the shard cadences have stopped rescheduling and the city
// would go silent rather than fail loudly.
func (d *Driver) Advance(dt time.Duration) (int, error) {
	if !d.started {
		return 0, fmt.Errorf("city: Advance before Start")
	}
	target := d.sim.Now().Add(dt)
	if target.After(d.end) {
		return 0, fmt.Errorf("city: Advance past the configured duration (%v past end)", target.Sub(d.end))
	}
	return d.sim.RunUntil(target), nil
}

// InjectFault applies one replica kill or revive immediately (the
// scheduled-fault path validates and fires the same way; this is the
// round-boundary entry point for the scenario harness).
func (d *Driver) InjectFault(f Fault) error {
	if f.Shard < 0 || f.Shard >= len(d.shards) || f.Replica < 0 || f.Replica >= d.cfg.Replicas {
		return fmt.Errorf("city: fault out of range: %+v", f)
	}
	d.shards[f.Shard].applyFault(f)
	return nil
}

// Shards returns the shard count (fault fan-out for callers that storm
// every shard at once).
func (d *Driver) Shards() int { return len(d.shards) }

// RewireRouter re-registers every shard's router destination through
// wrap — the chaos-injection point: wrap the real client in one that
// refuses produces with some probability and the inter-shard handover
// link becomes lossy, while the router's at-least-once retry and the
// receiver-side dedup keep the settlement ledger clean. The router
// keeps each destination's queued backlog across the swap; wrap(nil)
// semantics are not supported — wrap must return a usable client.
func (d *Driver) RewireRouter(wrap func(dest string, c stream.Client) stream.Client) error {
	for _, s := range d.shards {
		c := wrap(s.name, s.rs.Client(stream.AckAll))
		if err := d.router.Register(s.name, c); err != nil {
			return err
		}
	}
	return nil
}

// Audit is a non-destructive settlement snapshot: the same sweep
// settle() runs once at the end of a run, computed against the current
// ledger state without touching the metric counters. Mid-run, in-flight
// work legitimately shows up as "lost" or "unacked" — callers gate the
// loss fields on InFlight() == 0 after a Drain.
type Audit struct {
	// TelemetryUnacked counts ledgered records whose produce ack never
	// arrived.
	TelemetryUnacked int64
	// WarningsLost counts acked abnormal records that produced no
	// delivered warning.
	WarningsLost int64
	// WarningsDup counts extra deliveries of the same warning.
	WarningsDup int64
	// FalseWarnings counts delivered warnings for normal records.
	FalseWarnings int64
	// HandoverLost counts ledgered handover summaries never applied by
	// their destination shard.
	HandoverLost int64
	// HandoverForwarded and HandoverApplied size the handover ledger.
	HandoverForwarded int64
	HandoverApplied   int64
}

// Audit sweeps both settlement ledgers without consuming them.
func (d *Driver) Audit() Audit {
	var a Audit
	for _, row := range d.warnLedger {
		if !row.acked {
			a.TelemetryUnacked++
			continue
		}
		n := row.seen
		if row.abnormal {
			if n == 0 {
				a.WarningsLost++
			} else if n > 1 {
				a.WarningsDup += int64(n - 1)
			}
		} else if n > 0 {
			a.FalseWarnings += int64(n)
		}
	}
	for _, row := range d.hoLedger {
		a.HandoverForwarded++
		if row.applied == 0 {
			a.HandoverLost++
		} else {
			a.HandoverApplied++
		}
	}
	return a
}
