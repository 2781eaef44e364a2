package city

import "sort"

// maxSettleRounds bounds the post-run quiescence loop. Each round is a
// full control-plane tick plus a complete drain, so the bound is only a
// backstop against a partition that never heals.
const maxSettleRounds = 50

// settle runs the end-of-simulation protocol: close out dwell
// accounting, pump the clusters until every queue is dry (two
// consecutive quiet rounds), then sweep the ledgers and publish the
// load gauges.
func (d *Driver) settle() {
	// RunUntil clamps the clock to the deadline, so on the Run path this
	// is exactly d.end; a stepped driver (scenario harness) settles at
	// whatever instant it stopped advancing.
	endMs := d.sim.Now().UnixMilli()
	for i := range d.vehicles {
		v := &d.vehicles[i]
		if v.d == nil { // never spawned
			continue
		}
		d.shards[v.shard].dwellMs += endMs - v.enteredMs
		v.enteredMs = endMs
	}
	d.Drain()
	d.sweepLedgers()
	d.publishLoad()
}

// Drain pumps the whole city — control-plane ticks, a router flush, a
// full drain round on every shard — until two consecutive rounds make
// no progress and no backlog remains (or the round bound trips: a
// cluster that never heals). It does not advance virtual time and does
// not sweep the ledgers, so a stepping caller can drain mid-run and
// keep going. Returns the number of pump rounds executed.
func (d *Driver) Drain() int {
	quiet := 0
	round := 0
	for ; round < maxSettleRounds && quiet < 2; round++ {
		progress := false
		for _, s := range d.shards {
			s.tick()
		}
		if sent, _ := d.router.Flush(); sent > 0 {
			progress = true
		}
		for _, s := range d.shards {
			if s.batch() > 0 {
				progress = true
			}
		}
		if !progress && d.InFlight() == 0 {
			quiet++
		} else {
			quiet = 0
		}
	}
	return round
}

// InFlight counts work still in transit: router-queued handover
// summaries plus every shard's pending (leaderless-window) produces.
func (d *Driver) InFlight() int {
	n := d.router.Pending()
	for _, s := range d.shards {
		n += s.pendingCount()
	}
	return n
}

// sweepLedgers settles both ledgers against what the shards actually
// delivered and applied, adding the audit into the counters.
func (d *Driver) sweepLedgers() {
	a := d.Audit()
	d.m.telemetryUnacked.Add(a.TelemetryUnacked)
	d.m.warningsLost.Add(a.WarningsLost)
	d.m.warningsDup.Add(a.WarningsDup)
	d.m.falseWarnings.Add(a.FalseWarnings)
	d.m.handoverLost.Add(a.HandoverLost)
}

// publishLoad computes the per-shard load spread (dwell milliseconds
// and records processed) and publishes the skew gauges.
func (d *Driver) publishLoad() {
	dwell := make([]int64, len(d.shards))
	records := make([]int64, len(d.shards))
	for i, s := range d.shards {
		dwell[i] = s.dwellMs
		records[i] = s.records
	}
	dMax, dMed := maxMedian(dwell)
	rMax, rMed := maxMedian(records)
	d.m.dwellMax.Set(dMax)
	d.m.dwellMedian.Set(dMed)
	d.m.shardRecordsMax.Set(rMax)
	d.m.shardRecordsMedian.Set(rMed)
	if dMed > 0 {
		d.m.skewX1000.Set(dMax * 1000 / dMed)
	}
}

// maxMedian returns the max and median of a sample (median of an even
// count is the lower middle — a pessimistic skew denominator).
func maxMedian(xs []int64) (max, median int64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sorted := make([]int64, len(xs))
	copy(sorted, xs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)-1], sorted[(len(sorted)-1)/2]
}
