package city

import (
	"strconv"
	"time"

	"cad3/internal/core"
	"cad3/internal/geo"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// cityVehicle is one simulated vehicle, event-driven: it owns no
// goroutine and no route — just a position on the network, a tiny PRNG,
// and the shard its telemetry currently streams to. Two event chains
// advance it: movement events fire at RSU site boundaries and segment
// ends, telemetry events at exponential inter-arrival gaps. Both chains
// reschedule the same func() value every time (move, telemetry, built
// once at spawn), so a firing allocates nothing; what a hop carries from
// scheduling to firing lives in bound.
type cityVehicle struct {
	car trace.CarID
	rng splitmix

	// segment is the road the vehicle is on and row its RSU sites in
	// along order, looked up once on segment entry (enterSegment)
	// instead of on every hop.
	segment  *geo.Segment
	row      []geo.RSUSite
	alongM   float64
	speedMps float64
	// bound is where the pending move event lands: the next site
	// boundary ahead, or the segment length.
	bound float64

	move, telemetry func()

	site  geo.RSUSite
	shard int
	// enteredMs is when the vehicle entered its current shard (dwell
	// accounting for the skew gauges).
	enteredMs int64

	// hoSeq numbers this vehicle's shard handovers (ledger key).
	hoSeq int32
	// lastTsMs keeps telemetry timestamps strictly increasing per
	// vehicle, so (car, timestamp) is a unique ledger key.
	lastTsMs int64

	keyBuf []byte // "car-<id>", reused for every produce
}

// minMoveMeters clamps a movement hop so boundary epsilons cannot
// schedule zero-length event storms.
const minMoveMeters = 0.5

// spawnVehicles places the fleet uniformly over the network and starts
// each vehicle's movement and telemetry event chains.
func (d *Driver) spawnVehicles() {
	d.vehicles = make([]*cityVehicle, d.cfg.Vehicles)
	for i := range d.vehicles {
		v := &cityVehicle{
			car: trace.CarID(i + 1),
			rng: newSplitmix(d.rng.next()),
		}
		d.enterSegment(v, d.segs[v.rng.intn(len(d.segs))])
		v.alongM = v.rng.float() * v.segment.LengthMeters()
		v.refreshSpeed()
		site, ok := geo.NearestSite(v.row, v.alongM)
		if !ok {
			// Every segment gets >= 1 site at partitioning; unreachable.
			continue
		}
		v.site = site
		v.shard = d.part.ShardOfSite(site.ID)
		v.enteredMs = d.nowMs()
		v.keyBuf = append([]byte("car-"), strconv.Itoa(i+1)...)
		v.move = func() { d.onMove(v) }
		v.telemetry = func() { d.onTelemetry(v) }
		d.vehicles[i] = v
		d.scheduleMove(v)
		d.scheduleTelemetry(v)
	}
}

// enterSegment puts the vehicle at the start of seg and caches what
// every hop along it needs.
func (d *Driver) enterSegment(v *cityVehicle, seg geo.SegmentID) {
	v.alongM = 0
	v.segment = d.part.Net.Segment(seg)
	v.row = d.part.SitesOf(seg)
}

// refreshSpeed redraws the vehicle's speed for its segment: 75%..125%
// of the road-type limit.
func (v *cityVehicle) refreshSpeed() {
	limit := v.segment.Type.SpeedLimitKmh()
	v.speedMps = limit * (0.75 + 0.5*v.rng.float()) / 3.6
	if v.speedMps < 1 {
		v.speedMps = 1
	}
}

// nextBoundary returns the along-track position of the next RSU site
// boundary ahead of the vehicle (the midpoint between consecutive site
// centers), or the segment length when the rest of the segment is one
// coverage stretch.
func (v *cityVehicle) nextBoundary() float64 {
	row := v.row
	for i := 0; i+1 < len(row); i++ {
		mid := (row[i].AlongMeters + row[i+1].AlongMeters) / 2
		if mid > v.alongM+1e-6 {
			return mid
		}
	}
	return v.segment.LengthMeters()
}

// scheduleMove schedules the vehicle's next site-boundary or
// segment-end crossing. Each firing reschedules the next, so a vehicle
// costs O(crossings) events, not O(ticks).
func (d *Driver) scheduleMove(v *cityVehicle) {
	v.bound = v.nextBoundary()
	dist := v.bound - v.alongM
	if dist < minMoveMeters {
		dist = minMoveMeters
	}
	dt := time.Duration(dist / v.speedMps * float64(time.Second))
	if dt < time.Millisecond {
		dt = time.Millisecond
	}
	d.sim.After(dt, v.move)
}

// onMove lands the pending hop: onto the next segment when it reached
// the end of this one, just past the site boundary otherwise.
func (d *Driver) onMove(v *cityVehicle) {
	if v.bound >= v.segment.LengthMeters()-1e-6 {
		d.advanceSegment(v)
	} else {
		v.alongM = v.bound + 0.01
	}
	d.relocate(v)
	if d.sim.Now().Before(d.end) {
		d.scheduleMove(v)
	}
}

// advanceSegment walks the vehicle onto a successor segment, or
// teleports it to a random one at a dead end (counted — the synthetic
// graph keeps these rare after densification).
func (d *Driver) advanceSegment(v *cityVehicle) {
	next, ok := d.part.Net.NextSegment(v.segment.ID, v.rng.intn)
	if !ok {
		next = d.segs[v.rng.intn(len(d.segs))]
		d.m.routeResets.Inc()
	}
	d.enterSegment(v, next)
	v.refreshSpeed()
}

// relocate re-map-matches the vehicle after a move and runs the
// handover protocol on site and shard crossings.
func (d *Driver) relocate(v *cityVehicle) {
	site, ok := geo.NearestSite(v.row, v.alongM)
	if !ok || site.ID == v.site.ID {
		return
	}
	v.site = site
	d.m.siteHandovers.Inc()
	if next := d.part.ShardOfSite(site.ID); next != v.shard {
		d.handover(v, next)
	}
}

// handover moves a vehicle's stream affinity between shards: dwell is
// settled against the source shard, the in-flight CO-DATA summary is
// forwarded through the router, and the transfer is entered into the
// settlement ledger.
func (d *Driver) handover(v *cityVehicle, dst int) {
	src := d.shards[v.shard]
	now := d.nowMs()
	src.dwellMs += now - v.enteredMs
	v.enteredMs = now
	d.m.handovers.Inc()

	if sum, ok := src.summarizeForHandover(v.car); ok {
		seq := v.hoSeq
		v.hoSeq++
		payload, err := core.EncodeSummary(sum)
		if err == nil {
			d.scratch = appendHandoverKey(d.scratch[:0], v.car, seq)
			if d.router.Forward(d.shards[dst].name, d.scratch, payload) == nil {
				d.hoLedger[hoKey{car: v.car, seq: seq}] = &hoRow{dst: dst}
				d.m.handoverSummaries.Inc()
			}
		}
	} else {
		d.m.handoverEmpty.Inc()
	}
	v.shard = dst
}

// scheduleTelemetry schedules the vehicle's next telemetry emission at
// an exponential gap over the combined probe + abnormal-event rate.
func (d *Driver) scheduleTelemetry(v *cityVehicle) {
	rate := d.cfg.EventsPerVehicleHour + d.cfg.ProbesPerVehicleHour
	d.sim.After(v.rng.expGap(rate), v.telemetry)
}

// onTelemetry emits one record and schedules the next.
func (d *Driver) onTelemetry(v *cityVehicle) {
	d.emitTelemetry(v)
	if d.sim.Now().Before(d.end) {
		d.scheduleTelemetry(v)
	}
}

// emitTelemetry produces one telemetry record to the vehicle's current
// shard and books it into the warning ledger: ground truth (was it
// abnormal?) is recorded now, the acked flag flips when the produce
// lands, and settlement holds detection to exactly the acked abnormal
// rows.
func (d *Driver) emitTelemetry(v *cityVehicle) {
	abnormal := v.rng.float()*(d.cfg.EventsPerVehicleHour+d.cfg.ProbesPerVehicleHour) < d.cfg.EventsPerVehicleHour
	seg := v.segment
	limit := seg.Type.SpeedLimitKmh()
	ts := d.nowMs()
	if ts <= v.lastTsMs {
		ts = v.lastTsMs + 1
	}
	v.lastTsMs = ts
	now := d.sim.Now()
	rec := trace.Record{
		Car:           v.car,
		Road:          seg.ID,
		Hour:          now.Hour(),
		Day:           now.Day(),
		RoadType:      seg.Type,
		RoadMeanSpeed: limit * 0.9,
		TimestampMs:   ts,
	}
	pos := seg.PointAt(v.alongM / maxf(seg.LengthMeters(), 1e-9))
	rec.Lat, rec.Lon = pos.Lat, pos.Lon
	if abnormal {
		rec.Accel = d.cfg.AccelThreshold*1.5 + 4*v.rng.float()
		rec.Speed = limit * 1.6
		d.m.abnormal.Inc()
	} else {
		rec.Accel = 2 * v.rng.float()
		rec.Speed = limit * (0.8 + 0.3*v.rng.float())
		d.m.probes.Inc()
	}
	d.m.telemetry.Inc()

	k := warnKey{car: v.car, ts: ts}
	d.warnLedger[k] = warnRow{shard: v.shard, abnormal: abnormal}
	d.scratch = core.AppendRecord(d.scratch[:0], rec)
	d.shards[v.shard].produce(stream.TopicInData, v.keyBuf, d.scratch, func() {
		row := d.warnLedger[k]
		row.acked = true
		d.warnLedger[k] = row
	})
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
