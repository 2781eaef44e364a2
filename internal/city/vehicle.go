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
// ends, telemetry events at exponential inter-arrival gaps. Each chain's
// event is the vehicle itself, seen as a moveHop or a telemetryHop
// Handler, so scheduling one allocates nothing and firing one loads the
// vehicle's line and no closure; what a hop carries from scheduling to
// firing lives in bound.
type cityVehicle struct {
	// The fields a move hop touches fill the first 64 bytes, one cache
	// line of the fleet's array.
	alongM   float64
	speedMps float64
	// bound is where the pending move event lands: the next site
	// boundary ahead, or the segment length.
	bound float64
	// seg is the road the vehicle is on, as an index into Driver.table,
	// and lengthM that road's length.
	lengthM float64
	// d is the driver the vehicle's events call back into; nil until
	// the vehicle is spawned.
	d     *Driver
	seg   int32
	site  int32 // ID of the serving RSU site
	shard int
	rng   splitmix

	car trace.CarID
	// enteredMs is when the vehicle entered its current shard (dwell
	// accounting for the skew gauges).
	enteredMs int64
	// lastTsMs keeps telemetry timestamps strictly increasing per
	// vehicle, so (car, timestamp) is a unique ledger key.
	lastTsMs int64
	key      []byte // "car-<id>", a view of the fleet's one key array
	// hoSeq numbers this vehicle's shard handovers (ledger key).
	hoSeq int32
	// Pads the value to 128 bytes, so every vehicle's first 64 bytes
	// are one cache line of the array.
	_ [8]byte
}

// moveHop and telemetryHop are a vehicle as the Handler of its move and
// telemetry events. Converting a *cityVehicle to either is free, and a
// pointer Handler is stored in the event as it is.
type (
	moveHop      cityVehicle
	telemetryHop cityVehicle
)

func (h *moveHop) Fire() {
	v := (*cityVehicle)(h)
	v.d.onMove(v)
}

func (h *telemetryHop) Fire() {
	v := (*cityVehicle)(h)
	v.d.onTelemetry(v)
}

// segEntry is one row of the driver's per-segment table: everything a
// vehicle hop needs about the road it is on, so entering a segment,
// walking to a successor and crossing a site boundary make no map or
// partition lookup.
type segEntry struct {
	seg     *geo.Segment
	lengthM float64
	// row is the segment's RSU sites in along order and shards the shard
	// of each.
	row    []geo.RSUSite
	shards []int
	// next holds the successor segments' table indices, in Connect order.
	next []int32
}

// newSegTable builds the per-segment table in segment ID order, the
// order a spawn or dead-end teleport draws from.
func newSegTable(part *geo.CityPartition) []segEntry {
	segs := part.Net.AllSegments()
	index := make(map[geo.SegmentID]int32, len(segs))
	for i, seg := range segs {
		index[seg.ID] = int32(i)
	}
	table := make([]segEntry, len(segs))
	for i, seg := range segs {
		e := &table[i]
		e.seg, e.lengthM = seg, seg.LengthMeters()
		e.row = part.SitesOf(seg.ID)
		e.shards = make([]int, len(e.row))
		for j, site := range e.row {
			e.shards[j] = part.ShardOfSite(site.ID)
		}
		for _, id := range part.Net.Successors(seg.ID) {
			e.next = append(e.next, index[id])
		}
	}
	return table
}

// minMoveMeters clamps a movement hop so boundary epsilons cannot
// schedule zero-length event storms.
const minMoveMeters = 0.5

// spawnVehicles places the fleet uniformly over the network and starts
// each vehicle's movement and telemetry event chains. The keys share one
// array and the events are the vehicles themselves, so a vehicle
// allocates nothing of its own. A vehicle keeps exactly two events
// pending, so the far heap, grown once here to twice the fleet, never
// regrows in the spawn or the run.
func (d *Driver) spawnVehicles() {
	n := d.cfg.Vehicles
	d.vehicles = make([]cityVehicle, n)
	keys := make([]byte, 0, n*len("car-")+n*len(strconv.Itoa(n)))
	d.sim.Grow(2 * n)
	for i := range d.vehicles {
		v := &d.vehicles[i]
		v.car = trace.CarID(i + 1)
		v.rng = newSplitmix(d.rng.next())
		d.enterSegment(v, v.rng.intn(len(d.table)))
		e := &d.table[v.seg]
		v.alongM = v.rng.float() * v.lengthM
		v.refreshSpeed(e.seg.Type)
		j, ok := geo.NearestSite(e.row, v.alongM)
		if !ok {
			// Every segment gets >= 1 site at partitioning; unreachable.
			continue
		}
		v.site = int32(e.row[j].ID)
		v.shard = e.shards[j]
		v.enteredMs = d.nowMs()
		at := len(keys)
		keys = strconv.AppendInt(append(keys, "car-"...), int64(i+1), 10)
		v.key = keys[at:len(keys):len(keys)]
		v.d = d
		d.scheduleMove(v)
		d.scheduleTelemetry(v)
	}
}

// enterSegment puts the vehicle at the start of table entry seg.
func (d *Driver) enterSegment(v *cityVehicle, seg int) {
	v.alongM = 0
	v.seg = int32(seg)
	v.lengthM = d.table[seg].lengthM
}

// refreshSpeed redraws the vehicle's speed for its segment: 75%..125%
// of the road-type limit.
func (v *cityVehicle) refreshSpeed(t geo.RoadType) {
	limit := t.SpeedLimitKmh()
	v.speedMps = limit * (0.75 + 0.5*v.rng.float()) / 3.6
	if v.speedMps < 1 {
		v.speedMps = 1
	}
}

// nextBoundary returns the along-track position of the next RSU site
// boundary ahead of the vehicle on row (the midpoint between consecutive
// site centers), or the segment length when the rest of the segment is
// one coverage stretch.
func (v *cityVehicle) nextBoundary(row []geo.RSUSite) float64 {
	for i := 0; i+1 < len(row); i++ {
		mid := (row[i].AlongMeters + row[i+1].AlongMeters) / 2
		if mid > v.alongM+1e-6 {
			return mid
		}
	}
	return v.lengthM
}

// scheduleMove schedules the vehicle's next site-boundary or
// segment-end crossing. Each firing reschedules the next, so a vehicle
// costs O(crossings) events, not O(ticks).
func (d *Driver) scheduleMove(v *cityVehicle) {
	v.bound = v.nextBoundary(d.table[v.seg].row)
	dist := v.bound - v.alongM
	if dist < minMoveMeters {
		dist = minMoveMeters
	}
	dt := time.Duration(dist / v.speedMps * float64(time.Second))
	if dt < time.Millisecond {
		dt = time.Millisecond
	}
	d.sim.AfterHandler(dt, (*moveHop)(v))
}

// onMove lands the pending hop: onto the next segment when it reached
// the end of this one, just past the site boundary otherwise.
func (d *Driver) onMove(v *cityVehicle) {
	if v.bound >= v.lengthM-1e-6 {
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
	var next int
	if succ := d.table[v.seg].next; len(succ) > 0 {
		next = int(succ[v.rng.intn(len(succ))])
	} else {
		next = v.rng.intn(len(d.table))
		d.m.routeResets.Inc()
	}
	d.enterSegment(v, next)
	v.refreshSpeed(d.table[next].seg.Type)
}

// relocate re-map-matches the vehicle after a move and runs the
// handover protocol on site and shard crossings.
func (d *Driver) relocate(v *cityVehicle) {
	e := &d.table[v.seg]
	i, ok := geo.NearestSite(e.row, v.alongM)
	if !ok || e.row[i].ID == int(v.site) {
		return
	}
	v.site = int32(e.row[i].ID)
	d.m.siteHandovers.Inc()
	if next := e.shards[i]; next != v.shard {
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

	v.shard = dst
	sum, live, ok := src.summarizeForHandover(v.car)
	if !ok {
		d.m.handoverEmpty.Inc()
		return
	}
	seq := v.hoSeq
	v.hoSeq++
	// Key then summary in the driver's scratch; Forward copies both.
	buf, err := core.AppendSummary(appendHandoverKey(d.scratch[:0], v.car, seq), sum)
	d.scratch = buf
	if err == nil {
		err = d.router.Forward(d.shards[dst].name, buf[:handoverKeySize], buf[handoverKeySize:])
	}
	if err != nil {
		// The source keeps the history, as rsu.Node.Handover does.
		d.m.handoverRefused.Inc()
		return
	}
	if live {
		src.builder.Forget(v.car)
	}
	d.hoLedger[hoKey{car: v.car, seq: seq}] = hoRow{dst: dst}
	d.m.handoverSummaries.Inc()
}

// scheduleTelemetry schedules the vehicle's next telemetry emission at
// an exponential gap over the combined probe + abnormal-event rate.
func (d *Driver) scheduleTelemetry(v *cityVehicle) {
	rate := d.cfg.EventsPerVehicleHour + d.cfg.ProbesPerVehicleHour
	d.sim.AfterHandler(v.rng.expGap(rate), (*telemetryHop)(v))
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
	seg := d.table[v.seg].seg
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
	pos := seg.PointAt(v.alongM / maxf(v.lengthM, 1e-9))
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
	d.shards[v.shard].produce(stream.TopicInData, v.key, d.scratch, k, true)
}

// ackTelemetry marks a ledgered telemetry record acked.
func (d *Driver) ackTelemetry(k warnKey) {
	row := d.warnLedger[k]
	row.acked = true
	d.warnLedger[k] = row
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
