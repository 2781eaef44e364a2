package trace

import (
	"slices"
	"sort"

	"cad3/internal/geo"
)

// DeriveOptions configures feature derivation.
type DeriveOptions struct {
	// UseMapMatching recovers each fix's road segment from coordinates
	// with the HMM matcher instead of the generator ground truth,
	// exercising the full offline pipeline of the paper. Slower.
	UseMapMatching bool
	// Matcher is required when UseMapMatching is set.
	Matcher *geo.Matcher
}

// DeriveRecords converts raw trajectories into the Table II analysis
// records: instantaneous speed per Equation 4, acceleration as the speed
// delta over time, hour/day context, road type, and the per-road mean
// speed v̄_r. Records for which speed cannot be derived (the last point of
// each trip) are omitted.
//
// The input order does not matter: points are grouped by trip and sorted
// by time internally.
func DeriveRecords(net *geo.Network, points []TrajectoryPoint, opts DeriveOptions) ([]Record, error) {
	grouped, bounds := groupByTrip(points)
	// Every trip yields at most one record fewer than its points.
	records := make([]Record, 0, len(points)-(len(bounds)-1))
	var segIDs []geo.SegmentID
	for t := 1; t < len(bounds); t++ {
		pts := grouped[bounds[t-1]:bounds[t]]
		sort.Slice(pts, func(i, j int) bool { return pts[i].GPSTime.Before(pts[j].GPSTime) })

		segIDs = slices.Grow(segIDs[:0], len(pts))[:len(pts)]
		if opts.UseMapMatching && opts.Matcher != nil {
			fixes := make([]geo.Point, len(pts))
			for i, p := range pts {
				fixes[i] = geo.Point{Lat: p.Lat, Lon: p.Lon}
			}
			projs, err := opts.Matcher.Match(fixes)
			if err != nil {
				// Unmatchable trips (e.g. dominated by teleported fixes)
				// fall back to ground truth; the filter removes the
				// resulting out-of-range records anyway.
				for i, p := range pts {
					segIDs[i] = p.SegmentID
				}
			} else {
				for i, pr := range projs {
					segIDs[i] = pr.SegmentID
				}
			}
		} else {
			for i, p := range pts {
				segIDs[i] = p.SegmentID
			}
		}

		var prevSpeed float64
		var havePrev bool
		for i := 0; i+1 < len(pts); i++ {
			a, b := pts[i], pts[i+1]
			dt := b.GPSTime.Sub(a.GPSTime)
			if dt <= 0 {
				havePrev = false
				continue
			}
			distM := geo.DistanceMeters(
				geo.Point{Lat: a.Lat, Lon: a.Lon},
				geo.Point{Lat: b.Lat, Lon: b.Lon},
			)
			speed := distM / dt.Seconds() * 3.6 // km/h
			accel := 0.0
			if havePrev {
				accel = (speed - prevSpeed) / dt.Seconds()
			}
			prevSpeed, havePrev = speed, true

			seg := net.Segment(segIDs[i])
			if seg == nil {
				continue
			}
			records = append(records, Record{
				Car:   a.Car,
				Road:  seg.ID,
				Accel: accel,
				Speed: speed,
				Lat:   a.Lat,
				Lon:   a.Lon,
				Heading: geo.BearingDeg(
					geo.Point{Lat: a.Lat, Lon: a.Lon},
					geo.Point{Lat: b.Lat, Lon: b.Lon},
				),
				Hour:        a.GPSTime.Hour(),
				Day:         a.GPSTime.Day(),
				RoadType:    seg.Type,
				TimestampMs: a.GPSTime.UnixMilli(),
				Anomalous:   a.Anomalous || b.Anomalous,
			})
		}
	}

	attachRoadMeanSpeed(records)
	return records, nil
}

// groupByTrip copies points into one array grouped by trip, trips in
// ascending ID order and each trip's points in input order: trip t is
// grouped[bounds[t]:bounds[t+1]]. It counts each trip's points first, so
// the array is allocated once at its final size.
func groupByTrip(points []TrajectoryPoint) (grouped []TrajectoryPoint, bounds []int) {
	next := make(map[TripID]int) // a trip's point count, then where its next point goes
	for _, p := range points {
		next[p.Trip]++
	}
	ids := make([]TripID, 0, len(next))
	for id := range next {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	bounds = make([]int, len(ids)+1)
	for t, id := range ids {
		bounds[t+1] = bounds[t] + next[id]
		next[id] = bounds[t]
	}
	grouped = make([]TrajectoryPoint, len(points))
	for _, p := range points {
		grouped[next[p.Trip]] = p
		next[p.Trip]++
	}
	return grouped, bounds
}

// attachRoadMeanSpeed computes v̄_r per road segment over the plausible
// (< MaxPlausibleSpeedKmh) observations and writes it into every record.
func attachRoadMeanSpeed(records []Record) {
	type agg struct {
		sum float64
		n   int
	}
	byRoad := make(map[geo.SegmentID]*agg)
	for _, r := range records {
		if r.Speed < 0 || r.Speed > MaxPlausibleSpeedKmh {
			continue
		}
		a := byRoad[r.Road]
		if a == nil {
			a = &agg{}
			byRoad[r.Road] = a
		}
		a.sum += r.Speed
		a.n++
	}
	for i := range records {
		if a := byRoad[records[i].Road]; a != nil && a.n > 0 {
			records[i].RoadMeanSpeed = a.sum / float64(a.n)
		}
	}
}
