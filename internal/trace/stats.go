package trace

import (
	"sort"

	"cad3/internal/geo"
)

// StatsRow is one row of the Table III reproduction: dataset statistics
// for a region or road-type slice after filtering.
type StatsRow struct {
	Region       string
	Cars         int
	Trips        int
	MeanSpeedKmh float64
	Trajectories int
}

// DatasetStats computes the Table III rows from filtered records: the
// whole-city row plus one row per requested road type.
func DatasetStats(records []Record, roadTypes []geo.RoadType) []StatsRow {
	rows := []StatsRow{statsFor("Shenzhen", records, func(Record) bool { return true })}
	for _, t := range roadTypes {
		t := t
		rows = append(rows, statsFor(t.String(), records, func(r Record) bool { return r.RoadType == t }))
	}
	return rows
}

func statsFor(region string, records []Record, match func(Record) bool) StatsRow {
	cars := make(map[CarID]bool)
	type carDay struct {
		car CarID
		day int
	}
	// Trips are approximated as distinct (car, day) pairs in the record
	// view, since records do not carry trip IDs on the wire. Exact trip
	// counts are available from the Dataset.Trips table.
	tripKeys := make(map[carDay]bool)
	var speedSum float64
	var n int
	for _, r := range records {
		if !match(r) {
			continue
		}
		cars[r.Car] = true
		tripKeys[carDay{car: r.Car, day: r.Day}] = true
		speedSum += r.Speed
		n++
	}
	row := StatsRow{Region: region, Cars: len(cars), Trips: len(tripKeys), Trajectories: n}
	if n > 0 {
		row.MeanSpeedKmh = speedSum / float64(n)
	}
	return row
}

// AnomalyShare returns the fraction of records flagged as ground-truth
// anomalous by the generator.
func AnomalyShare(records []Record) float64 {
	if len(records) == 0 {
		return 0
	}
	var n int
	for _, r := range records {
		if r.Anomalous {
			n++
		}
	}
	return float64(n) / float64(len(records))
}

// SpeedSeries returns the per-hour mean observed speed for a road type,
// split by day class — the measured counterpart of Figure 2.
func SpeedSeries(records []Record, t geo.RoadType, weekend bool) [24]float64 {
	var sum [24]float64
	var cnt [24]int
	for _, r := range records {
		if r.RoadType != t || Weekend(r.Day) != weekend {
			continue
		}
		sum[r.Hour] += r.Speed
		cnt[r.Hour]++
	}
	var out [24]float64
	for h := 0; h < 24; h++ {
		if cnt[h] > 0 {
			out[h] = sum[h] / float64(cnt[h])
		}
	}
	return out
}

// RecordsOfType returns the records on roads of the given type, preserving
// order. When those records are one contiguous run of the input — all of
// it, say — it returns that run of records itself, capacity clipped, so
// filtering a slice that is already filtered or grouped by type copies
// nothing.
func RecordsOfType(records []Record, t geo.RoadType) []Record {
	first, last, n := 0, -1, 0
	for i := range records {
		if records[i].RoadType == t {
			if n == 0 {
				first = i
			}
			last = i
			n++
		}
	}
	switch {
	case n == 0:
		return nil
	case last-first+1 == n:
		return records[first : last+1 : last+1]
	}
	out := make([]Record, 0, n)
	for _, r := range records[first : last+1] {
		if r.RoadType == t {
			out = append(out, r)
		}
	}
	return out
}

// SortRecordsByTime orders records by timestamp (stable), used before
// replaying a dataset through the streaming pipeline.
func SortRecordsByTime(records []Record) {
	sort.SliceStable(records, func(i, j int) bool {
		return records[i].TimestampMs < records[j].TimestampMs
	})
}

// TripSummary describes the distribution of the generated trips table
// (Table I's Mileage / Fuel / Period columns).
type TripSummary struct {
	Trips          int
	MeanMileageM   float64
	MeanFuelML     float64
	MeanPeriodS    float64
	TotalMileageKm float64
}

// SummarizeTrips computes the Table I distribution summary.
func SummarizeTrips(trips []Trip) TripSummary {
	s := TripSummary{Trips: len(trips)}
	if len(trips) == 0 {
		return s
	}
	for _, t := range trips {
		s.MeanMileageM += t.MileageM
		s.MeanFuelML += t.FuelML
		s.MeanPeriodS += t.PeriodS
	}
	s.TotalMileageKm = s.MeanMileageM / 1000
	n := float64(len(trips))
	s.MeanMileageM /= n
	s.MeanFuelML /= n
	s.MeanPeriodS /= n
	return s
}
