package trace

import (
	"testing"

	"cad3/internal/geo"
)

func TestDatasetStatsShape(t *testing.T) {
	net, ds := generateSmallDataset(t, 30, 2)
	recs, err := DeriveRecords(net, ds.Trajectories, DeriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := FilterRecords(recs)
	rows := DatasetStats(clean, []geo.RoadType{geo.Motorway, geo.MotorwayLink})
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	all := rows[0]
	if all.Region != "Shenzhen" || all.Cars == 0 || all.Trajectories == 0 {
		t.Errorf("city row = %+v", all)
	}
	for _, r := range rows[1:] {
		if r.Trajectories > all.Trajectories {
			t.Errorf("%s trajectories %d exceed city total %d", r.Region, r.Trajectories, all.Trajectories)
		}
		if r.Cars > all.Cars {
			t.Errorf("%s cars %d exceed city total %d", r.Region, r.Cars, all.Cars)
		}
	}
	if all.MeanSpeedKmh <= 0 || all.MeanSpeedKmh > 150 {
		t.Errorf("city mean speed %.1f implausible", all.MeanSpeedKmh)
	}
}

func TestSpeedSeriesReflectsRushHour(t *testing.T) {
	net, err := geo.BuildNetwork(geo.BuildConfig{Scale: 0.02, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(GeneratorConfig{
		Network: net, Cars: 300, Seed: 3,
		AggressiveFraction: -1, // default 0.30
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := g.Generate()
	recs, err := DeriveRecords(net, ds.Trajectories, DeriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := FilterRecords(recs)
	series := SpeedSeries(clean, geo.Motorway, false)
	// Weekday rush hour (8h) must be visibly slower than late evening (22h).
	if series[8] == 0 || series[22] == 0 {
		t.Skip("not enough motorway samples in small dataset")
	}
	if series[8] >= series[22] {
		t.Errorf("rush-hour speed %.1f >= evening speed %.1f; Figure 2 dip missing", series[8], series[22])
	}
}

func TestAnomalyShare(t *testing.T) {
	recs := []Record{{Anomalous: true}, {}, {}, {Anomalous: true}}
	if got := AnomalyShare(recs); got != 0.5 {
		t.Errorf("AnomalyShare = %v, want 0.5", got)
	}
	if got := AnomalyShare(nil); got != 0 {
		t.Errorf("AnomalyShare(nil) = %v", got)
	}
}

func TestRecordsOfTypeAndSort(t *testing.T) {
	recs := []Record{
		{RoadType: geo.Motorway, TimestampMs: 3},
		{RoadType: geo.MotorwayLink, TimestampMs: 1},
		{RoadType: geo.Motorway, TimestampMs: 2},
	}
	mw := RecordsOfType(recs, geo.Motorway)
	if len(mw) != 2 {
		t.Fatalf("len = %d, want 2", len(mw))
	}
	SortRecordsByTime(recs)
	if recs[0].TimestampMs != 1 || recs[2].TimestampMs != 3 {
		t.Errorf("sort order wrong: %+v", recs)
	}
}

func TestSplitByCarKeepsCarsTogether(t *testing.T) {
	recs := make([]Record, 200)
	for i := range recs {
		recs[i] = Record{Car: CarID(i % 20)}
	}
	sp := SplitByCar(recs, 0.8, 3)
	trainCars := make(map[CarID]bool)
	for _, r := range sp.Train {
		trainCars[r.Car] = true
	}
	for _, r := range sp.Test {
		if trainCars[r.Car] {
			t.Fatalf("car %d appears in both train and test", r.Car)
		}
	}
	if len(sp.Train)+len(sp.Test) != len(recs) {
		t.Errorf("records lost in split")
	}
}

func TestHourlyMeansFigure2Shape(t *testing.T) {
	p := DefaultSpeedProfile()
	mw := p.HourlyMeans(geo.Motorway, false)
	lk := p.HourlyMeans(geo.MotorwayLink, false)
	for h := 0; h < 24; h++ {
		if mw[h] <= lk[h] {
			t.Errorf("hour %d: motorway mean %.1f <= link mean %.1f", h, mw[h], lk[h])
		}
	}
	// Weekday rush dip deeper than weekend (Figure 2).
	wkd := p.HourlyMeans(geo.Motorway, false)
	wke := p.HourlyMeans(geo.Motorway, true)
	if wkd[8] >= wke[8] {
		t.Errorf("weekday rush %.1f should dip below weekend %.1f", wkd[8], wke[8])
	}
	if !IsRushHour(8) || !IsRushHour(18) || IsRushHour(3) {
		t.Error("IsRushHour misclassifies")
	}
}

func TestSummarizeTrips(t *testing.T) {
	trips := []Trip{
		{MileageM: 1000, FuelML: 80, PeriodS: 120},
		{MileageM: 3000, FuelML: 240, PeriodS: 360},
	}
	s := SummarizeTrips(trips)
	if s.Trips != 2 || s.MeanMileageM != 2000 || s.MeanFuelML != 160 || s.MeanPeriodS != 240 {
		t.Errorf("summary = %+v", s)
	}
	if s.TotalMileageKm != 4 {
		t.Errorf("total = %v km", s.TotalMileageKm)
	}
	if z := SummarizeTrips(nil); z.Trips != 0 || z.MeanMileageM != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}

// TestRecordsOfTypeSharesContiguousRuns: a type whose records are one run
// of the input comes back as that run, capacity clipped so appending to
// it cannot overwrite the input; a scattered type is copied in order.
func TestRecordsOfTypeSharesContiguousRuns(t *testing.T) {
	recs := []Record{
		{Car: 1, RoadType: geo.Motorway}, {Car: 2, RoadType: geo.MotorwayLink},
		{Car: 3, RoadType: geo.MotorwayLink}, {Car: 4, RoadType: geo.Motorway},
	}
	link := RecordsOfType(recs, geo.MotorwayLink)
	if len(link) != 2 || &link[0] != &recs[1] || cap(link) != 2 {
		t.Fatalf("link run: len %d cap %d, want a 2-record view of the input", len(link), cap(link))
	}
	_ = append(link, Record{Car: 9})
	if recs[3].Car != 4 {
		t.Fatal("appending to the run overwrote the input")
	}
	mw := RecordsOfType(recs, geo.Motorway)
	if len(mw) != 2 || mw[0].Car != 1 || mw[1].Car != 4 || &mw[0] == &recs[0] {
		t.Fatalf("scattered motorway records = %+v, want a copy of cars 1 and 4", mw)
	}
	if got := RecordsOfType(recs, geo.Trunk); got != nil {
		t.Fatalf("absent type = %+v, want nil", got)
	}
}
