package core

import (
	"sync"
	"testing"
	"time"

	"cad3/internal/geo"
	"cad3/internal/mlkit"
	"cad3/internal/trace"
)

// fixture holds the shared corridor dataset: cars driving a motorway ->
// motorway-link route, mirroring the paper's microscopic use case.
type fixture struct {
	net     *geo.Network
	train   []trace.Record
	test    []trace.Record
	labeler *Labeler
}

var (
	fixtureOnce sync.Once
	fixtureVal  fixture
	fixtureErr  error
)

// corridorFixture builds the dataset once per test binary (it is reused by
// many tests).
func corridorFixture(t testing.TB) fixture {
	t.Helper()
	fixtureOnce.Do(func() { fixtureVal, fixtureErr = buildCorridorDataset(600, 123) })
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureVal
}

// Corridor segment IDs, chosen outside the generated network's range.
const (
	corridorMwID   geo.SegmentID = 900001
	corridorLinkID geo.SegmentID = 900002
)

// addCorridor inserts the testbed corridor — a 2 km motorway feeding an
// 800 m motorway link — into the network and returns both segments.
func addCorridor(net *geo.Network) (*geo.Segment, *geo.Segment, error) {
	start := geo.Destination(geo.ShenzhenCenter, 45, 3000)
	mwEnd := geo.Destination(start, 90, 2000)
	mw, err := geo.NewSegment(corridorMwID, geo.Motorway, "corridor-motorway",
		[]geo.Point{start, geo.Midpoint(start, mwEnd), mwEnd})
	if err != nil {
		return nil, nil, err
	}
	lkEnd := geo.Destination(mwEnd, 135, 800)
	lk, err := geo.NewSegment(corridorLinkID, geo.MotorwayLink, "corridor-link",
		[]geo.Point{mwEnd, geo.Midpoint(mwEnd, lkEnd), lkEnd})
	if err != nil {
		return nil, nil, err
	}
	if err := net.AddSegment(mw); err != nil {
		return nil, nil, err
	}
	if err := net.AddSegment(lk); err != nil {
		return nil, nil, err
	}
	if err := net.Connect(mw.ID, lk.ID); err != nil {
		return nil, nil, err
	}
	return mw, lk, nil
}

func buildCorridorDataset(cars int, seed int64) (fixture, error) {
	net, err := geo.BuildNetwork(geo.BuildConfig{Scale: 0.02, Seed: 42})
	if err != nil {
		return fixture{}, err
	}
	// 5 s GPS sampling matches the paper's trajectory sparsity (~84
	// points per trip) and keeps GPS noise from dominating the derived
	// instantaneous speeds.
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Network:            net,
		Cars:               cars,
		Seed:               seed,
		AggressiveFraction: 0.35,
		SampleInterval:     5 * time.Second,
	})
	if err != nil {
		return fixture{}, err
	}

	// Every car drives motorway -> link at least once so handover
	// summaries exist. Like the paper, which "extracted two real roads"
	// for the testbed, we add an explicit corridor: a 2 km motorway
	// feeding an 800 m motorway link.
	mwSeg, linkSeg, err := addCorridor(net)
	if err != nil {
		return fixture{}, err
	}
	mw, link := mwSeg, linkSeg.ID
	var pts []trace.TrajectoryPoint
	var tripID trace.TripID = 1
	for c := 1; c <= cars; c++ {
		day := 1 + (c % 28)
		hour := []int{8, 12, 18, 22}[c%4]
		_, p, err := gen.GenerateTripOn(trace.CarID(c), tripID, []geo.SegmentID{mw.ID, link}, day, hour)
		if err != nil {
			return fixture{}, err
		}
		tripID++
		pts = append(pts, p...)
	}

	// City-wide background traffic over every road type: the centralized
	// baseline trains on "all road vehicular data at once" (§VI-D4), so
	// its pooled distribution must reflect the whole city — dominated by
	// slow primary/secondary/tertiary roads (Table V density) — not just
	// the evaluated corridor.
	bg, err := trace.NewGenerator(trace.GeneratorConfig{
		Network:            net,
		Cars:               cars,
		Seed:               seed + 1,
		TripsPerCar:        4,
		AggressiveFraction: 0.35,
		SampleInterval:     5 * time.Second,
	})
	if err != nil {
		return fixture{}, err
	}
	bgDS, err := bg.Generate()
	if err != nil {
		return fixture{}, err
	}
	// Offset background car IDs past the corridor fleet's.
	for i := range bgDS.Trajectories {
		bgDS.Trajectories[i].Car += trace.CarID(cars)
		bgDS.Trajectories[i].Trip += tripID
	}
	pts = append(pts, bgDS.Trajectories...)
	recs, err := trace.DeriveRecords(net, pts, trace.DeriveOptions{})
	if err != nil {
		return fixture{}, err
	}
	clean, _ := trace.FilterRecords(recs)
	split := trace.SplitByCar(clean, 0.8, seed)
	labeler, err := TrainLabeler(split.Train, 0)
	if err != nil {
		return fixture{}, err
	}
	return fixture{net: net, train: split.Train, test: split.Test, labeler: labeler}, nil
}

// trainAll trains the three models on the fixture, returning them plus the
// evaluation summaries for the test cars (built by replaying the upstream
// motorway model, as the online CO-DATA stream would).
func trainAll(t testing.TB, fx fixture) (*Centralized, *AD3, *CAD3, map[trace.CarID]PredictionSummary) {
	t.Helper()
	central := NewCentralized()
	if err := central.Train(fx.train, fx.labeler); err != nil {
		t.Fatal(err)
	}
	upstream := NewAD3(geo.Motorway)
	if err := upstream.Train(fx.train, fx.labeler); err != nil {
		t.Fatal(err)
	}
	ad3 := NewAD3(geo.MotorwayLink)
	if err := ad3.Train(fx.train, fx.labeler); err != nil {
		t.Fatal(err)
	}
	cad3 := NewCAD3(geo.MotorwayLink, CAD3Config{})
	if err := cad3.Train(fx.train, fx.labeler, upstream); err != nil {
		t.Fatal(err)
	}
	testMw := trace.RecordsOfType(fx.test, geo.Motorway)
	summaries, err := BuildTrainingSummaries(testMw, upstream)
	if err != nil {
		t.Fatal(err)
	}
	return central, ad3, cad3, summaries
}

// TestModelOrderingFigure7 reproduces the paper's headline comparison:
// on the motorway-link RSU, CAD3 beats AD3 beats centralized in F1 and
// accuracy (Figure 7) and in FN rate (Table IV).
func TestModelOrderingFigure7(t *testing.T) {
	fx := corridorFixture(t)
	central, ad3, cad3, summaries := trainAll(t, fx)
	testLink := trace.RecordsOfType(fx.test, geo.MotorwayLink)
	if len(testLink) < 200 {
		t.Fatalf("only %d link test records", len(testLink))
	}

	mc, err := EvaluateDetector(central, testLink, fx.labeler, nil)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := EvaluateDetector(ad3, testLink, fx.labeler, nil)
	if err != nil {
		t.Fatal(err)
	}
	mx, err := EvaluateDetector(cad3, testLink, fx.labeler, summaries)
	if err != nil {
		t.Fatal(err)
	}

	t.Logf("centralized: %v", mc)
	t.Logf("AD3:         %v", ma)
	t.Logf("CAD3:        %v", mx)

	if ma.F1() <= mc.F1() {
		t.Errorf("AD3 F1 %.4f should beat centralized %.4f", ma.F1(), mc.F1())
	}
	if mx.F1() <= ma.F1() {
		t.Errorf("CAD3 F1 %.4f should beat AD3 %.4f", mx.F1(), ma.F1())
	}
	if mx.FNRate() >= mc.FNRate() {
		t.Errorf("CAD3 FN rate %.4f should be below centralized %.4f", mx.FNRate(), mc.FNRate())
	}
	if mx.Accuracy() <= mc.Accuracy() {
		t.Errorf("CAD3 accuracy %.4f should beat centralized %.4f", mx.Accuracy(), mc.Accuracy())
	}
}

func TestAccidentEstimationTable4(t *testing.T) {
	fx := corridorFixture(t)
	central, ad3, cad3, summaries := trainAll(t, fx)
	testLink := trace.RecordsOfType(fx.test, geo.MotorwayLink)

	rc, err := EstimateAccidents(central, testLink, fx.labeler, nil)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := EstimateAccidents(ad3, testLink, fx.labeler, nil)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := EstimateAccidents(cad3, testLink, fx.labeler, summaries)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E(Lambda): centralized=%.1f AD3=%.1f CAD3=%.1f", rc.Expected, ra.Expected, rx.Expected)
	if rx.Expected >= ra.Expected || ra.Expected >= rc.Expected {
		t.Errorf("expected accident ordering CAD3 < AD3 < centralized, got %.2f / %.2f / %.2f",
			rx.Expected, ra.Expected, rc.Expected)
	}
	if rc.Records != len(testLink) {
		t.Errorf("records = %d, want %d", rc.Records, len(testLink))
	}
	if rc.FalseNegatives < rc.Abnormal/100 {
		t.Logf("centralized FNs unexpectedly low: %+v", rc)
	}
}

func TestCAD3FallbackWithoutSummary(t *testing.T) {
	fx := corridorFixture(t)
	_, _, cad3, summaries := trainAll(t, fx)
	testLink := trace.RecordsOfType(fx.test, geo.MotorwayLink)

	// Detection must succeed with and without a prior, and mark UsedPrior
	// accordingly.
	rec := testLink[0]
	var prior *PredictionSummary
	if s, ok := summaries[rec.Car]; ok {
		prior = &s
	}
	withPrior, err := cad3.Detect(rec, prior)
	if err != nil {
		t.Fatal(err)
	}
	without, err := cad3.Detect(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if prior != nil && !withPrior.UsedPrior {
		t.Error("UsedPrior should be set when a summary is supplied")
	}
	if without.UsedPrior {
		t.Error("UsedPrior must be false without a summary")
	}

	// Degraded CAD3 (no summaries at all) should still be a usable
	// detector, scoring at least near AD3.
	mx, err := EvaluateDetector(cad3, testLink, fx.labeler, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mx.Accuracy() < 0.5 {
		t.Errorf("degraded CAD3 accuracy %.3f collapsed", mx.Accuracy())
	}
}

func TestDetectorErrors(t *testing.T) {
	ad3 := NewAD3(geo.Motorway)
	if _, err := ad3.Detect(mkRecord(1, geo.Motorway, 100, 0, 9), nil); err != ErrNotTrained {
		t.Errorf("err = %v, want ErrNotTrained", err)
	}
	if _, err := ad3.PredictProba(mkRecord(1, geo.Motorway, 100, 0, 9)); err != ErrNotTrained {
		t.Errorf("err = %v, want ErrNotTrained", err)
	}
	central := NewCentralized()
	if _, err := central.Detect(mkRecord(1, geo.Motorway, 100, 0, 9), nil); err != ErrNotTrained {
		t.Errorf("err = %v, want ErrNotTrained", err)
	}
	if err := central.Train(nil, nil); err != ErrNoRecords {
		t.Errorf("err = %v, want ErrNoRecords", err)
	}
	cad3 := NewCAD3(geo.MotorwayLink, CAD3Config{})
	if _, err := cad3.Detect(mkRecord(1, geo.MotorwayLink, 30, 0, 9), nil); err != ErrNotTrained {
		t.Errorf("err = %v, want ErrNotTrained", err)
	}
	if err := cad3.Train(nil, nil, nil); err == nil {
		t.Error("want error for missing upstream")
	}
	// Training AD3 with no records of its type fails cleanly.
	fx := corridorFixture(t)
	res := NewAD3(geo.RoadType(0))
	if err := res.Train(fx.train, fx.labeler); err == nil {
		t.Error("want error for absent road type")
	}
}

func TestCAD3ConfigDefaults(t *testing.T) {
	c := NewCAD3(geo.MotorwayLink, CAD3Config{Weight: -3})
	if c.Weight() != DefaultCollabWeight {
		t.Errorf("weight = %v, want default", c.Weight())
	}
	c = NewCAD3(geo.MotorwayLink, CAD3Config{Weight: 0.8})
	if c.Weight() != 0.8 {
		t.Errorf("weight = %v, want 0.8", c.Weight())
	}
	if c.Name() != "CAD3" || c.RoadType() != geo.MotorwayLink {
		t.Errorf("identity = %q %v", c.Name(), c.RoadType())
	}
}

func TestCAD3DumpTree(t *testing.T) {
	fx := corridorFixture(t)
	_, _, cad3, _ := trainAll(t, fx)
	dump := cad3.DumpTree()
	if dump == "" {
		t.Error("empty tree dump")
	}
}

func TestDetectionTimelineFigure8(t *testing.T) {
	fx := corridorFixture(t)
	central, ad3, cad3, summaries := trainAll(t, fx)

	// Pick the aggressive test car with the most abnormal link records.
	testLink := trace.RecordsOfType(fx.test, geo.MotorwayLink)
	byCar := make(map[trace.CarID][]trace.Record)
	for _, r := range testLink {
		byCar[r.Car] = append(byCar[r.Car], r)
	}
	var bestCar trace.CarID
	bestAbn := -1
	for car, recs := range byCar {
		if _, ok := summaries[car]; !ok {
			continue
		}
		abn := 0
		for _, r := range recs {
			if l, err := fx.labeler.Label(r); err == nil && l == ClassAbnormal {
				abn++
			}
		}
		if abn > bestAbn {
			bestAbn, bestCar = abn, car
		}
	}
	if bestAbn < 3 {
		t.Skipf("no sufficiently abnormal test car (max %d abnormal records)", bestAbn)
	}

	trip := byCar[bestCar]
	trace.SortRecordsByTime(trip)
	timeline, err := DetectionTimeline([]Detector{central, ad3, cad3}, trip, fx.labeler, summaries)
	if err != nil {
		t.Fatal(err)
	}
	if len(timeline) == 0 {
		t.Fatal("empty timeline")
	}
	accC := TimelineAccuracy(timeline, "Centralized")
	accA := TimelineAccuracy(timeline, "AD3")
	accX := TimelineAccuracy(timeline, "CAD3")
	t.Logf("trip accuracy: centralized=%.3f ad3=%.3f cad3=%.3f (flips %d/%d/%d)",
		accC, accA, accX,
		Flips(timeline, "Centralized"), Flips(timeline, "AD3"), Flips(timeline, "CAD3"))
	if accX < accC {
		t.Errorf("CAD3 trip accuracy %.3f below centralized %.3f", accX, accC)
	}
}

func TestEvaluateDetectorObservesTruth(t *testing.T) {
	fx := corridorFixture(t)
	_, ad3, _, _ := trainAll(t, fx)
	testLink := trace.RecordsOfType(fx.test, geo.MotorwayLink)
	m, err := EvaluateDetector(ad3, testLink, fx.labeler, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total() != len(testLink) {
		t.Errorf("evaluated %d records, want %d", m.Total(), len(testLink))
	}
	var _ mlkit.ConfusionMatrix = m
}

func TestAccessorSurface(t *testing.T) {
	fx := corridorFixture(t)
	_, ad3, cad3, _ := trainAll(t, fx)
	if ad3.RoadType() != geo.MotorwayLink {
		t.Errorf("RoadType = %v", ad3.RoadType())
	}
	if cad3.LocalNB() == nil {
		t.Error("LocalNB is nil")
	}
	d := Detection{Class: ClassAbnormal}
	if !d.Abnormal() {
		t.Error("Abnormal() broken")
	}
	d.Class = ClassNormal
	if d.Abnormal() {
		t.Error("normal detection reported abnormal")
	}
}
