package core

import (
	"bytes"
	"strings"
	"testing"

	"cad3/internal/geo"
	"cad3/internal/trace"
)

// roundTripDetector saves and reloads a detector.
func roundTripDetector(t *testing.T, det Detector) Detector {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveDetector(&buf, det); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDetector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// assertSameVerdicts checks two detectors agree on every test record.
func assertSameVerdicts(t *testing.T, a, b Detector, recs []trace.Record, summaries map[trace.CarID]PredictionSummary) {
	t.Helper()
	for i, r := range recs {
		var prior *PredictionSummary
		if summaries != nil {
			if s, ok := summaries[r.Car]; ok {
				prior = &s
			}
		}
		da, err := a.Detect(r, prior)
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.Detect(r, prior)
		if err != nil {
			t.Fatal(err)
		}
		if da.Class != db.Class || da.PNormal != db.PNormal {
			t.Fatalf("record %d: original %+v vs loaded %+v", i, da, db)
		}
	}
}

func TestSaveLoadAD3(t *testing.T) {
	fx := corridorFixture(t)
	_, ad3, _, _ := trainAll(t, fx)
	loaded := roundTripDetector(t, ad3)
	if loaded.Name() != "AD3" {
		t.Errorf("loaded kind = %q", loaded.Name())
	}
	testLink := trace.RecordsOfType(fx.test, geo.MotorwayLink)
	assertSameVerdicts(t, ad3, loaded, testLink[:min(200, len(testLink))], nil)
}

func TestSaveLoadCentralized(t *testing.T) {
	fx := corridorFixture(t)
	central, _, _, _ := trainAll(t, fx)
	loaded := roundTripDetector(t, central)
	testLink := trace.RecordsOfType(fx.test, geo.MotorwayLink)
	assertSameVerdicts(t, central, loaded, testLink[:min(200, len(testLink))], nil)
}

func TestSaveLoadCAD3(t *testing.T) {
	fx := corridorFixture(t)
	_, _, cad3, summaries := trainAll(t, fx)
	loaded := roundTripDetector(t, cad3)
	lc, ok := loaded.(*CAD3)
	if !ok {
		t.Fatalf("loaded type %T", loaded)
	}
	if lc.Weight() != cad3.Weight() {
		t.Errorf("weight = %v, want %v", lc.Weight(), cad3.Weight())
	}
	testLink := trace.RecordsOfType(fx.test, geo.MotorwayLink)
	assertSameVerdicts(t, cad3, loaded, testLink[:min(200, len(testLink))], summaries)
}

func TestSaveUntrainedFails(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveDetector(&buf, NewAD3(geo.Motorway)); err == nil {
		t.Error("want error saving untrained AD3")
	}
	if err := SaveDetector(&buf, NewCAD3(geo.MotorwayLink, CAD3Config{})); err != ErrNotTrained {
		t.Errorf("err = %v, want ErrNotTrained", err)
	}
	if err := SaveDetector(&buf, unsavedDetector{}); err == nil {
		t.Error("want error for unsupported detector type")
	}
}

// unsavedDetector is a Detector that SaveDetector has no encoding for.
type unsavedDetector struct{}

func (unsavedDetector) Name() string { return "unsaved" }

func (unsavedDetector) Detect(trace.Record, *PredictionSummary) (Detection, error) {
	return Detection{}, nil
}

func TestLoadDetectorErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":       "not json",
		"unknown kind":  `{"kind":"Quantum"}`,
		"bad road type": `{"kind":"AD3","roadType":99,"nb":{}}`,
		"bad nb":        `{"kind":"AD3","roadType":1,"nb":{"version":9}}`,
		"bad cad3 road": `{"kind":"CAD3","roadType":0}`,
	}
	for name, in := range cases {
		if _, err := LoadDetector(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestLoadRejectsCorruptTree(t *testing.T) {
	fx := corridorFixture(t)
	_, _, cad3, _ := trainAll(t, fx)
	var buf bytes.Buffer
	if err := SaveDetector(&buf, cad3); err != nil {
		t.Fatal(err)
	}
	// Corrupt the tree's feature index beyond the width.
	s := strings.Replace(buf.String(), `"feature":1`, `"feature":99`, 1)
	if s == buf.String() {
		t.Skip("serialized tree has no feature-1 split to corrupt")
	}
	if _, err := LoadDetector(strings.NewReader(s)); err == nil {
		t.Error("corrupt tree should fail validation")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
