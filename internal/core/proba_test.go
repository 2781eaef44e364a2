package core_test

import (
	"math"
	"testing"

	"cad3/internal/core"
	"cad3/internal/experiments"
	"cad3/internal/trace"
)

// probaDetector is a detector with a PredictProba of its own: the RSU
// node once fed its summary builder from it instead of from Detect.
type probaDetector interface {
	core.Detector
	PredictProba(rec trace.Record) (float64, error)
}

// TestPredictProbaIsDetectPNormal holds every detector in the repo with a
// PredictProba to what the node relies on in folding Detect's own
// probability into its summaries: over the scenario's held-out records,
// Detect(r, nil).PNormal and PredictProba(r) are the same float64 bit for
// bit, and they fail together. CAD3 has no PredictProba: a CAD3 node's
// summaries carry its fused probability.
func TestPredictProbaIsDetectPNormal(t *testing.T) {
	sc, err := experiments.BuildScenario(experiments.ScenarioConfig{Cars: 250, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	same := func(name string, d probaDetector) {
		t.Helper()
		agreed := 0
		for _, r := range sc.Test {
			det, derr := d.Detect(r, nil)
			p, perr := d.PredictProba(r)
			if (derr == nil) != (perr == nil) {
				t.Fatalf("%s, car %d: Detect error %v, PredictProba error %v", name, r.Car, derr, perr)
			}
			if derr != nil {
				continue
			}
			if math.Float64bits(det.PNormal) != math.Float64bits(p) {
				t.Fatalf("%s, car %d: Detect PNormal %v, PredictProba %v", name, r.Car, det.PNormal, p)
			}
			agreed++
		}
		t.Logf("%s: %d of %d held-out records agree", name, agreed, len(sc.Test))
	}

	same("AD3 (motorway)", sc.Upstream)
	same("AD3 (link)", sc.AD3)

	if _, ok := any(sc.CAD3).(probaDetector); ok {
		t.Error("CAD3 has a PredictProba: decide which probability a CAD3 node's summaries carry")
	}
}
