package experiments

import (
	"strings"
	"testing"

	"cad3/internal/scenario"
)

// cityTestHarness shares one compact city network across the package's
// tests; each engine run Resets the harness.
func cityTestHarness(t *testing.T) *CityScenarioHarness {
	t.Helper()
	h, err := NewCityScenarioHarness(CityHarnessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestCityHarnessDeterministic pins the determinism contract for the
// city-backed harness: same spec, byte-identical transcripts; a
// different seed reaches the city and changes the run.
func TestCityHarnessDeterministic(t *testing.T) {
	spec := &scenario.Spec{
		Version: scenario.SpecVersion, Name: "city-determinism-probe", Seed: 3,
		Phases: []scenario.PhaseSpec{
			{
				Name: "churn", Rounds: 40,
				Traffic: scenario.TrafficSpec{Shape: "steady", Rate: 1},
				Actions: []scenario.ActionSpec{
					{At: 5, Type: "link_loss", Prob: 0.3},
					{At: 10, Type: "kill", Replica: "r1"},
					{At: 25, Type: "revive", Replica: "r1"},
					{At: 30, Type: "heal_all"},
				},
			},
			{Name: "drain", Rounds: 20, Traffic: scenario.TrafficSpec{Shape: "steady", Rate: 1}},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	h := cityTestHarness(t)
	e := scenario.New(scenario.Config{})
	r1, err := e.Run(spec, h)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(spec, h)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Transcript != r2.Transcript {
		t.Fatal("same spec, same city harness, different transcripts — the replay is not deterministic")
	}
	reseeded := spec.Clone()
	reseeded.Seed = 4
	r3, err := e.Run(reseeded, h)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Transcript == r1.Transcript {
		t.Fatal("different seeds produced identical transcripts — the seed is not reaching the city")
	}
}

// TestCityHarnessSettlesCleanUnderChaos drives a correlated replica
// flap plus a lossy handover link through the engine and demands the
// settled audit is clean with real handover traffic behind it.
func TestCityHarnessSettlesCleanUnderChaos(t *testing.T) {
	spec := &scenario.Spec{
		Version: scenario.SpecVersion, Name: "city-chaos-probe", Seed: 7,
		Phases: []scenario.PhaseSpec{
			{
				Name: "storm", Rounds: 60,
				Traffic: scenario.TrafficSpec{Shape: "steady", Rate: 1},
				Actions: []scenario.ActionSpec{
					{At: 5, Type: "link_loss", Prob: 0.5},
					{At: 10, Type: "kill", Replica: "r0"},
					{At: 35, Type: "revive", Replica: "r0"},
					{At: 45, Type: "heal_all"},
				},
				Assertions: []scenario.AssertionSpec{
					{Metric: "elections", Op: ">=", Value: 1},
					{Metric: "handovers", Op: ">", Value: 0},
					{Metric: "router_retries", Op: ">", Value: 0},
				},
			},
			{
				Name: "settled", Rounds: 20,
				Traffic: scenario.TrafficSpec{Shape: "steady", Rate: 1},
				Assertions: []scenario.AssertionSpec{
					{Metric: "in_flight", Op: "==", Value: 0},
					{Metric: "handover_lost", Op: "==", Value: 0},
					{Metric: "handover_dups", Op: "==", Value: 0},
					{Metric: "warnings_lost", Op: "==", Value: 0},
					{Metric: "warnings_dup", Op: "==", Value: 0},
					{Metric: "telemetry_unacked", Op: "==", Value: 0},
					{Metric: "handover_applied_total", Op: ">", Value: 0},
				},
			},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	h := cityTestHarness(t)
	e := scenario.New(scenario.Config{})
	res, err := e.Run(spec, h)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("%d assertion(s) failed:\n%s", res.Failures, res.Transcript)
	}
}

// TestCityHarnessRejectsUnsupportedActions pins the contract that an
// action outside the city vocabulary is an action error (recorded,
// run continues), not a run abort.
func TestCityHarnessRejectsUnsupportedActions(t *testing.T) {
	spec := &scenario.Spec{
		Version: scenario.SpecVersion, Name: "city-unsupported-probe", Seed: 1,
		Phases: []scenario.PhaseSpec{
			{
				Name: "probe", Rounds: 5,
				Traffic: scenario.TrafficSpec{Shape: "steady", Rate: 1},
				Actions: []scenario.ActionSpec{
					{At: 1, Type: "clock_skew", SkewMs: 500},
					{At: 2, Type: "join"},
					{At: 2, Type: "rsu_crash"},
					{At: 3, Type: "rsu_recover"},
				},
			},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	h := cityTestHarness(t)
	e := scenario.New(scenario.Config{})
	res, err := e.Run(spec, h)
	if err != nil {
		t.Fatalf("unsupported action aborted the run: %v", err)
	}
	if !res.Pass {
		t.Fatalf("run failed:\n%s", res.Transcript)
	}
	if n := strings.Count(res.Transcript, "!error: city harness: unsupported action"); n != 4 {
		t.Fatalf("%d unsupported-action errors recorded, want 4:\n%s", n, res.Transcript)
	}
}
