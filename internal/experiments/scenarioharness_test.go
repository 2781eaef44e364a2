package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cad3/internal/obsv"
	"cad3/internal/scenario"
)

// testHarness builds a ScenarioHarness over the shared cached test
// scenario. Each engine run Resets it, so one harness serves every test.
func testHarness(t *testing.T) *ScenarioHarness {
	t.Helper()
	h, err := NewScenarioHarness(ScenarioHarnessConfig{Scenario: testScenario(t)})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestScenarioCorpusPasses replays every checked-in scenarios/*.json
// spec against the full stack — the same gate `make scenarios` runs in
// CI. A failure here means a spec's pinned invariant regressed.
func TestScenarioCorpusPasses(t *testing.T) {
	specs, names, err := scenario.LoadCorpus(filepath.Join("..", "..", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 5 {
		t.Fatalf("corpus holds %d specs, want >= 5", len(specs))
	}
	h := testHarness(t)
	e := scenario.New(scenario.Config{})
	var cityH *CityScenarioHarness
	for i, s := range specs {
		var target scenario.Harness = h
		if strings.HasPrefix(s.Name, "city-") {
			// city-* specs replay against the sharded city harness,
			// same selection rule cmd/cad3-scenario applies.
			if cityH == nil {
				cityH, err = NewCityScenarioHarness(CityHarnessConfig{})
				if err != nil {
					t.Fatal(err)
				}
			}
			target = cityH
		}
		res, err := e.Run(s, target)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		if !res.Pass {
			t.Errorf("%s: %d assertion(s) failed\n%s", names[i], res.Failures, res.Transcript)
		}
	}
}

// TestScenarioCorpusTranscriptGolden pins every transcript the corpus
// prints, byte for byte: it renders what `cad3-scenario -v` writes with
// default flags (a fresh 400-car build, seed 77, 24 vehicles, 3
// replicas) and compares it with testdata/corpus_v.golden. There is no
// update flag: rewrite the file by hand only when a change means to move
// a transcript.
func TestScenarioCorpusTranscriptGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/corpus_v.golden")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "building scenario (cars=%d seed=%d)...\n", 400, 77)
	sc, err := BuildScenario(ScenarioConfig{Cars: 400, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewScenarioHarness(ScenarioHarnessConfig{Scenario: sc, Vehicles: 24, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	reg := obsv.NewRegistry()
	e := scenario.New(scenario.Config{Metrics: reg})
	specs, names, err := scenario.LoadCorpus(filepath.Join("..", "..", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	var cityH *CityScenarioHarness
	for i, s := range specs {
		var target scenario.Harness = h
		if strings.HasPrefix(s.Name, "city-") {
			if cityH == nil {
				if cityH, err = NewCityScenarioHarness(CityHarnessConfig{}); err != nil {
					t.Fatal(err)
				}
			}
			target = cityH
		}
		res, err := e.Run(s, target)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		verdict := "PASS"
		if !res.Pass {
			verdict = fmt.Sprintf("FAIL (%d assertions)", res.Failures)
		}
		fmt.Fprintf(&sb, "%-32s %-24s seed=%-6d phases=%d  %s\n",
			names[i], s.Name, s.Seed, len(s.Phases), verdict)
		for _, line := range strings.Split(strings.TrimRight(res.Transcript, "\n"), "\n") {
			sb.WriteString("    " + line + "\n")
		}
	}
	snap := reg.Snapshot()
	fmt.Fprintf(&sb, "engine: %d runs (%d failed), %d rounds, %d actions (%d errored), %d/%d assertions passed\n",
		snap.Counters["scenario.runs"], snap.Counters["scenario.runs.failed"],
		snap.Counters["scenario.rounds"], snap.Counters["scenario.actions"],
		snap.Counters["scenario.action_errors"], snap.Counters["scenario.assert.pass"],
		snap.Counters["scenario.assert.pass"]+snap.Counters["scenario.assert.fail"])
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("transcript differs from testdata/corpus_v.golden at line %d\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transcript differs from testdata/corpus_v.golden: %d lines, want %d", len(gl), len(wl))
	}
}

// TestScenarioHarnessDeterministic pins the determinism contract at the
// full-stack level: the same spec replayed twice through the real
// harness yields byte-identical transcripts, and a different seed does
// not.
func TestScenarioHarnessDeterministic(t *testing.T) {
	spec := &scenario.Spec{
		Version: scenario.SpecVersion, Name: "determinism-probe", Seed: 3,
		Phases: []scenario.PhaseSpec{
			{
				Name: "churn", Rounds: 24,
				Traffic: scenario.TrafficSpec{Shape: "spoof", Rate: 1.5, SpoofFrac: 0.25},
				Actions: []scenario.ActionSpec{
					{At: 2, Type: "link_loss", Prob: 0.2},
					{At: 4, Type: "link_delay", Prob: 0.5, MinMs: 5, MaxMs: 40},
					{At: 6, Type: "kill_leader"},
					{At: 16, Type: "revive", Replica: "r0"},
				},
			},
			{Name: "drain", Rounds: 12, Traffic: scenario.TrafficSpec{Shape: "steady", Rate: 1}},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	h := testHarness(t)
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
		t.Fatal("same spec, same harness, different transcripts — the replay is not deterministic")
	}
	reseeded := spec.Clone()
	reseeded.Seed = 4
	r3, err := e.Run(reseeded, h)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Transcript == r1.Transcript {
		t.Fatal("different seeds produced identical transcripts — the seed is not reaching the run")
	}
	// The node crash/recover and sustained-overload paths replay too.
	for _, name := range []string{"rsu-crash-recover.json", "overload-degraded.json"} {
		s, err := scenario.LoadSpec(filepath.Join("..", "..", "scenarios", name))
		if err != nil {
			t.Fatal(err)
		}
		a, err := e.Run(s, h)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Run(s, h)
		if err != nil {
			t.Fatal(err)
		}
		if a.Transcript != b.Transcript {
			t.Errorf("%s: same spec, different transcripts", name)
		}
	}
}

// TestChaosStudyDeterministic replays the chaos drill — injector drop and
// dup faults, a link partition, and a node crash/recover — twice on the
// same seed and requires identical per-phase measurements, fired actions
// and recovered node state.
func TestChaosStudyDeterministic(t *testing.T) {
	spec := &scenario.Spec{
		Version: scenario.SpecVersion, Name: "chaos-determinism", Seed: 7,
		Phases: []scenario.PhaseSpec{
			{Name: "pre", Rounds: 15, Traffic: scenario.TrafficSpec{Shape: "steady", Rate: 1}},
			{
				Name: "fault", Rounds: 20,
				Traffic: scenario.TrafficSpec{Shape: "steady", Rate: 1},
				Actions: []scenario.ActionSpec{
					{At: 0, Type: "link_loss", Prob: 0.05},
					{At: 0, Type: "link_dup", Prob: 0.05},
					{At: 2, Type: "rsu_crash"},
					{At: 8, Type: "rsu_recover"},
				},
			},
			{Name: "recovered", Rounds: 15, Traffic: scenario.TrafficSpec{Shape: "steady", Rate: 1}},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	h := testHarness(t)
	e := scenario.New(scenario.Config{})
	a, err := e.Run(spec, h)
	if err != nil {
		t.Fatal(err)
	}
	aCars := h.run.node.TrackedCars()
	b, err := e.Run(spec, h)
	if err != nil {
		t.Fatal(err)
	}
	bCars := h.run.node.TrackedCars()

	if len(a.Phases) != 3 || len(b.Phases) != 3 {
		t.Fatalf("phases = %d, %d", len(a.Phases), len(b.Phases))
	}
	if got := len(a.Phases[1].Fired); got != 4 {
		t.Fatalf("fault phase fired %d actions, want 4: %v", got, a.Phases[1].Fired)
	}
	if a.Phases[2].Measurements["node_processed"] == 0 {
		t.Fatal("the recovered node processed nothing")
	}
	for i := range a.Phases {
		pa, pb := a.Phases[i], b.Phases[i]
		if !reflect.DeepEqual(pa.Fired, pb.Fired) {
			t.Errorf("phase %s fired actions diverged: %v vs %v", pa.Name, pa.Fired, pb.Fired)
		}
		if !reflect.DeepEqual(pa.Measurements, pb.Measurements) {
			t.Errorf("phase %s measurements diverged:\n%v\n%v", pa.Name, pa.Measurements, pb.Measurements)
		}
	}
	if a.Transcript != b.Transcript {
		t.Error("same seed, different transcripts")
	}
	if aCars != bCars || aCars == 0 {
		t.Errorf("recovered cars diverged or empty: %d vs %d", aCars, bCars)
	}
}

// rounds drives n nominal rounds.
func rounds(t *testing.T, h *ScenarioHarness, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := h.Round(scenario.Traffic{Rate: 1}); err != nil {
			t.Fatal(err)
		}
	}
}

func apply(t *testing.T, h *ScenarioHarness, typ string) {
	t.Helper()
	if err := h.Apply(scenario.Action{Type: typ}); err != nil {
		t.Fatalf("%s: %v", typ, err)
	}
}

func measure(t *testing.T, h *ScenarioHarness) scenario.Measurements {
	t.Helper()
	m, err := h.Measure()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestScenarioHarnessCrashRecover pins rsu_crash / rsu_recover: they
// refuse to run out of order, the recovered node resumes with the dead
// node's tracked cars and summaries, and the node counters Measure reads
// carry across the restart instead of dropping to the new node's zero.
func TestScenarioHarnessCrashRecover(t *testing.T) {
	h := testHarness(t)
	if err := h.Reset(1); err != nil {
		t.Fatal(err)
	}
	if err := h.BeginPhase("crash"); err != nil {
		t.Fatal(err)
	}
	if err := h.Apply(scenario.Action{Type: "rsu_recover"}); err == nil {
		t.Error("rsu_recover without a crash succeeded")
	}
	rounds(t, h, 20)
	before := measure(t, h)
	dead := h.run.node
	apply(t, h, "rsu_crash")
	if err := h.Apply(scenario.Action{Type: "rsu_crash"}); err == nil {
		t.Error("a second rsu_crash succeeded")
	}
	rounds(t, h, 5)
	apply(t, h, "rsu_recover")

	cp, err := h.run.node.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := h.run.node.TrackedCars(), dead.TrackedCars(); got != want || want == 0 {
		t.Errorf("recovered node tracks %d cars, the dead one %d", got, want)
	}
	if !reflect.DeepEqual(cp.Summaries, h.run.checkpoint.Summaries) || len(cp.Summaries) == 0 {
		t.Errorf("recovered node holds %d summaries, not the dead node's %d",
			len(cp.Summaries), len(h.run.checkpoint.Summaries))
	}

	rounds(t, h, 10)
	if err := h.Settle(); err != nil {
		t.Fatal(err)
	}
	after := measure(t, h)
	for _, k := range []string{
		"node_processed", "node_detected", "node_shed_stale", "node_degraded_rounds",
		"node_prior_hits", "node_fallbacks", "warnings_produced",
	} {
		if after[k] < before[k] {
			t.Errorf("%s fell across the recovery: %v -> %v", k, before[k], after[k])
		}
	}
	if after["node_processed"] == before["node_processed"] {
		t.Error("the recovered node processed nothing")
	}
}

// TestScenarioHarnessRecoverKeepsControlPlaneCounters: rsu.Recover
// restores the checkpoint's metrics snapshot wholesale, so a node sharing
// the control plane's registry would rewind elections to crash time.
func TestScenarioHarnessRecoverKeepsControlPlaneCounters(t *testing.T) {
	h := testHarness(t)
	if err := h.Reset(2); err != nil {
		t.Fatal(err)
	}
	if err := h.BeginPhase("p"); err != nil {
		t.Fatal(err)
	}
	rounds(t, h, 5)
	apply(t, h, "kill_leader")
	apply(t, h, "rsu_crash")
	atCrash := measure(t, h)["elections"]
	elected := atCrash
	for i := 0; i < 40 && elected == atCrash; i++ {
		rounds(t, h, 1)
		elected = measure(t, h)["elections"]
	}
	if elected == atCrash {
		t.Fatal("no election after the leader kill")
	}
	apply(t, h, "rsu_recover")
	if got := measure(t, h)["elections"]; got < elected {
		t.Errorf("elections went %v -> %v across rsu_recover", elected, got)
	}
}

// TestScenarioHarnessJoin: a second group member rebalances OUT-DATA
// with every warning delivered exactly once.
func TestScenarioHarnessJoin(t *testing.T) {
	h := testHarness(t)
	if err := h.Reset(3); err != nil {
		t.Fatal(err)
	}
	if err := h.BeginPhase("p"); err != nil {
		t.Fatal(err)
	}
	rounds(t, h, 10)
	apply(t, h, "join")
	rounds(t, h, 10)
	if err := h.Settle(); err != nil {
		t.Fatal(err)
	}
	m := measure(t, h)
	missed, ok := m["missed_deliveries"]
	if m["generations"] != 2 || m["dup_deliveries"] != 0 || !ok || missed != 0 {
		t.Errorf("generations=%v dup=%v missed=%v (reported %v), want 2, 0, 0",
			m["generations"], m["dup_deliveries"], missed, ok)
	}
	if m["warnings_delivered"] == 0 {
		t.Error("no warnings delivered")
	}
}

// TestScenarioExplorerMinimizesOnRealHarness drives the explorer's
// minimize path against the full stack: a spec carrying an impossible
// assertion must be confirmed failing and survive minimization still
// failing — the cmd/cad3-scenario -selfcheck path, as a test.
func TestScenarioExplorerMinimizesOnRealHarness(t *testing.T) {
	spec := &scenario.Spec{
		Version: scenario.SpecVersion, Name: "impossible", Seed: 8,
		Phases: []scenario.PhaseSpec{
			{
				Name: "a", Rounds: 4,
				Traffic: scenario.TrafficSpec{Shape: "steady", Rate: 1},
				Actions: []scenario.ActionSpec{{At: 1, Type: "clock_skew", SkewMs: 25}},
			},
			{
				Name: "b", Rounds: 4,
				Traffic:    scenario.TrafficSpec{Shape: "steady", Rate: 1},
				Assertions: []scenario.AssertionSpec{{Metric: "acked_records", Op: "<", Value: 0}},
			},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	h := testHarness(t)
	e := scenario.New(scenario.Config{})
	x := &scenario.Explorer{Engine: e, Harness: h}
	min, runs, err := x.Minimize(spec)
	if err != nil {
		t.Fatal(err)
	}
	if runs < 2 {
		t.Fatalf("minimizer spent only %d runs", runs)
	}
	res, err := e.Run(min, h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatal("minimized spec no longer fails")
	}
	if len(min.Phases) > len(spec.Phases) {
		t.Fatalf("minimized spec grew: %d phases", len(min.Phases))
	}
}
