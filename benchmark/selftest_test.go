package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// toyParams is every workload at toy size: a fraction of a second each.
func toyParams(seed int64, traced bool) runParams {
	return runParams{
		Seed: seed, Warmup: 20 * time.Millisecond, Measure: 150 * time.Millisecond,
		Segments: 3, Setups: 1, Toy: true, Trace: traced,
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesProgram holds the root BENCHMARK.json to the
// vocabulary the program prints, both ways, and to the contract's limits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(onDisk, &a); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if err := json.Unmarshal(benchmarkJSON(), &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("BENCHMARK.json differs from the program's vocabulary; regenerate it with `bash benchmark/run.sh -spec > BENCHMARK.json`")
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(onDisk))
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, w := range workloadSpecs {
		check("workload", w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, s := range endToEndSpecs {
		check("end-to-end metric", s.Name)
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		hasSetup = hasSetup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !hasSetup {
		t.Error("end-to-end metrics need setup_s in s, lower is better")
	}
	for _, s := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs...) {
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("%s: unit %q", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better %q", s.Name, s.Better)
		}
	}
	for _, s := range perLayerSpecs {
		check("per-layer metric", s.Name)
	}
}

// TestEveryWorkloadAtToySize runs each workload untraced and traced,
// checks that exactly the declared metrics come out, that the outputs
// pass the reference checks, and that the exact-repeat counts repeat for
// a seed.
func TestEveryWorkloadAtToySize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, w := range workloadSpecs {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, err := runOne(w.Name, toyParams(3, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.Attempted < 1 {
				t.Fatalf("untraced run incorrect: attempted %d failed %d %v", res.Attempted, res.Failed, res.Hard)
			}
			for _, s := range endToEndSpecs {
				if v, ok := res.Metrics[s.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", s.Name, v)
				}
			}
			for name := range res.Metrics {
				if !declared(endToEndSpecs, name) {
					t.Errorf("untraced run emitted undeclared metric %s", name)
				}
			}

			first, err := runOne(w.Name, toyParams(3, true))
			if err != nil {
				t.Fatal(err)
			}
			again, err := runOne(w.Name, toyParams(3, true))
			if err != nil {
				t.Fatal(err)
			}
			other, err := runOne(w.Name, toyParams(4, true))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*result{first, again, other} {
				if !r.correct() {
					t.Fatalf("traced run incorrect: failed %d %v", r.Failed, r.Hard)
				}
			}
			for _, s := range perLayerSpecs {
				if _, ok := first.Metrics[s.Name]; !ok {
					t.Errorf("per-layer metric %s missing", s.Name)
				}
				if s.Exact && first.Metrics[s.Name] != again.Metrics[s.Name] {
					t.Errorf("%s: %v then %v for one seed, want the same", s.Name, first.Metrics[s.Name], again.Metrics[s.Name])
				}
			}
			for name := range first.Metrics {
				if !declared(perLayerSpecs, name) {
					t.Errorf("traced run emitted undeclared metric %s", name)
				}
			}
			// The corridor laps are normalised (same record and warning
			// count for every seed), so only the city's count moves with
			// the seed; the corpus test below covers the corridor inputs.
			if w.Name == "city-40k" && first.Metrics["city.events"] == other.Metrics["city.events"] {
				t.Errorf("city.events = %v for seeds 3 and 4 alike", first.Metrics["city.events"])
			}
			if first.Metrics["rsu.records"] == 0 && w.Name != "city-40k" {
				t.Error("rsu.records = 0")
			}
		})
	}
}

func declared(specs []metricSpec, name string) bool {
	for _, s := range specs {
		if s.Name == name {
			return true
		}
	}
	return false
}

// TestCorpusFollowsSeed: one seed, one lap; another seed, another lap;
// always the normalised size.
func TestCorpusFollowsSeed(t *testing.T) {
	sc, err := buildScenario(runParams{Toy: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := buildCorpus(sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := buildCorpus(sc, 3)
	b, _ := buildCorpus(sc, 4)
	if !reflect.DeepEqual(a.recs, a2.recs) || !reflect.DeepEqual(a.expect, a2.expect) {
		t.Error("seed 3 built two different laps")
	}
	if reflect.DeepEqual(a.recs, b.recs) {
		t.Error("seeds 3 and 4 built the same lap")
	}
	for _, c := range []*corpus{a, b} {
		if c.nMw != corpusPerRoad || len(c.recs) != 2*corpusPerRoad || c.expectMw != corpusWarn || c.expectLink != corpusWarn {
			t.Errorf("lap has %d+%d records, %d+%d warnings; want %d and %d each", c.nMw, len(c.recs)-c.nMw, c.expectMw, c.expectLink, corpusPerRoad, corpusWarn)
		}
	}
}

// TestDroppedWarningFails: losing one received warning must show up as a
// failed operation and an incorrect run, closed loop and open loop.
func TestDroppedWarningFails(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, name := range []string{"corridor-saturate", "corridor-paced-256"} {
		p := toyParams(3, false)
		p.DropWarning = true
		res, err := runOne(name, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed == 0 || res.correct() {
			t.Errorf("%s: a dropped warning left failed = %d, correct = %v", name, res.Failed, res.correct())
		}
	}
}

// TestCompareVerdicts drives -compare over two synthetic result files.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, rate float64) string {
		f := resultFile{Runs: []runRecord{{
			Workload: "corridor-saturate", Correct: true, Attempted: 1,
			Metrics: map[string]float64{"records_per_s": rate, "setup_s": 0.1},
		}}}
		path := dir + "/" + name
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk("a.json", 100)
	var out bytes.Buffer
	if worse, err := compareFiles(&out, base, mk("b.json", 97)); err != nil || worse {
		t.Errorf("-3%% on records_per_s: worse = %v, err = %v\n%s", worse, err, out.String())
	}
	out.Reset()
	if worse, err := compareFiles(&out, base, mk("c.json", 50)); err != nil || !worse {
		t.Errorf("-50%% on records_per_s: worse = %v, err = %v\n%s", worse, err, out.String())
	}
}
