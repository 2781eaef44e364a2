// Command benchmark is the CAD3 benchmark: load generator and measurer in
// one process. It drives the system through the public functions of the
// internal packages only, checks the outputs against a reference pass,
// and prints every metric by name and unit. README.md in this directory
// describes the workloads, the metrics and how they interact.
//
//	bash benchmark/run.sh                       every workload, untraced then traced
//	bash benchmark/run.sh --workload city-40k --seed 3 --seconds 15 --trace 0
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	defaultSeed    = 21
	defaultSeconds = 15
	outDir         = "benchmark/out"
)

func main() {
	workloadName := flag.String("workload", "", "run one workload (default: all of them, untraced then traced)")
	seed := flag.Int64("seed", defaultSeed, "input seed: scenario, fleet and schedule derive from it")
	seconds := flag.Float64("seconds", defaultSeconds, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	out := flag.String("out", "", "also write the results to this JSON file (default benchmark/out/results.json for a full run)")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as the program defines it, and exit")
	flag.Parse()

	if *spec {
		os.Stdout.Write(benchmarkJSON())
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err.Error())
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal("need --seconds > 0 and --trace 0 or 1")
	}

	// Every workload is a serial pipeline driven from one or two
	// goroutines; on one P its cost is the code's, on two it is mostly the
	// scheduler bouncing a hand-off between cores (corridor-saturate
	// measures 5.0 us/record and two modes on 2 Ps, 2.7 and one on 1 P).
	runtime.GOMAXPROCS(1)
	host := fingerprint(*seed)
	if *workloadName != "" {
		if !knownWorkload(*workloadName) {
			fatal("unknown workload " + *workloadName)
		}
		res, err := runOne(*workloadName, paramsFor(*seed, *seconds, *trace == 1))
		if err != nil {
			fatal(err.Error())
		}
		printResult(os.Stdout, res, *trace == 1)
		file := resultFile{Host: host, Runs: []runRecord{record(res, *trace == 1)}}
		path := *out
		if path == "" {
			path = filepath.Join(outDir, fmt.Sprintf("result-%s-trace%d-seed%d.json", res.Workload, *trace, *seed))
		}
		if err := file.write(path); err != nil {
			fatal(err.Error())
		}
		printContractLine(res, *trace == 1)
		if !res.correct() {
			os.Exit(1)
		}
		return
	}

	// Full run: every workload untraced for the end-to-end metrics, then
	// traced for the per-layer table.
	file := resultFile{Host: host}
	ok := true
	for _, w := range workloadSpecs {
		for _, traced := range []bool{false, true} {
			res, err := runOne(w.Name, paramsFor(*seed, *seconds, traced))
			if err != nil {
				fatal(w.Name + ": " + err.Error())
			}
			printResult(os.Stdout, res, traced)
			file.Runs = append(file.Runs, record(res, traced))
			ok = ok && res.correct()
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(outDir, "results.json")
	}
	if err := file.write(path); err != nil {
		fatal(err.Error())
	}
	fmt.Printf("\nresults written to %s\n", path)
	if !ok {
		fmt.Println("OUTPUT CHECK FAILED")
		os.Exit(1)
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	os.Exit(2)
}

// paramsFor sizes a run from the measured seconds: a sixth of it again
// (at most 2 s) as discarded warm-up, twenty segments, five set-ups.
func paramsFor(seed int64, seconds float64, traced bool) runParams {
	measure := time.Duration(seconds * float64(time.Second))
	warm := measure / 6
	if warm > 2*time.Second {
		warm = 2 * time.Second
	}
	return runParams{Seed: seed, Warmup: warm, Measure: measure, Segments: 20, Setups: 5, Trace: traced}
}

// runOne sets a workload up (several times, for a median), runs it, and
// for a traced run adds the layer probes, the budget and the trace file.
func runOne(name string, p runParams) (*result, error) {
	w := newWorkload(name)
	defer w.close()
	var setups []float64
	for i := 0; i < p.Setups; i++ {
		t0 := time.Now()
		if err := w.setup(p); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var tr *tracer
	if p.Trace {
		tr = newTracer(0, time.Now())
		// The traced run splits its time: the workload gets 60%, the
		// layer probes the rest.
		p.Measure = p.Measure * 6 / 10
	}
	res, err := w.run(p, tr)
	if err != nil {
		return nil, err
	}
	if !p.Trace {
		res.Metrics["setup_s"] = median(setups)
		return res, nil
	}
	tracers := append([]*tracer{tr}, res.tracers...)
	res.Notes = append(res.Notes, layerTable(tracers...)...)
	if !p.Toy {
		path := filepath.Join(outDir, "trace-"+name+".jsonl")
		if err := writeTrace(path, tracers...); err != nil {
			return nil, fmt.Errorf("trace file: %w", err)
		}
		res.Notes = append(res.Notes, "spans written to "+path)
	}
	if err := runProbes(res, p); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	layerBudget(res)
	for _, s := range perLayerSpecs {
		if _, ok := res.Metrics[s.Name]; !ok {
			res.Metrics[s.Name] = 0
		}
	}
	return res, nil
}

// record turns a result into its stored form.
func record(res *result, traced bool) runRecord {
	return runRecord{
		Workload: res.Workload, Traced: traced, Correct: res.correct(),
		Attempted: res.Attempted, Failed: res.Failed, Samples: res.Samples, Segments: res.SegmentRates,
		Violations: res.Hard, Metrics: res.Metrics,
	}
}

func specsFor(traced bool) []metricSpec {
	if traced {
		return perLayerSpecs
	}
	return endToEndSpecs
}

// printResult prints every metric of the run by name and unit.
func printResult(w *os.File, res *result, traced bool) {
	kind := "end to end, tracing off"
	if traced {
		kind = "per layer, traced"
	}
	fmt.Fprintf(w, "\n== %s (%s) ==\n", res.Workload, kind)
	for _, s := range specsFor(traced) {
		fmt.Fprintf(w, "%-34s %16.4f %s\n", s.Name, res.Metrics[s.Name], s.Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, latency samples %d\n", res.Attempted, res.Failed, res.Samples)
	for _, n := range res.Notes {
		fmt.Fprintln(w, n)
	}
	for _, v := range res.Hard {
		fmt.Fprintln(w, "VIOLATION:", v)
	}
}

// printContractLine prints the one JSON object a single-workload run ends
// with: correct, attempted, failed and the metrics with their units.
func printContractLine(res *result, traced bool) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, s := range specsFor(traced) {
		metrics[s.Name] = mv{res.Metrics[s.Name], s.Unit}
	}
	attempted := res.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.correct(), attempted, res.Failed, metrics})
	if err != nil {
		fatal(err.Error())
	}
	fmt.Println(string(line))
}
