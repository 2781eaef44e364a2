package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// hostInfo stamps a result file with where and what it measured, so rows
// from different hosts are scaled by CalibNs rather than compared raw.
type hostInfo struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	CalibNs    float64 `json:"calib_ns"`
	When       string  `json:"when"`
}

// runRecord is one run of one workload as stored in a result file.
type runRecord struct {
	Workload   string             `json:"workload"`
	Traced     bool               `json:"traced"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Samples    int                `json:"latency_samples"`
	Segments   []float64          `json:"segment_rates,omitempty"`
	Violations []string           `json:"violations,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}

type resultFile struct {
	Host hostInfo    `json:"host"`
	Runs []runRecord `json:"runs"`
}

func (f *resultFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func fingerprint(seed int64) hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown",
		Seed:       seed,
		CalibNs:    calibrate(),
		When:       time.Now().UTC().Format(time.RFC3339),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitCommit = s.Value
			}
		}
	}
	return h
}

var calibSink uint64

// calibrate times a pinned pure-Go loop (an xorshift chain, no memory
// traffic, nothing the compiler can drop) and returns nanoseconds per
// iteration, best of five: a yardstick for this host's single core.
func calibrate() float64 {
	const iters = 4_000_000
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		x := uint64(0x9e3779b97f4a7c15)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ns := float64(time.Since(t0)) / iters
		calibSink += x
		if rep == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// compareFiles prints, per workload and metric, both values (the median
// when a file holds several runs), the relative change with its base, the
// stored bound and a verdict, and reports whether any metric is worse.
//
//	ok          within the bound, or better
//	worse       beyond the bound in the bad direction
//	unresolved  the base file's own runs spread wider than the bound
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base:   %s  (%s, %d cpu, %s, commit %s, calib %.3f ns)\n", pathA, a.Host.CPUModel, a.Host.NumCPU, a.Host.GoVersion, a.Host.GitCommit, a.Host.CalibNs)
	fmt.Fprintf(w, "change: %s  (%s, %d cpu, %s, commit %s, calib %.3f ns)\n", pathB, b.Host.CPUModel, b.Host.NumCPU, b.Host.GoVersion, b.Host.GitCommit, b.Host.CalibNs)
	if a.Host.CPUModel != b.Host.CPUModel || a.Host.NumCPU != b.Host.NumCPU {
		fmt.Fprintf(w, "note: different hosts; scale times by calib_ns (%.3f) before reading the changes\n", b.Host.CalibNs/a.Host.CalibNs)
	}
	worse := false
	for _, ws := range workloadSpecs {
		for _, traced := range []bool{false, true} {
			va, vb := collect(a, ws.Name, traced), collect(b, ws.Name, traced)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			kind := "end to end"
			if traced {
				kind = "per layer"
			}
			fmt.Fprintf(w, "\n%s (%s)\n%-34s %14s %14s %9s %7s  %s\n", ws.Name, kind, "metric", "base", "change", "rel", "bound", "verdict")
			for _, s := range specsFor(traced) {
				xa, xb := va[s.Name], vb[s.Name]
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				ma, mb := median(xa), median(xb)
				rel := 0.0
				if ma != 0 {
					rel = (mb - ma) / ma
				}
				verdict := ""
				switch {
				case traced && s.Exact:
					verdict = "same"
					if ma != mb {
						verdict, worse = "DIFFERS (exact-repeat count)", true
					}
				case traced:
					// Layer metrics carry no bound.
				default:
					bad := rel
					if s.Better == "higher" {
						bad = -rel
					}
					switch {
					case bad <= s.Bound:
						verdict = "ok"
					case spread(xa) > s.Bound:
						verdict = "unresolved"
					default:
						verdict, worse = "worse", true
					}
				}
				bound := ""
				if !traced {
					bound = fmt.Sprintf("%.2f", s.Bound)
				}
				fmt.Fprintf(w, "%-34s %14.4f %14.4f %+8.1f%% %7s  %s\n", s.Name, ma, mb, 100*rel, bound, verdict)
			}
		}
	}
	return worse, nil
}

// collect gathers a workload's values per metric across a file's runs.
func collect(f *resultFile, workload string, traced bool) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range f.Runs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		for k, v := range r.Metrics {
			out[k] = append(out[k], v)
		}
	}
	return out
}

// spread is the interquartile range of xs as a share of their median; 0
// for fewer than four values (no spread can be told).
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := percentile(s, 0.25), percentile(s, 0.75)
	if m := median(s); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}
