package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cad3/internal/metrics"
	"cad3/internal/netem"
)

// The access-link scalability study (§VII-B): a dense RSU deployment must
// avoid co-channel interference between adjacent nodes. This experiment
// places RSUs along a congested corridor at the paper's dense spacing
// (125 m), assigns service channels with the manager, and measures the
// residual co-channel conflicts — then injects interference reports and
// counts the resulting channel switches.

// InterferenceConfig configures the study.
type InterferenceConfig struct {
	// RSUs along the corridor. Values <= 0 select 20.
	RSUs int
	// SpacingMeters between adjacent RSUs. Values <= 0 select 125 (the
	// paper's dense-deployment example).
	SpacingMeters float64
	// InterferenceRangeMeters for co-channel conflict. Values <= 0
	// select 600.
	InterferenceRangeMeters float64
	// Seed drives the interference reports.
	Seed int64
}

func (c InterferenceConfig) withDefaults() InterferenceConfig {
	if c.RSUs <= 0 {
		c.RSUs = 20
	}
	if c.SpacingMeters <= 0 {
		c.SpacingMeters = 125
	}
	if c.InterferenceRangeMeters <= 0 {
		c.InterferenceRangeMeters = 600
	}
	return c
}

// InterferenceResult summarises the study.
type InterferenceResult struct {
	RSUs          int
	SpacingMeters float64
	// NaiveConflicts is the co-channel pair count if every RSU used one
	// shared channel (the no-management baseline).
	NaiveConflicts int
	// ManagedConflicts is the count after channel assignment.
	ManagedConflicts int
	// Switches performed while reacting to injected interference.
	Switches int
	// MCS is the modulation the dense deployment uses and the resulting
	// per-RSU capacity check (400 vehicles under 85 ms, §VII-B).
	MCS            netem.MCS
	Dense400OK     bool
	Dense400Access string
}

// RunInterference executes the study.
func RunInterference(cfg InterferenceConfig) (*InterferenceResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Baseline: all on one channel — every pair within range conflicts.
	naive := 0
	for i := 0; i < cfg.RSUs; i++ {
		for j := i + 1; j < cfg.RSUs; j++ {
			if float64(j-i)*cfg.SpacingMeters <= cfg.InterferenceRangeMeters {
				naive++
			}
		}
	}

	mgr := netem.NewChannelManager(cfg.InterferenceRangeMeters, 0.5)
	for i := 0; i < cfg.RSUs; i++ {
		name := fmt.Sprintf("rsu-%02d", i)
		if _, err := mgr.AddSite(name, float64(i)*cfg.SpacingMeters, 0); err != nil {
			return nil, err
		}
	}
	managed := len(mgr.Conflicts())

	// Inject interference reports on the conflicted sites.
	for round := 0; round < 3; round++ {
		for _, pair := range mgr.Conflicts() {
			if _, err := mgr.ReportInterference(pair[0], 0.6+0.4*rng.Float64()); err != nil {
				return nil, err
			}
		}
	}

	// Per-RSU capacity at the dense deployment's modulation.
	mcs := netem.AdaptMCS(cfg.SpacingMeters)
	_, access, err := netem.FitsReportingPeriod(400, netem.ReportBytes, mcs)
	if err != nil {
		return nil, err
	}
	return &InterferenceResult{
		RSUs:             cfg.RSUs,
		SpacingMeters:    cfg.SpacingMeters,
		NaiveConflicts:   naive,
		ManagedConflicts: managed,
		Switches:         mgr.Switches(),
		MCS:              mcs,
		Dense400OK:       access <= 85_000_000, // 85 ms in ns
		Dense400Access:   access.String(),
	}, nil
}

// FormatInterference renders the study.
func FormatInterference(res *InterferenceResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d RSUs at %.0f m spacing\n", res.RSUs, res.SpacingMeters)
	fmt.Fprintf(&sb, "co-channel conflicts: %d naive (single channel) -> %d managed\n",
		res.NaiveConflicts, res.ManagedConflicts)
	fmt.Fprintf(&sb, "channel switches under injected interference: %d\n", res.Switches)
	fmt.Fprintf(&sb, "dense mode %s: 400 vehicles in %s (paper: under 85 ms) ok=%v\n",
		res.MCS, res.Dense400Access, res.Dense400OK)
	return sb.String()
}

// BackhaulRow is one row of the inter-RSU link comparison (§IV-A / §VII-D:
// Ethernet where RSUs are cabled, LTE/5G beyond cable reach).
type BackhaulRow struct {
	Kind netem.BackhaulKind
	Mean time.Duration
	P95  time.Duration
}

// RunBackhaulAnalysis samples the one-way delivery delay of a CO-DATA
// summary (~300 B) over each link technology.
func RunBackhaulAnalysis(seed int64) ([]BackhaulRow, error) {
	const payload = 300
	const samples = 2000
	kinds := []netem.BackhaulKind{netem.BackhaulEthernet, netem.Backhaul5G, netem.BackhaulLTE}
	rows := make([]BackhaulRow, 0, len(kinds))
	for _, kind := range kinds {
		link, err := netem.NewBackhaul(kind, seed)
		if err != nil {
			return nil, err
		}
		durs := make([]time.Duration, samples)
		for i := range durs {
			durs[i] = link.Delay(payload)
		}
		s := metrics.Summarize(durs)
		rows = append(rows, BackhaulRow{Kind: kind, Mean: s.Mean, P95: s.P95})
	}
	return rows, nil
}

// FormatBackhaulRows renders the comparison.
func FormatBackhaulRows(rows []BackhaulRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %12s %12s\n", "backhaul", "mean", "p95")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %12s %12s\n", r.Kind,
			r.Mean.Round(10*time.Microsecond), r.P95.Round(10*time.Microsecond))
	}
	return sb.String()
}
