package scenario

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
)

// The regression corpus: a directory of checked-in spec files, each a
// scenario that once exposed (or pins against) a real failure. The
// runner replays every spec and fails on any regression; the explorer
// perturbs specs at random and, when a perturbation's assertions fail,
// delta-debugs it to a minimal failing spec and archives it — turning a
// random find into a permanent, replayable regression test.

// LoadCorpus reads every *.json spec under dir, sorted by filename so a
// corpus replay has a stable order. The filenames are returned alongside
// the specs for reporting.
func LoadCorpus(dir string) ([]*Spec, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: corpus: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("scenario: corpus %s holds no *.json specs", dir)
	}
	specs := make([]*Spec, 0, len(names))
	for _, name := range names {
		s, err := LoadSpec(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		specs = append(specs, s)
	}
	return specs, names, nil
}

// Explorer perturbs specs, hunts for assertion failures, and minimizes
// what it finds. All randomness comes from Rng, so an exploration
// session is reproducible from its seed.
type Explorer struct {
	Engine  *Engine
	Harness Harness
	Rng     *rand.Rand
	// MaxCandidates bounds the minimizer's candidate runs. Values <= 0
	// select 48.
	MaxCandidates int
}

// Finding is one minimized failing spec.
type Finding struct {
	// Spec is the minimized failing spec (seeded, replayable).
	Spec *Spec
	// Origin names the corpus spec the perturbation started from.
	Origin string
	// Candidates is how many runs the minimizer spent.
	Candidates int
	// Result is the minimized spec's (failing) run result.
	Result *Result
}

// Explore perturbs base up to tries times. The first perturbation whose
// run fails an assertion is minimized and returned; nil means every
// perturbation passed (the usual, healthy outcome).
func (x *Explorer) Explore(base *Spec, tries int) (*Finding, error) {
	for t := 0; t < tries; t++ {
		cand := x.Perturb(base)
		x.Engine.mExpCand.Inc()
		res, err := x.Engine.Run(cand, x.Harness)
		if err != nil {
			// A perturbation the harness cannot execute is noise, not a
			// finding; skip it.
			continue
		}
		if res.Pass {
			continue
		}
		x.Engine.mExpFail.Inc()
		min, n, err := x.Minimize(cand)
		if err != nil {
			return nil, err
		}
		final, err := x.Engine.Run(min, x.Harness)
		if err != nil {
			return nil, err
		}
		return &Finding{Spec: min, Origin: base.Name, Candidates: n + 1, Result: final}, nil
	}
	return nil, nil
}

// Perturb derives a random variant of base: a fresh seed and jittered
// rates, peaks, action rounds and probabilities. Structure (phases,
// action types, assertions) is preserved — the perturbation explores the
// parameter space the assertions were written for.
func (x *Explorer) Perturb(base *Spec) *Spec {
	s := base.Clone()
	s.Seed = x.Rng.Int63n(1 << 31)
	s.Name = fmt.Sprintf("%s-x%d", base.Name, s.Seed)
	jitter := func(v float64) float64 { return v * (0.75 + 0.5*x.Rng.Float64()) }
	for i := range s.Phases {
		ph := &s.Phases[i]
		ph.Traffic.Rate = jitter(ph.Traffic.Rate)
		if ph.Traffic.Peak > 0 {
			ph.Traffic.Peak = jitter(ph.Traffic.Peak)
			if ph.Traffic.Peak < ph.Traffic.Rate {
				ph.Traffic.Peak = ph.Traffic.Rate
			}
		}
		for j := range ph.Actions {
			a := &ph.Actions[j]
			span := ph.Rounds
			if a.Rounds > 0 {
				span = ph.Rounds - a.Rounds
			}
			if span > 1 {
				a.At = x.Rng.Intn(span)
			}
			clampProb := func(p float64) float64 {
				p = jitter(p)
				if p > 1 {
					p = 1
				}
				return p
			}
			if a.Prob > 0 {
				a.Prob = clampProb(a.Prob)
			}
			if a.ToProb > 0 {
				a.ToProb = clampProb(a.ToProb)
			}
		}
	}
	return s
}

// Minimize delta-debugs a failing spec: it drops phases, drops halves of
// each phase's action list (then single actions), and halves round
// counts — keeping each simplification only if the spec still fails —
// until a fixpoint or the candidate budget. The returned spec fails by
// construction; the int is the number of candidate runs spent.
func (x *Explorer) Minimize(spec *Spec) (*Spec, int, error) {
	budget := x.MaxCandidates
	if budget <= 0 {
		budget = 48
	}
	runs := 0
	fails := func(s *Spec) bool {
		if runs >= budget {
			return false
		}
		if s.Validate() != nil {
			return false
		}
		runs++
		x.Engine.mExpCand.Inc()
		res, err := x.Engine.Run(s, x.Harness)
		return err == nil && !res.Pass
	}
	if !fails(spec) {
		return nil, runs, fmt.Errorf("scenario: minimize: spec %q does not fail", spec.Name)
	}
	cur := spec.Clone()
	for changed := true; changed && runs < budget; {
		changed = false
		// Drop whole phases (keep at least one).
		for i := 0; len(cur.Phases) > 1 && i < len(cur.Phases); i++ {
			cand := cur.Clone()
			cand.Phases = append(cand.Phases[:i], cand.Phases[i+1:]...)
			if fails(cand) {
				cur, changed = cand, true
				i--
			}
		}
		// Drop action halves, then stragglers, per phase.
		for pi := range cur.Phases {
			acts := cur.Phases[pi].Actions
			if len(acts) > 1 {
				for _, keep := range [][2]int{{len(acts) / 2, len(acts)}, {0, len(acts) / 2}} {
					cand := cur.Clone()
					cand.Phases[pi].Actions = append([]ActionSpec(nil), acts[keep[0]:keep[1]]...)
					if fails(cand) {
						cur, changed = cand, true
						break
					}
				}
			}
			for ai := 0; ai < len(cur.Phases[pi].Actions); ai++ {
				cand := cur.Clone()
				cand.Phases[pi].Actions = append(
					append([]ActionSpec(nil), cur.Phases[pi].Actions[:ai]...),
					cur.Phases[pi].Actions[ai+1:]...)
				if fails(cand) {
					cur, changed = cand, true
					ai--
				}
			}
		}
		// Halve round counts.
		for pi := range cur.Phases {
			if cur.Phases[pi].Rounds > 1 {
				cand := cur.Clone()
				cand.Phases[pi].Rounds /= 2
				if fails(cand) {
					cur, changed = cand, true
				}
			}
		}
	}
	cur.Notes = fmt.Sprintf("minimized from %s (%d candidate runs); %s", spec.Name, runs, spec.Notes)
	return cur, runs, nil
}

// Archive writes a minimized failing spec into the corpus directory as
// minimized-<name>-<hash>.json and returns the path. The hash covers the
// canonical JSON, so archiving the same finding twice is idempotent.
func (x *Explorer) Archive(spec *Spec, dir string) (string, error) {
	data, err := spec.Marshal()
	if err != nil {
		return "", err
	}
	h := fnv.New32a()
	h.Write(data)
	path := filepath.Join(dir, fmt.Sprintf("minimized-%08x.json", h.Sum32()))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("scenario: archive: %w", err)
	}
	x.Engine.mExpArch.Inc()
	return path, nil
}
