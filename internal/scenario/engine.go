package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"cad3/internal/obsv"
)

// Engine executes compiled plans against a harness and evaluates their
// assertions. One engine serves many runs (the corpus runner and the
// explorer share one); per-run state lives on the stack of Run.
//
// The engine is clockless: rounds are pure counters, all timing lives
// behind the Harness on a virtual clock. That keeps the executor inside
// the cad3-vet virtualclock discipline and makes the transcript — the
// run's canonical record — a deterministic function of (spec, harness
// seed).
type Engine struct {
	mRuns       *obsv.Counter
	mRunsFailed *obsv.Counter
	mPhases     *obsv.Counter
	mRounds     *obsv.Counter
	mActions    *obsv.Counter
	mActionErrs *obsv.Counter
	mAssertPass *obsv.Counter
	mAssertFail *obsv.Counter
	mExpCand    *obsv.Counter
	mExpFail    *obsv.Counter
	mExpArch    *obsv.Counter
	gPhase      *obsv.Gauge
}

// Config configures an Engine.
type Config struct {
	// Metrics, when set, receives the scenario.* counter family
	// (OBSERVABILITY.md). Nil gives the engine a private registry.
	Metrics *obsv.Registry
}

// New builds an engine and registers its metric handles eagerly — the
// whole scenario.* family exists (at zero) from construction, so the
// inventory conformance test sees it without running a scenario.
func New(cfg Config) *Engine {
	reg := cfg.Metrics
	if reg == nil {
		reg = obsv.NewRegistry()
	}
	return &Engine{
		mRuns:       reg.Counter("scenario.runs"),
		mRunsFailed: reg.Counter("scenario.runs.failed"),
		mPhases:     reg.Counter("scenario.phases"),
		mRounds:     reg.Counter("scenario.rounds"),
		mActions:    reg.Counter("scenario.actions"),
		mActionErrs: reg.Counter("scenario.action_errors"),
		mAssertPass: reg.Counter("scenario.assert.pass"),
		mAssertFail: reg.Counter("scenario.assert.fail"),
		mExpCand:    reg.Counter("scenario.explorer.candidates"),
		mExpFail:    reg.Counter("scenario.explorer.failures"),
		mExpArch:    reg.Counter("scenario.explorer.archived"),
		gPhase:      reg.Gauge("scenario.phase"),
	}
}

// PhaseResult is one executed phase's outcome.
type PhaseResult struct {
	Name string
	// Fired lists the fired actions (rendered) in firing order.
	Fired        []string
	Measurements Measurements
	Assertions   []AssertionResult
}

// Result is one run's outcome.
type Result struct {
	Spec   *Spec
	Phases []PhaseResult
	// Pass is true when every assertion of every phase passed.
	Pass bool
	// Failures is the total failed-assertion count.
	Failures int
	// Transcript is the run's canonical record: byte-identical across
	// runs of the same (spec, harness seed) — the determinism contract
	// the regression corpus asserts.
	Transcript string
}

// Run compiles and executes a spec.
func (e *Engine) Run(spec *Spec, h Harness) (*Result, error) {
	plan, err := Compile(spec)
	if err != nil {
		return nil, err
	}
	return e.RunPlan(plan, h)
}

// fnum renders a float64 deterministically for transcripts.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// RunPlan executes a compiled plan.
func (e *Engine) RunPlan(plan *Plan, h Harness) (*Result, error) {
	spec := plan.Spec
	res := &Result{Spec: spec, Pass: true}
	var tb strings.Builder
	fmt.Fprintf(&tb, "scenario %s version=%d seed=%d phases=%d\n",
		spec.Name, spec.Version, spec.Seed, len(plan.Phases))

	if err := h.Reset(spec.Seed); err != nil {
		return nil, fmt.Errorf("scenario %q: reset: %w", spec.Name, err)
	}
	absRound := 0
	for pi, ph := range plan.Phases {
		e.gPhase.Set(int64(pi))
		e.mPhases.Inc()
		fmt.Fprintf(&tb, "phase %s rounds=%d actions=%d\n", ph.Name, ph.Rounds, ph.ActionCount())
		if err := h.BeginPhase(ph.Name); err != nil {
			return nil, fmt.Errorf("scenario %q phase %q: begin: %w", spec.Name, ph.Name, err)
		}
		pr := PhaseResult{Name: ph.Name}
		for i := 0; i < ph.Rounds; i++ {
			for _, a := range ph.Actions[i] {
				e.mActions.Inc()
				rendered := a.String()
				if err := h.Apply(a); err != nil {
					// Survivable by design: a minimized spec may fire an
					// action its context no longer supports (revive with
					// nothing killed). The transcript records it; the
					// phase's assertions decide whether it mattered.
					e.mActionErrs.Inc()
					rendered += " !error: " + err.Error()
				}
				pr.Fired = append(pr.Fired, rendered)
				fmt.Fprintf(&tb, "  @%-4d action %s\n", i, rendered)
			}
			tr := ph.Traffic(i)
			tr.Round = absRound
			if err := h.Round(tr); err != nil {
				return nil, fmt.Errorf("scenario %q phase %q round %d: %w", spec.Name, ph.Name, i, err)
			}
			absRound++
			e.mRounds.Inc()
		}
		if ph.Settle {
			if err := h.Settle(); err != nil {
				return nil, fmt.Errorf("scenario %q phase %q: settle: %w", spec.Name, ph.Name, err)
			}
			fmt.Fprintf(&tb, "  settle\n")
		}
		m, err := h.Measure()
		if err != nil {
			return nil, fmt.Errorf("scenario %q phase %q: measure: %w", spec.Name, ph.Name, err)
		}
		pr.Measurements = m
		for _, k := range sortedKeys(m) {
			fmt.Fprintf(&tb, "  measure %s=%s\n", k, fnum(m[k]))
		}
		for _, as := range ph.Assertions {
			ar := as.Eval(m)
			pr.Assertions = append(pr.Assertions, ar)
			verdict := "PASS"
			detail := "got " + fnum(ar.Got)
			if !ar.Found {
				detail = "metric absent"
			}
			if !ar.Pass {
				verdict = "FAIL"
				res.Pass = false
				res.Failures++
				e.mAssertFail.Inc()
			} else {
				e.mAssertPass.Inc()
			}
			fmt.Fprintf(&tb, "  assert %s %s %s :: %s (%s)\n",
				as.Metric, as.Op, fnum(as.Value), verdict, detail)
		}
		res.Phases = append(res.Phases, pr)
	}
	if res.Pass {
		fmt.Fprintf(&tb, "verdict PASS\n")
	} else {
		fmt.Fprintf(&tb, "verdict FAIL failures=%d\n", res.Failures)
	}
	res.Transcript = tb.String()
	e.mRuns.Inc()
	if !res.Pass {
		e.mRunsFailed.Inc()
	}
	return res, nil
}
