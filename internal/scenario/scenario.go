// Package scenario is a declarative, deterministic scenario engine for
// the CAD3 substrate: fault + traffic + assertion studies written as
// versioned JSON specs instead of bespoke Go programs.
//
// A spec (spec.go) names a sequence of phases — the canonical shape is
// stabilize → inject → recover — each with a traffic shape (steady
// corridor replay, rush-hour surge, accident shockwave, platoon burst,
// sensor-fault storm, adversarial spoofed telemetry), a list of fault
// actions fired at round offsets (partition, leader kill/revive, link
// loss/delay/dup and their ramps, RSU flap, clock skew, reorder, node
// crash/recover, consumer-group join), and
// pass/fail assertions evaluated over the measurements the harness
// reports at the end of the phase (warning p99 ceiling, FN floor, shed
// fraction, acked-loss == 0, ISR recovery, …).
//
// The engine (engine.go) compiles a spec into a Plan — ramps expand into
// per-round actions, traffic shapes into pure per-round rate functions —
// and executes it round by round against a Harness, the interface a
// system under test implements (internal/experiments wires the full
// corridor pipeline: replicated broker, chaos injector, paced fleet,
// RSU node). The engine itself is clockless and pure: all timing lives
// behind the Harness on a virtual clock, so a run is a deterministic
// function of (spec, seed) and its transcript is byte-stable — the
// property the regression corpus (corpus.go) depends on.
//
// The corpus runner replays a directory of checked-in specs (known-bad
// seeds that once exposed real failures) and fails on any regression;
// the explorer perturbs specs at random, and when a perturbation fails
// its assertions, delta-debugs it down to a minimal failing spec and
// archives it into the corpus. See SCENARIOS.md for the operator-facing
// reference and cmd/cad3-scenario / `make scenarios` for the CLI.
package scenario

// Measurements is what a Harness reports at the end of a phase: a flat
// name → value map the assertion evaluator matches against. Which names
// exist, their units, and whether they are phase-scoped deltas or
// run-cumulative values is a property of the harness; SCENARIOS.md
// documents the corridor harness's inventory. An assertion naming an
// absent measurement fails (a misspelled metric must not pass silently).
type Measurements map[string]float64

// Action is one compiled fault action, fired by the engine at a round
// boundary (before that round's traffic). Ramps and flaps from the spec
// are already expanded: the runtime vocabulary is exactly
//
//	partition, heal, heal_all       — named directed links (From/To/Both)
//	kill_leader, kill, revive       — broker replicas (Replica)
//	link_loss, link_delay, link_dup — injector fault probabilities (Prob,
//	                                  MinMs/MaxMs for delay bounds)
//	clock_skew                      — vehicle clock offset (SkewMs)
//	reorder                         — send-queue adjacent-swap probability
//	join                            — one more OUT-DATA group member
//	rsu_crash, rsu_recover          — the RSU node dies / resumes from
//	                                  its last checkpoint
type Action struct {
	Type    string
	Replica string
	From    string
	To      string
	Both    bool
	Prob    float64
	MinMs   int
	MaxMs   int
	SkewMs  int64
}

// Traffic is one round's traffic order, computed by the compiled shape.
type Traffic struct {
	// Round is the absolute round index across the whole run.
	Round int
	// Rate is the offered-load multiplier for this round (1.0 = the
	// nominal fleet rate).
	Rate float64
	// Burst is the number of extra ledgered records this round (a
	// platoon passing the RSU in one window).
	Burst int
	// SpoofFrac is the fraction of ledgered records replaced by
	// adversarial spoofed telemetry (forged car IDs, impossible
	// kinematics).
	SpoofFrac float64
	// FaultFrac is the fraction of ledgered records corrupted as if by a
	// failing sensor (extreme speed/acceleration readings).
	FaultFrac float64
}

// Harness is the system under test. The engine calls, in order:
// Reset(seed) once; then per phase BeginPhase, Round for every round
// (actions due at a round are Applied first), Settle at the end of a
// phase that requests it (always on the final phase), and Measure.
//
// The contract that makes the corpus replayable: given the same seed and
// the same call sequence, a harness must behave identically — all
// randomness from one seeded PRNG, all timing from a virtual clock, no
// map-ordered iteration affecting observable results. Apply errors are
// recorded and survivable (a minimized spec may revive a replica that
// was never killed); Reset/BeginPhase/Round/Settle/Measure errors abort
// the run.
type Harness interface {
	Reset(seed int64) error
	BeginPhase(name string) error
	Round(tr Traffic) error
	Apply(a Action) error
	Settle() error
	Measure() (Measurements, error)
}
