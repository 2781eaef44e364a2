package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// SpecVersion is the only spec version this engine parses. Bumping it is
// a deliberate act: old corpus files must either still parse or be
// migrated, never silently reinterpreted.
const SpecVersion = 1

// Spec is one versioned scenario: a named, seeded sequence of phases.
type Spec struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	Seed    int64  `json:"seed"`
	// Notes is free-form documentation carried with the spec (what the
	// scenario reproduces, which PR's failure it pins).
	Notes  string      `json:"notes,omitempty"`
	Phases []PhaseSpec `json:"phases"`
}

// PhaseSpec is one phase: rounds of shaped traffic, fault actions at
// round offsets, and assertions evaluated against the phase-end
// measurements.
type PhaseSpec struct {
	Name    string      `json:"name"`
	Rounds  int         `json:"rounds"`
	Traffic TrafficSpec `json:"traffic"`
	// Settle asks the engine to run the harness's settle procedure
	// (flush pending produces, drain in-flight warnings, let the control
	// plane re-sync) before measuring. The final phase always settles.
	Settle     bool            `json:"settle,omitempty"`
	Actions    []ActionSpec    `json:"actions,omitempty"`
	Assertions []AssertionSpec `json:"assertions,omitempty"`
}

// TrafficSpec selects and parameterises a traffic shape.
type TrafficSpec struct {
	// Shape is one of steady, surge, shockwave, platoon, storm, spoof.
	Shape string `json:"shape"`
	// Rate is the base offered-load multiplier (1.0 = nominal).
	Rate float64 `json:"rate"`
	// Peak is the target multiplier for surge (reached at the last
	// round) and the in-window multiplier for shockwave.
	Peak float64 `json:"peak,omitempty"`
	// AtFrac centres the shockwave window within the phase [0,1].
	AtFrac float64 `json:"at_frac,omitempty"`
	// WidthFrac is the shockwave window width as a fraction of the phase.
	WidthFrac float64 `json:"width_frac,omitempty"`
	// Size and Every shape platoon bursts: Size extra records every
	// Every rounds.
	Size  int `json:"size,omitempty"`
	Every int `json:"every,omitempty"`
	// FaultFrac is the sensor-fault fraction (storm always, shockwave
	// inside its window).
	FaultFrac float64 `json:"fault_frac,omitempty"`
	// SpoofFrac is the adversarial spoofed-telemetry fraction (spoof).
	SpoofFrac float64 `json:"spoof_frac,omitempty"`
}

// ActionSpec is one declared fault action. At is the round offset within
// the phase at which it fires (before that round's traffic). The field
// set each type consumes is validated; see SCENARIOS.md for semantics.
type ActionSpec struct {
	At      int     `json:"at"`
	Type    string  `json:"type"`
	Replica string  `json:"replica,omitempty"`
	From    string  `json:"from,omitempty"`
	To      string  `json:"to,omitempty"`
	Both    bool    `json:"both,omitempty"`
	Prob    float64 `json:"prob,omitempty"`
	// FromProb/ToProb bound a ramp's interpolated probability.
	FromProb float64 `json:"from_prob,omitempty"`
	ToProb   float64 `json:"to_prob,omitempty"`
	MinMs    int     `json:"min_ms,omitempty"`
	MaxMs    int     `json:"max_ms,omitempty"`
	// Rounds is a ramp's span or a flap's down time.
	Rounds int   `json:"rounds,omitempty"`
	SkewMs int64 `json:"skew_ms,omitempty"`
}

// AssertionSpec is one phase-end pass/fail check: measurement Op value.
type AssertionSpec struct {
	Metric string  `json:"metric"`
	Op     string  `json:"op"`
	Value  float64 `json:"value"`
}

// shapeNames is the traffic-shape vocabulary.
var shapeNames = map[string]bool{
	"steady": true, "surge": true, "shockwave": true,
	"platoon": true, "storm": true, "spoof": true,
}

// declaredActions maps every spec-level action type to whether it is a
// macro (expanded at compile time) or fires as-is.
var declaredActions = map[string]bool{
	"partition": false, "heal": false, "heal_all": false,
	"kill_leader": false, "kill": false, "revive": false,
	"link_loss": false, "link_delay": false, "link_dup": false,
	"clock_skew": false, "reorder": false,
	"join": false, "rsu_crash": false, "rsu_recover": false,
	"loss_ramp": true, "delay_ramp": true, "rsu_flap": true,
}

// ParseSpec parses and validates a spec from JSON. Unknown fields are
// errors — a typoed parameter must not silently become a default.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("scenario: parse: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads and parses one spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Marshal renders the spec as the canonical indented JSON the corpus
// stores — stable byte-for-byte for a given spec, so archived files diff
// cleanly.
func (s *Spec) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: marshal: %w", err)
	}
	return append(data, '\n'), nil
}

// Clone deep-copies the spec (the explorer mutates copies, never the
// corpus originals).
func (s *Spec) Clone() *Spec {
	out := *s
	out.Phases = make([]PhaseSpec, len(s.Phases))
	for i, ph := range s.Phases {
		cp := ph
		cp.Actions = append([]ActionSpec(nil), ph.Actions...)
		cp.Assertions = append([]AssertionSpec(nil), ph.Assertions...)
		out.Phases[i] = cp
	}
	return &out
}

// Validate checks the spec structurally: version, naming, phase and
// action parameters, assertion grammar. Error messages carry the path to
// the offending element so a corpus author can fix specs from the
// message alone.
func (s *Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("scenario: unsupported spec version %d (engine speaks %d)", s.Version, SpecVersion)
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %q: needs at least one phase", s.Name)
	}
	seen := map[string]bool{}
	for i, ph := range s.Phases {
		at := fmt.Sprintf("scenario %q phase %d", s.Name, i)
		if ph.Name == "" {
			return fmt.Errorf("%s: needs a name", at)
		}
		at = fmt.Sprintf("scenario %q phase %d (%q)", s.Name, i, ph.Name)
		if seen[ph.Name] {
			return fmt.Errorf("%s: duplicate phase name", at)
		}
		seen[ph.Name] = true
		if ph.Rounds < 1 {
			return fmt.Errorf("%s: rounds must be >= 1, got %d", at, ph.Rounds)
		}
		if err := ph.Traffic.validate(); err != nil {
			return fmt.Errorf("%s: traffic: %w", at, err)
		}
		for j, a := range ph.Actions {
			if err := a.validate(ph.Rounds); err != nil {
				return fmt.Errorf("%s action %d: %w", at, j, err)
			}
		}
		for j, as := range ph.Assertions {
			if err := as.validate(); err != nil {
				return fmt.Errorf("%s assertion %d: %w", at, j, err)
			}
		}
	}
	return nil
}

func (t TrafficSpec) validate() error {
	if !shapeNames[t.Shape] {
		return fmt.Errorf("unknown shape %q", t.Shape)
	}
	if t.Rate <= 0 {
		return fmt.Errorf("shape %q needs rate > 0, got %g", t.Shape, t.Rate)
	}
	switch t.Shape {
	case "surge", "shockwave":
		if t.Peak < t.Rate {
			return fmt.Errorf("shape %q needs peak >= rate, got peak %g < rate %g", t.Shape, t.Peak, t.Rate)
		}
	}
	switch t.Shape {
	case "shockwave":
		if t.AtFrac < 0 || t.AtFrac > 1 {
			return fmt.Errorf("shockwave at_frac must be in [0,1], got %g", t.AtFrac)
		}
		if t.WidthFrac <= 0 || t.WidthFrac > 1 {
			return fmt.Errorf("shockwave width_frac must be in (0,1], got %g", t.WidthFrac)
		}
	case "platoon":
		if t.Size < 1 {
			return fmt.Errorf("platoon needs size >= 1, got %d", t.Size)
		}
		if t.Every < 1 {
			return fmt.Errorf("platoon needs every >= 1, got %d", t.Every)
		}
	case "storm":
		if t.FaultFrac <= 0 || t.FaultFrac > 1 {
			return fmt.Errorf("storm fault_frac must be in (0,1], got %g", t.FaultFrac)
		}
	case "spoof":
		if t.SpoofFrac <= 0 || t.SpoofFrac > 1 {
			return fmt.Errorf("spoof spoof_frac must be in (0,1], got %g", t.SpoofFrac)
		}
	}
	if t.FaultFrac < 0 || t.FaultFrac > 1 {
		return fmt.Errorf("fault_frac must be in [0,1], got %g", t.FaultFrac)
	}
	if t.SpoofFrac < 0 || t.SpoofFrac > 1 {
		return fmt.Errorf("spoof_frac must be in [0,1], got %g", t.SpoofFrac)
	}
	if t.FaultFrac+t.SpoofFrac > 1 {
		return fmt.Errorf("fault_frac + spoof_frac must not exceed 1, got %g", t.FaultFrac+t.SpoofFrac)
	}
	return nil
}

func probField(name string, v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("%s must be in [0,1], got %g", name, v)
	}
	return nil
}

func (a ActionSpec) validate(phaseRounds int) error {
	if _, ok := declaredActions[a.Type]; !ok {
		return fmt.Errorf("unknown type %q", a.Type)
	}
	if a.At < 0 || a.At >= phaseRounds {
		return fmt.Errorf("%s at %d is outside the phase's %d rounds", a.Type, a.At, phaseRounds)
	}
	switch a.Type {
	case "partition", "heal":
		if a.From == "" || a.To == "" {
			return fmt.Errorf("%s needs from and to link names", a.Type)
		}
	case "kill":
		if a.Replica == "" {
			return fmt.Errorf("kill needs a replica")
		}
	case "rsu_flap":
		if a.Replica == "" {
			return fmt.Errorf("rsu_flap needs a replica")
		}
		if a.Rounds < 1 {
			return fmt.Errorf("rsu_flap needs rounds >= 1 (the down time), got %d", a.Rounds)
		}
		if a.At+a.Rounds >= phaseRounds {
			return fmt.Errorf("rsu_flap revive at round %d is outside the phase's %d rounds", a.At+a.Rounds, phaseRounds)
		}
	case "link_loss", "link_dup", "reorder":
		if err := probField(a.Type+" prob", a.Prob); err != nil {
			return err
		}
	case "link_delay":
		if err := probField("link_delay prob", a.Prob); err != nil {
			return err
		}
		if a.MaxMs <= 0 {
			return fmt.Errorf("link_delay needs max_ms > 0, got %d", a.MaxMs)
		}
		if a.MinMs < 0 || a.MinMs > a.MaxMs {
			return fmt.Errorf("link_delay needs 0 <= min_ms <= max_ms, got %d..%d", a.MinMs, a.MaxMs)
		}
	case "loss_ramp", "delay_ramp":
		if err := probField(a.Type+" from_prob", a.FromProb); err != nil {
			return err
		}
		if err := probField(a.Type+" to_prob", a.ToProb); err != nil {
			return err
		}
		if a.Rounds < 2 {
			return fmt.Errorf("%s needs rounds >= 2 to interpolate over, got %d", a.Type, a.Rounds)
		}
		if a.At+a.Rounds > phaseRounds {
			return fmt.Errorf("%s ends at round %d, outside the phase's %d rounds", a.Type, a.At+a.Rounds-1, phaseRounds)
		}
		if a.Type == "delay_ramp" {
			if a.MaxMs <= 0 {
				return fmt.Errorf("delay_ramp needs max_ms > 0, got %d", a.MaxMs)
			}
			if a.MinMs < 0 || a.MinMs > a.MaxMs {
				return fmt.Errorf("delay_ramp needs 0 <= min_ms <= max_ms, got %d..%d", a.MinMs, a.MaxMs)
			}
		}
	}
	return nil
}

func (a AssertionSpec) validate() error {
	if a.Metric == "" {
		return fmt.Errorf("assertion needs a metric")
	}
	if _, ok := opFns[a.Op]; !ok {
		return fmt.Errorf("unknown op %q (want one of ==, !=, <, <=, >, >=)", a.Op)
	}
	return nil
}
