package core

import (
	"encoding/json"
	"fmt"
	"io"

	"cad3/internal/geo"
)

// Detector persistence: trained detectors serialize to a tagged JSON
// bundle so models can be trained once (e.g. by cmd/cad3-train) and
// loaded by RSUs at startup instead of retraining.

// Bundle kinds.
const (
	kindAD3         = "AD3"
	kindCAD3        = "CAD3"
	kindCentralized = "Centralized"
)

type detectorBundle struct {
	Kind     string          `json:"kind"`
	RoadType int             `json:"roadType,omitempty"`
	NB       json.RawMessage `json:"nb,omitempty"`
	Tree     json.RawMessage `json:"tree,omitempty"`
	Weight   float64         `json:"weight,omitempty"`
	Road     int64           `json:"summaryRoad,omitempty"`
}

// SaveDetector writes a trained detector (AD3, CAD3 or Centralized) as
// JSON.
func SaveDetector(w io.Writer, det Detector) error {
	var b detectorBundle
	switch d := det.(type) {
	case *AD3:
		nb, err := json.Marshal(d.nb)
		if err != nil {
			return fmt.Errorf("save AD3: %w", err)
		}
		b = detectorBundle{Kind: kindAD3, RoadType: int(d.roadType), NB: nb}
	case *Centralized:
		nb, err := json.Marshal(d.nb)
		if err != nil {
			return fmt.Errorf("save centralized: %w", err)
		}
		b = detectorBundle{Kind: kindCentralized, NB: nb}
	case *CAD3:
		if !d.trained {
			return ErrNotTrained
		}
		nb, err := json.Marshal(d.local.nb)
		if err != nil {
			return fmt.Errorf("save CAD3 NB: %w", err)
		}
		tree, err := json.Marshal(d.tree)
		if err != nil {
			return fmt.Errorf("save CAD3 tree: %w", err)
		}
		b = detectorBundle{
			Kind:     kindCAD3,
			RoadType: int(d.local.roadType),
			NB:       nb,
			Tree:     tree,
			Weight:   d.weight,
			Road:     int64(d.summaryRoad),
		}
	default:
		return fmt.Errorf("core: cannot persist detector %T", det)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(b)
}

// LoadDetector reads a detector bundle written by SaveDetector.
func LoadDetector(r io.Reader) (Detector, error) {
	var b detectorBundle
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("core: decode detector bundle: %w", err)
	}
	switch b.Kind {
	case kindAD3:
		d := NewAD3(geo.RoadType(b.RoadType))
		if !d.roadType.Valid() {
			return nil, fmt.Errorf("core: AD3 bundle road type %d invalid", b.RoadType)
		}
		if err := json.Unmarshal(b.NB, d.nb); err != nil {
			return nil, fmt.Errorf("core: load AD3: %w", err)
		}
		return d, nil
	case kindCentralized:
		d := NewCentralized()
		if err := json.Unmarshal(b.NB, d.nb); err != nil {
			return nil, fmt.Errorf("core: load centralized: %w", err)
		}
		return d, nil
	case kindCAD3:
		rt := geo.RoadType(b.RoadType)
		if !rt.Valid() {
			return nil, fmt.Errorf("core: CAD3 bundle road type %d invalid", b.RoadType)
		}
		d := NewCAD3(rt, CAD3Config{
			Weight:      b.Weight,
			SummaryRoad: geo.SegmentID(b.Road),
		})
		if err := json.Unmarshal(b.NB, d.local.nb); err != nil {
			return nil, fmt.Errorf("core: load CAD3 NB: %w", err)
		}
		if err := json.Unmarshal(b.Tree, d.tree); err != nil {
			return nil, fmt.Errorf("core: load CAD3 tree: %w", err)
		}
		d.trained = true
		return d, nil
	default:
		return nil, fmt.Errorf("core: unknown detector kind %q", b.Kind)
	}
}
