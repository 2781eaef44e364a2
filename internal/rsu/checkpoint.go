package rsu

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"cad3/internal/core"
	"cad3/internal/geo"
	"cad3/internal/obsv"
	"cad3/internal/stream"
)

// CheckpointVersion guards the checkpoint layout Recover accepts.
const CheckpointVersion = 1

// ErrNilCheckpoint rejects Recover without a checkpoint.
var ErrNilCheckpoint = errors.New("rsu: nil checkpoint")

// Checkpoint is a node's durable state: everything a replacement process
// needs to resume detection where the crashed one stopped. The trained
// detector rides the core persistence bundle; the summary store, summary
// builder and road profile ride their snapshot types; the two consumer
// offset vectors pin the read positions so restored nodes neither skip
// nor re-process records that survived in the broker log.
type Checkpoint struct {
	Version   int             `json:"version"`
	Name      string          `json:"name"`
	Road      int64           `json:"road"`
	TakenAtMs int64           `json:"takenAtMs"`
	Detector  json.RawMessage `json:"detector"`

	Summaries []core.PredictionSummary `json:"summaries,omitempty"`
	Builder   core.BuilderSnapshot     `json:"builder"`
	Profile   ProfileSnapshot          `json:"profile"`

	InOffsets []int64 `json:"inOffsets"`
	CoOffsets []int64 `json:"coOffsets"`

	// Metrics carries the node's observability-registry snapshot so the
	// cumulative counters and latency histograms survive a restart — a
	// recovered node's /metrics continues from the crash point instead of
	// restarting from zero (which would break monotonic-counter consumers).
	Metrics obsv.Snapshot `json:"metrics"`
}

// Checkpoint captures the node's current state. It is safe to call while
// the node is between Step calls (the scenario harness's rsu_crash
// checkpoints there); concurrent Steps see a consistent-enough snapshot
// since every component locks internally, but offsets are captured last
// so a record is re-processed rather than lost on an unlucky interleave.
func (n *Node) Checkpoint() (*Checkpoint, error) {
	var det bytes.Buffer
	if err := core.SaveDetector(&det, n.cfg.Detector); err != nil {
		return nil, fmt.Errorf("rsu %s: checkpoint detector: %w", n.cfg.Name, err)
	}
	return &Checkpoint{
		Version:   CheckpointVersion,
		Name:      n.cfg.Name,
		Road:      int64(n.cfg.Road),
		TakenAtMs: n.cfg.Now().UnixMilli(),
		Detector:  json.RawMessage(det.Bytes()),
		Summaries: n.summaries.Snapshot(),
		Builder:   n.builder.Snapshot(),
		Profile:   n.profile.Snapshot(),
		InOffsets: n.inConsumer.Offsets(),
		CoOffsets: n.coConsumer.Offsets(),
		Metrics:   n.cfg.Metrics.Snapshot(),
	}, nil
}

// Recover builds a node from a checkpoint: the detector is loaded from
// the checkpoint bundle when cfg.Detector is nil, the summary store,
// builder and road profile are restored, and both consumers are
// positioned at the checkpointed offsets. cfg.Name and cfg.Road default
// to the checkpoint's when unset. The broker behind cfg.Client must hold
// a log compatible with the offsets: the node's own broker, which outlives
// the node process (replication and ReplicaSet.Revive keep the log). The
// checkpoint's metrics snapshot is restored into cfg.Metrics wholesale:
// every counter, gauge and histogram it names is overwritten, so a
// registry shared with other components is rewound to the checkpoint
// too — give the node a registry of its own.
func Recover(cfg Config, cp *Checkpoint) (*Node, error) {
	if cp == nil {
		return nil, ErrNilCheckpoint
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("rsu: checkpoint version %d, want %d", cp.Version, CheckpointVersion)
	}
	if cfg.Detector == nil {
		det, err := core.LoadDetector(bytes.NewReader(cp.Detector))
		if err != nil {
			return nil, fmt.Errorf("rsu: recover detector: %w", err)
		}
		cfg.Detector = det
	}
	if cfg.Name == "" {
		cfg.Name = cp.Name
	}
	if cfg.Road == 0 {
		cfg.Road = geo.SegmentID(cp.Road)
	}
	n, err := New(cfg)
	if err != nil {
		return nil, err
	}
	n.summaries.Restore(cp.Summaries)
	n.builder.Restore(cp.Builder)
	n.profile.Restore(cp.Profile)
	if err := n.inConsumer.SetOffsets(cp.InOffsets); err != nil {
		return nil, fmt.Errorf("rsu %s: recover %s offsets: %w", cfg.Name, stream.TopicInData, err)
	}
	if err := n.coConsumer.SetOffsets(cp.CoOffsets); err != nil {
		return nil, fmt.Errorf("rsu %s: recover %s offsets: %w", cfg.Name, stream.TopicCoData, err)
	}
	n.cfg.Metrics.Restore(cp.Metrics)
	return n, nil
}
