package experiments

import (
	"fmt"
	"strings"
	"time"

	"cad3/internal/core"
	"cad3/internal/netem"
	"cad3/internal/trace"
)

// The loss-impact study quantifies what the paper's limitations section
// (§VII-E) flags as unverified: real DSRC links drop frames, increasingly
// so toward the edge of the RSU's range. Telemetry loss turns into missed
// detections — an abnormal record that never reaches the RSU can never be
// warned about. This experiment spreads vehicles across the coverage
// radius, applies the distance-dependent loss model with adaptive MCS,
// and measures delivery and warning ratios per distance band.

// LossConfig configures the study.
type LossConfig struct {
	// Vehicles spread uniformly across the coverage radius. Values <= 0
	// select 64.
	Vehicles int
	// RangeMeters is the RSU coverage radius. Values <= 0 select 900.
	RangeMeters float64
	// Rounds of 10 Hz reporting. Values <= 0 select 200.
	Rounds int
	// Seed drives placement, loss and replay.
	Seed int64
	// Records / Detector as in LatencyConfig. Required.
	Records  []trace.Record
	Detector core.Detector
}

func (c LossConfig) withDefaults() LossConfig {
	if c.Vehicles <= 0 {
		c.Vehicles = 64
	}
	if c.RangeMeters <= 0 {
		c.RangeMeters = 900
	}
	if c.Rounds <= 0 {
		c.Rounds = 200
	}
	return c
}

// LossBand aggregates one distance band.
type LossBand struct {
	FromM, ToM   float64
	Sent         int64
	Delivered    int64
	AbnormalSent int64
	AbnormalSeen int64
}

// DeliveryRatio returns delivered/sent.
func (b LossBand) DeliveryRatio() float64 {
	if b.Sent == 0 {
		return 0
	}
	return float64(b.Delivered) / float64(b.Sent)
}

// AbnormalCoverage returns the share of abnormal records that reached the
// RSU — the quantity lost frames eat into.
func (b LossBand) AbnormalCoverage() float64 {
	if b.AbnormalSent == 0 {
		return 0
	}
	return float64(b.AbnormalSeen) / float64(b.AbnormalSent)
}

// RunLossImpact executes the study: vehicles at fixed distances report at
// 10 Hz through a lossy adaptive-MCS medium. It runs no pipeline: the
// detector only labels each record abnormal or not, and a band's abnormal
// coverage is the share of abnormal records the medium delivered.
func RunLossImpact(cfg LossConfig) ([]LossBand, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Records) == 0 || cfg.Detector == nil {
		return nil, fmt.Errorf("experiments: loss study needs records and a detector")
	}
	medium, err := netem.NewMedium(netem.MediumConfig{
		Loss: &netem.LossModel{EdgeMeters: cfg.RangeMeters},
		Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	const bands = 6
	out := make([]LossBand, bands)
	for i := range out {
		out[i].FromM = float64(i) * cfg.RangeMeters / bands
		out[i].ToM = float64(i+1) * cfg.RangeMeters / bands
	}
	bandOf := func(d float64) *LossBand {
		i := int(d / cfg.RangeMeters * bands)
		if i >= bands {
			i = bands - 1
		}
		return &out[i]
	}

	// Fixed vehicle distances, uniform across the radius.
	dist := make([]float64, cfg.Vehicles)
	for v := range dist {
		dist[v] = (float64(v) + 0.5) * cfg.RangeMeters / float64(cfg.Vehicles)
	}

	now := simStart
	idx := 0
	for round := 0; round < cfg.Rounds; round++ {
		for v := 0; v < cfg.Vehicles; v++ {
			rec := cfg.Records[idx%len(cfg.Records)]
			idx++
			rec.Car = trace.CarID(v + 1)
			b := bandOf(dist[v])
			b.Sent++
			det, derr := cfg.Detector.Detect(rec, nil)
			abnormal := derr == nil && det.Abnormal()
			if abnormal {
				b.AbnormalSent++
			}
			_, okDelivered, terr := medium.TransmitFrom(fmt.Sprintf("v%d", v), core.RecordWireSize, now, dist[v])
			if terr != nil {
				return nil, terr
			}
			if !okDelivered {
				continue
			}
			b.Delivered++
			if abnormal {
				b.AbnormalSeen++
			}
		}
		now = now.Add(100 * time.Millisecond)
	}
	return out, nil
}

// FormatLossBands renders the study.
func FormatLossBands(bands []LossBand) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%14s %8s %10s %12s %16s\n", "distance(m)", "sent", "delivered", "delivery", "abn-coverage")
	for _, b := range bands {
		fmt.Fprintf(&sb, "%6.0f-%-7.0f %8d %10d %11.1f%% %15.1f%%\n",
			b.FromM, b.ToM, b.Sent, b.Delivered, b.DeliveryRatio()*100, b.AbnormalCoverage()*100)
	}
	return sb.String()
}
