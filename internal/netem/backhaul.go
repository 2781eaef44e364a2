package netem

import (
	"fmt"
	"math/rand"
	"time"
)

// Inter-RSU links: the paper's RSUs interconnect over "either coaxial or
// optical Ethernet ... or cellular communication (5G or LTE) as the
// latency requirements and data volumes are lower" (§IV-A), with §VII-D
// proposing LTE/5G for RSUs beyond DSRC range. Backhaul models those
// options as parametric one-way delay distributions plus a serialization
// rate, used to delay CO-DATA summary forwarding in the multi-RSU
// experiments.

// BackhaulKind selects a link technology.
type BackhaulKind int

// Link technologies from the paper.
const (
	BackhaulEthernet BackhaulKind = iota + 1
	BackhaulLTE
	Backhaul5G
)

// String implements fmt.Stringer.
func (k BackhaulKind) String() string {
	switch k {
	case BackhaulEthernet:
		return "ethernet"
	case BackhaulLTE:
		return "lte"
	case Backhaul5G:
		return "5g"
	default:
		return "backhaul"
	}
}

// Backhaul is a point-to-point inter-RSU link.
type Backhaul struct {
	kind    BackhaulKind
	base    time.Duration // propagation + scheduling floor
	jitter  time.Duration // uniform +- jitter
	rateBps float64       // serialization rate (bits/s)
	rng     *rand.Rand
}

// Backhaul presets: one-way latency floors and typical jitter from the
// V2X literature the paper cites — wired Ethernet sub-millisecond, LTE
// tens of milliseconds, 5G URLLC a few milliseconds.
func backhaulPreset(kind BackhaulKind) (base, jitter time.Duration, rate float64, err error) {
	switch kind {
	case BackhaulEthernet:
		return 300 * time.Microsecond, 100 * time.Microsecond, 1e9, nil
	case BackhaulLTE:
		return 25 * time.Millisecond, 15 * time.Millisecond, 20e6, nil
	case Backhaul5G:
		return 3 * time.Millisecond, 1500 * time.Microsecond, 100e6, nil
	default:
		return 0, 0, 0, fmt.Errorf("netem: unknown backhaul kind %d", int(kind))
	}
}

// NewBackhaul creates a link of the given technology.
func NewBackhaul(kind BackhaulKind, seed int64) (*Backhaul, error) {
	base, jitter, rate, err := backhaulPreset(kind)
	if err != nil {
		return nil, err
	}
	return &Backhaul{
		kind: kind, base: base, jitter: jitter, rateBps: rate,
		rng: rand.New(rand.NewSource(seed)),
	}, nil
}

// Delay returns the one-way transfer time of a payload: floor + jitter +
// serialization.
func (b *Backhaul) Delay(payloadBytes int) time.Duration {
	if payloadBytes < 0 {
		payloadBytes = 0
	}
	j := time.Duration((b.rng.Float64()*2 - 1) * float64(b.jitter))
	ser := time.Duration(float64(payloadBytes) * 8 / b.rateBps * float64(time.Second))
	d := b.base + j + ser
	if d < 0 {
		d = 0
	}
	return d
}

// Kind returns the link technology.
func (b *Backhaul) Kind() BackhaulKind { return b.kind }
