package netem

import (
	"fmt"
	"math/rand"
	"time"

	"cad3/internal/obsv"
)

// Medium models the shared DSRC channel for the discrete-event pipeline:
// transmissions from all vehicles in an RSU's range are serialized
// (CSMA/CA grants one winner at a time), each paying DIFS plus a random
// backoff plus the frame's airtime, optionally after HTB shaping — the
// in-process equivalent of the paper's PC1 netem setup.
type Medium struct {
	mcs    MCS
	htb    *HTB
	loss   *LossModel
	rng    *rand.Rand
	freeAt time.Time
	lost   int64

	delivered      int64 // payload bytes delivered
	deliveredWire  int64 // payload + MAC overhead bytes
	transmissions  int64
	totalAirtime   time.Duration
	contentionTime time.Duration

	// Cached registry handles, nil without MediumConfig.Metrics.
	mFrames, mWireBytes, mLostFrames *obsv.Counter
	mAirtimeHist                     *obsv.Histogram
}

// MediumConfig configures a Medium.
type MediumConfig struct {
	// Loss optionally models distance-dependent frame loss for
	// TransmitFrom. Nil disables loss.
	Loss *LossModel
	// MCS selects the modulation and coding scheme. Zero selects MCS3
	// (QPSK 1/2, 6 Mb/s), a common DSRC safety-channel default.
	MCS MCS
	// HTB optionally shapes senders before they contend (the testbed
	// shapes producers with tc). Nil disables shaping.
	HTB *HTB
	// Seed drives the backoff jitter.
	Seed int64
	// Metrics, when set, receives channel instrumentation: the netem.*
	// frame/byte counters and the per-frame airtime histogram (see
	// OBSERVABILITY.md).
	Metrics *obsv.Registry
}

// NewMedium builds the channel model.
func NewMedium(cfg MediumConfig) (*Medium, error) {
	if cfg.MCS == 0 {
		cfg.MCS = MCS3
	}
	if !cfg.MCS.Valid() {
		return nil, fmt.Errorf("netem: invalid MCS %d", int(cfg.MCS))
	}
	m := &Medium{
		mcs:  cfg.MCS,
		htb:  cfg.HTB,
		loss: cfg.Loss,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.Metrics != nil {
		m.mFrames = cfg.Metrics.Counter("netem.tx.frames")
		m.mWireBytes = cfg.Metrics.Counter("netem.tx.wire_bytes")
		m.mLostFrames = cfg.Metrics.Counter("netem.tx.lost_frames")
		m.mAirtimeHist = cfg.Metrics.Histogram("netem.airtime_micros",
			[]int64{50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000})
	}
	return m, nil
}

// Transmit models one frame from the given sender class entering the
// channel at `at`, returning the instant its last bit arrives at the RSU.
func (m *Medium) Transmit(class string, payloadBytes int, at time.Time) (time.Time, error) {
	start := at
	if m.htb != nil {
		shaped, err := m.htb.Reserve(class, payloadBytes, at)
		if err != nil {
			return time.Time{}, err
		}
		start = shaped
	}
	// CSMA/CA: wait for the medium, then DIFS + random backoff.
	if m.freeAt.After(start) {
		start = m.freeAt
	}
	backoff := m.randomBackoff()
	tPkt, err := PacketDuration(payloadBytes, m.mcs)
	if err != nil {
		return time.Time{}, err
	}
	contention := DIFS + backoff
	done := start.Add(contention + tPkt)
	m.freeAt = done

	m.delivered += int64(payloadBytes)
	m.deliveredWire += int64(payloadBytes + MACHeaderBytes)
	m.transmissions++
	m.totalAirtime += tPkt
	m.contentionTime += contention
	if m.mFrames != nil {
		m.mFrames.Inc()
		m.mWireBytes.Add(int64(payloadBytes + MACHeaderBytes))
		m.mAirtimeHist.ObserveDuration(tPkt)
	}
	return done, nil
}

// randomBackoff draws a uniform backoff in [0, CW) slots where the
// contention window is scaled by the collision probability
// DefaultCollisionProb: p_c * CWMax slots on average (matching the
// Equation 6 expectation).
func (m *Medium) randomBackoff() time.Duration {
	pc := DefaultCollisionProb
	maxSlots := int(2 * pc * CWMax) // mean pc*CWMax, as in Eq. 6
	if maxSlots < 1 {
		maxSlots = 1
	}
	return time.Duration(m.rng.Intn(maxSlots+1)) * SlotTime
}

// MediumStats is a snapshot of channel usage.
type MediumStats struct {
	PayloadBytes   int64
	WireBytes      int64
	Transmissions  int64
	TotalAirtime   time.Duration
	ContentionTime time.Duration
}

// Stats returns cumulative channel statistics.
func (m *Medium) Stats() MediumStats {
	return MediumStats{
		PayloadBytes:   m.delivered,
		WireBytes:      m.deliveredWire,
		Transmissions:  m.transmissions,
		TotalAirtime:   m.totalAirtime,
		ContentionTime: m.contentionTime,
	}
}

// TransmitFrom models a frame sent from the given distance: the MCS
// adapts to the link length, the loss model may drop the frame (it still
// occupies airtime — a corrupted frame busies the channel), and the
// delivery time is returned along with whether the RSU decoded it.
func (m *Medium) TransmitFrom(class string, payloadBytes int, at time.Time, distanceMeters float64) (time.Time, bool, error) {
	mcs := AdaptMCS(distanceMeters)
	saved := m.mcs
	m.mcs = mcs
	done, err := m.Transmit(class, payloadBytes, at)
	m.mcs = saved
	if err != nil {
		return time.Time{}, false, err
	}
	if m.loss != nil && m.rng.Float64() < m.loss.Probability(distanceMeters) {
		m.lost++
		if m.mLostFrames != nil {
			m.mLostFrames.Inc()
		}
		return done, false, nil
	}
	return done, true, nil
}
