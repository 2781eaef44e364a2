package netem

import (
	"fmt"
	"math"
	"time"
)

// IEEE 802.11p MAC/PHY constants for the 10 MHz DSRC channel, as used in
// §VI-D1 of the paper (citing Bilstrup et al. and Bazzi et al.).
const (
	// SlotTime is the 802.11p slot duration (9 us).
	SlotTime = 9 * time.Microsecond
	// SIFS is the short interframe space (16 us).
	SIFS = 16 * time.Microsecond
	// CWMax is the maximum contention window (255 slots).
	CWMax = 255
	// DefaultCollisionProb is the paper's p_c <= 0.03 bound
	// (proportional to vehicle density and distance to the RSU).
	DefaultCollisionProb = 0.03
	// OFDMSymbol is the 802.11p OFDM symbol duration on 10 MHz (8 us).
	OFDMSymbol = 8 * time.Microsecond
	// PLCPPreamble is the PHY preamble duration (32 us on 10 MHz).
	PLCPPreamble = 32 * time.Microsecond
	// PLCPSignal is the PHY SIGNAL field duration (one symbol).
	PLCPSignal = OFDMSymbol
	// MACHeaderBytes is the 802.11 MAC header + FCS overhead.
	MACHeaderBytes = 36
	// ServiceBits and TailBits frame the PSDU inside the OFDM DATA field.
	ServiceBits = 16
	TailBits    = 6
)

// DIFS is the distributed interframe space: SIFS + 2 slots (Equation 6).
const DIFS = SIFS + 2*SlotTime

// MCS identifies an 802.11p modulation-and-coding scheme. The paper
// indexes them 1-8 (BPSK 1/2 ... 64-QAM 3/4).
type MCS int

// The 802.11p MCS ladder on a 10 MHz channel.
const (
	MCS1 MCS = iota + 1 // BPSK 1/2, 3 Mb/s
	MCS2                // BPSK 3/4, 4.5 Mb/s
	MCS3                // QPSK 1/2, 6 Mb/s
	MCS4                // QPSK 3/4, 9 Mb/s
	MCS5                // 16-QAM 1/2, 12 Mb/s
	MCS6                // 16-QAM 3/4, 18 Mb/s
	MCS7                // 64-QAM 2/3, 24 Mb/s
	MCS8                // 64-QAM 3/4, 27 Mb/s
)

var mcsRateMbps = map[MCS]float64{
	MCS1: 3, MCS2: 4.5, MCS3: 6, MCS4: 9,
	MCS5: 12, MCS6: 18, MCS7: 24, MCS8: 27,
}

// Valid reports whether the MCS is in the 802.11p ladder.
func (m MCS) Valid() bool {
	_, ok := mcsRateMbps[m]
	return ok
}

// DataRateMbps returns the PHY data rate.
func (m MCS) DataRateMbps() float64 { return mcsRateMbps[m] }

// BitsPerSymbol returns N_DBPS: data bits carried per OFDM symbol.
func (m MCS) BitsPerSymbol() float64 {
	return m.DataRateMbps() * OFDMSymbol.Seconds() * 1e6
}

// String implements fmt.Stringer.
func (m MCS) String() string {
	if !m.Valid() {
		return fmt.Sprintf("MCS(%d)", int(m))
	}
	return fmt.Sprintf("MCS %d (%.1f Mb/s)", int(m), m.DataRateMbps())
}

// PacketDuration returns the on-air time of a frame with the given payload
// at the given MCS: PHY preamble + SIGNAL + ceil(service+MAC+payload+tail
// bits / N_DBPS) OFDM symbols.
func PacketDuration(payloadBytes int, m MCS) (time.Duration, error) {
	if !m.Valid() {
		return 0, fmt.Errorf("netem: invalid MCS %d", int(m))
	}
	if payloadBytes < 0 {
		return 0, fmt.Errorf("netem: negative payload %d", payloadBytes)
	}
	bits := float64(ServiceBits + 8*(payloadBytes+MACHeaderBytes) + TailBits)
	symbols := math.Ceil(bits / m.BitsPerSymbol())
	return PLCPPreamble + PLCPSignal + time.Duration(symbols)*OFDMSymbol, nil
}

// Backoff returns t_backoff = p_c * cw_max * t_slot (Equation 6) at the
// paper's collision bound, DefaultCollisionProb.
func Backoff() time.Duration {
	pc := DefaultCollisionProb // float64 arithmetic, not an exact constant product
	return time.Duration(pc * CWMax * float64(SlotTime))
}

// AccessTime returns Equation 5:
//
//	t_v = t_backoff + num_v * (DIFS + t_pkt)
//
// — the time for numVehicles stations to each get one payload-sized packet
// through the shared CSMA/CA medium.
func AccessTime(numVehicles, payloadBytes int, mcs MCS) (time.Duration, error) {
	if numVehicles < 0 {
		return 0, fmt.Errorf("netem: negative vehicle count %d", numVehicles)
	}
	tPkt, err := PacketDuration(payloadBytes, mcs)
	if err != nil {
		return 0, err
	}
	return Backoff() + time.Duration(numVehicles)*(DIFS+tPkt), nil
}

// FitsReportingPeriod reports whether numVehicles stations sending
// payloadBytes at ReportHz all fit within one reporting period (100 ms) —
// the feasibility check of §VI-D1 ("all packets are sent before the next
// packets are generated").
func FitsReportingPeriod(numVehicles, payloadBytes int, mcs MCS) (bool, time.Duration, error) {
	t, err := AccessTime(numVehicles, payloadBytes, mcs)
	if err != nil {
		return false, 0, err
	}
	period := time.Second / ReportHz
	return t <= period, t, nil
}
