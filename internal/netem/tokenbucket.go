// Package netem emulates the network substrate of the paper's testbed
// in-process: the hierarchical token bucket (tc/netem HTB) that shapes the
// emulated DSRC link, the IEEE 802.11p CSMA/CA channel-access model of
// Equations 5-6, a contention-based shared medium, and a discrete-event
// simulator that drives all of it on a virtual clock so latency
// experiments are fast and deterministic.
package netem

import (
	"fmt"
	"time"
)

// Common DSRC constants from the paper's testbed and §VI-D1.
const (
	// DSRCBandwidthBps is the shared DSRC channel capacity (27 Mb/s).
	DSRCBandwidthBps = 27_000_000
	// PerVehicleFloorBps is the HTB per-producer guaranteed rate
	// (100 Kb/s) the paper configures with netem.
	PerVehicleFloorBps = 100_000
	// ReportHz is the vehicle status update rate (10 Hz).
	ReportHz = 10
	// ReportBytes is the paper's per-update payload (~200 B).
	ReportBytes = 200
)

// TokenBucket is a deterministic token bucket on an explicit clock: all
// methods take the current time, so it runs identically on the wall clock
// and in the discrete-event simulator.
type TokenBucket struct {
	rateBps float64 // tokens (bytes) per second... bytes/s
	burst   float64 // bucket depth in bytes
	tokens  float64
	last    time.Time
}

// NewTokenBucket creates a bucket with the given rate (bits per second —
// network convention) and burst (bytes). The bucket starts full at `start`.
func NewTokenBucket(rateBitsPerSec float64, burstBytes float64, start time.Time) (*TokenBucket, error) {
	if rateBitsPerSec <= 0 {
		return nil, fmt.Errorf("netem: token bucket rate must be positive, got %v", rateBitsPerSec)
	}
	if burstBytes <= 0 {
		return nil, fmt.Errorf("netem: token bucket burst must be positive, got %v", burstBytes)
	}
	return &TokenBucket{
		rateBps: rateBitsPerSec / 8,
		burst:   burstBytes,
		tokens:  burstBytes,
		last:    start,
	}, nil
}

// advance refills tokens up to now.
func (b *TokenBucket) advance(now time.Time) {
	if now.After(b.last) {
		b.tokens += now.Sub(b.last).Seconds() * b.rateBps
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
}

// Reserve books n bytes and returns the earliest time the whole payload
// has cleared the bucket. If tokens are short, the returned time is in the
// future and the bucket is left empty as of that time (the reservation is
// committed — there is no cancel). Back-to-back over-budget reservations
// accumulate: each books capacity after the previous one.
func (b *TokenBucket) Reserve(nBytes int, now time.Time) time.Time {
	b.advance(now)
	need := float64(nBytes)
	if b.tokens >= need {
		b.tokens -= need
		// b.last may sit in the future after a prior over-budget
		// reservation; the balance exists only as of that instant.
		if b.last.After(now) {
			return b.last
		}
		return now
	}
	deficit := need - b.tokens
	wait := time.Duration(deficit / b.rateBps * float64(time.Second))
	b.tokens = 0
	b.last = b.last.Add(wait)
	return b.last
}

// Available returns the token count at the given instant without
// consuming.
func (b *TokenBucket) Available(now time.Time) float64 {
	b.advance(now)
	return b.tokens
}

// HTB is a two-level hierarchical token bucket: a shared root enforcing
// the aggregate ceiling (the DSRC channel's 27 Mb/s) and one class per
// sender. Each class is guaranteed its assured rate and may borrow idle
// root capacity up to the class ceiling — the same discipline the paper
// configures with tc/netem on PC1.
//
// Note that the paper's own dimensioning keeps the guarantee feasible:
// 256 vehicles x 100 Kb/s = 25.6 Mb/s <= 27 Mb/s, which is exactly why
// 256 is the per-RSU vehicle cap.
type HTB struct {
	root    *TokenBucket
	classes map[string]*htbClass
	start   time.Time
	ceilBps float64
}

type htbClass struct {
	assured *TokenBucket
	ceil    *TokenBucket
	sent    int64
}

// NewHTB creates the hierarchy with the given aggregate ceiling in bits
// per second.
func NewHTB(ceilBitsPerSec float64, start time.Time) (*HTB, error) {
	root, err := NewTokenBucket(ceilBitsPerSec, burstFor(ceilBitsPerSec), start)
	if err != nil {
		return nil, err
	}
	return &HTB{
		root:    root,
		classes: make(map[string]*htbClass),
		start:   start,
		ceilBps: ceilBitsPerSec,
	}, nil
}

// burstFor sizes a bucket's burst at ~10 ms of its rate, floored at one
// report.
func burstFor(rateBitsPerSec float64) float64 {
	b := rateBitsPerSec / 8 * 0.01
	if b < ReportBytes {
		b = ReportBytes
	}
	return b
}

// AddClass registers a sender class with an assured (guaranteed) rate and
// a ceiling, both in bits per second. A ceiling <= 0 selects the root
// ceiling.
func (h *HTB) AddClass(name string, assuredBitsPerSec, ceilBitsPerSec float64) error {
	if _, ok := h.classes[name]; ok {
		return fmt.Errorf("netem: HTB class %q already exists", name)
	}
	if ceilBitsPerSec <= 0 {
		ceilBitsPerSec = h.ceilBps
	}
	assured, err := NewTokenBucket(assuredBitsPerSec, burstFor(assuredBitsPerSec), h.start)
	if err != nil {
		return fmt.Errorf("class %q assured: %w", name, err)
	}
	ceil, err := NewTokenBucket(ceilBitsPerSec, burstFor(ceilBitsPerSec), h.start)
	if err != nil {
		return fmt.Errorf("class %q ceil: %w", name, err)
	}
	h.classes[name] = &htbClass{assured: assured, ceil: ceil}
	return nil
}

// Reserve books n bytes for the class and returns when the payload has
// cleared shaping. Guaranteed traffic (within the assured rate) passes the
// root immediately; traffic beyond it borrows root capacity, so the
// departure is the later of the class-ceiling and root availability.
func (h *HTB) Reserve(class string, nBytes int, now time.Time) (time.Time, error) {
	c, ok := h.classes[class]
	if !ok {
		return time.Time{}, fmt.Errorf("netem: unknown HTB class %q", class)
	}
	c.sent += int64(nBytes)

	// Within the assured allocation the class is serviced at once; the
	// root bucket still accounts the bytes so the aggregate ceiling holds.
	if c.assured.Available(now) >= float64(nBytes) {
		_ = c.assured.Reserve(nBytes, now)
		return h.root.Reserve(nBytes, now), nil
	}
	// Borrowing: limited by both the class ceiling and root spare
	// capacity.
	t := c.ceil.Reserve(nBytes, now)
	rt := h.root.Reserve(nBytes, now)
	if rt.After(t) {
		t = rt
	}
	return t, nil
}
