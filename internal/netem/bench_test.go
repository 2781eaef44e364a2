package netem

import (
	"testing"
	"time"
)

func BenchmarkMediumTransmit(b *testing.B) {
	m, err := NewMedium(MediumConfig{MCS: MCS8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	now := t0
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		done, err := m.Transmit("v", ReportBytes, now)
		if err != nil {
			b.Fatal(err)
		}
		now = done
	}
}

func BenchmarkHTBReserve(b *testing.B) {
	h, err := NewHTB(DSRCBandwidthBps, t0)
	if err != nil {
		b.Fatal(err)
	}
	if err := h.AddClass("v", PerVehicleFloorBps, 0); err != nil {
		b.Fatal(err)
	}
	now := t0
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Reserve("v", ReportBytes, now); err != nil {
			b.Fatal(err)
		}
		now = now.Add(100 * time.Millisecond)
	}
}

func BenchmarkSimulatorEvents(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSimulator(t0)
		for j := 0; j < 1000; j++ {
			s.After(time.Duration(j)*time.Microsecond, func() {})
		}
		if n := s.Run(); n != 1000 {
			b.Fatalf("ran %d events", n)
		}
	}
}

func BenchmarkMACAccessTimeEval(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AccessTime(256, ReportBytes, MCS8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorPending100k is the queue at the city's working size:
// one op reschedules a prebuilt func() and fires the earliest event with
// 100,000 others pending (a 100k-vehicle fleet holds about two each).
// 0 allocs/op is part of the contract.
func BenchmarkSimulatorPending100k(b *testing.B) {
	s := NewSimulator(t0)
	fn := func() {}
	// xorshift delays: a fixed, spread-out schedule with no rand import.
	x := uint64(88172645463325252)
	delay := func() time.Duration {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return time.Duration(x % uint64(10*time.Second))
	}
	for i := 0; i < 100_000; i++ {
		s.After(delay(), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(delay(), fn)
		_ = s.Step()
	}
	if s.Pending() != 100_000 {
		b.Fatalf("pending = %d", s.Pending())
	}
}
