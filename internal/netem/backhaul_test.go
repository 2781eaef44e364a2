package netem

import (
	"testing"
	"time"
)

func TestBackhaulPresetsOrdering(t *testing.T) {
	eth, err := NewBackhaul(BackhaulEthernet, 1)
	if err != nil {
		t.Fatal(err)
	}
	lte, err := NewBackhaul(BackhaulLTE, 1)
	if err != nil {
		t.Fatal(err)
	}
	g5, err := NewBackhaul(Backhaul5G, 1)
	if err != nil {
		t.Fatal(err)
	}

	const payload = 300 // a CO-DATA summary
	mean := func(b *Backhaul) time.Duration {
		var total time.Duration
		for i := 0; i < 200; i++ {
			total += b.Delay(payload)
		}
		return total / 200
	}
	me, ml, m5 := mean(eth), mean(lte), mean(g5)
	// Ethernet << 5G << LTE (the paper prefers wired; 5G as the URLLC
	// cellular option).
	if !(me < m5 && m5 < ml) {
		t.Errorf("latency ordering broken: eth=%v 5g=%v lte=%v", me, m5, ml)
	}
	if me > 2*time.Millisecond {
		t.Errorf("ethernet mean %v, want sub-millisecond-ish", me)
	}
	if ml < 10*time.Millisecond || ml > 60*time.Millisecond {
		t.Errorf("LTE mean %v, want tens of ms", ml)
	}
	if m5 < time.Millisecond || m5 > 10*time.Millisecond {
		t.Errorf("5G mean %v, want a few ms", m5)
	}
}

func TestBackhaulDelayProperties(t *testing.T) {
	b, err := NewBackhaul(Backhaul5G, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if d := b.Delay(250); d < 0 {
			t.Fatalf("negative delay %v", d)
		}
	}
	// Serialization grows with payload.
	small := b.Delay(0)
	_ = small
	var sumSmall, sumBig time.Duration
	for i := 0; i < 200; i++ {
		sumSmall += b.Delay(100)
		sumBig += b.Delay(1_000_000)
	}
	if sumBig <= sumSmall {
		t.Error("larger payloads should take longer on average")
	}
	if b.Delay(-5) < 0 {
		t.Error("negative payload should clamp")
	}
	if b.Kind() != Backhaul5G || b.Kind().String() != "5g" {
		t.Errorf("kind = %v", b.Kind())
	}
}

func TestBackhaulUnknownKind(t *testing.T) {
	if _, err := NewBackhaul(BackhaulKind(99), 1); err == nil {
		t.Error("want error for unknown kind")
	}
	if BackhaulKind(99).String() != "backhaul" {
		t.Error("unknown kind should have generic name")
	}
	for _, k := range []BackhaulKind{BackhaulEthernet, BackhaulLTE, Backhaul5G} {
		if k.String() == "backhaul" {
			t.Errorf("kind %d missing name", int(k))
		}
	}
}
