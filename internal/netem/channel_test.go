package netem

import (
	"testing"
	"testing/quick"
	"time"
)

func TestAdaptMCSMonotone(t *testing.T) {
	prev := MCS8
	for _, d := range []float64{50, 150, 250, 400, 500, 700, 1000} {
		m := AdaptMCS(d)
		if !m.Valid() {
			t.Fatalf("AdaptMCS(%v) invalid", d)
		}
		if m > prev {
			t.Errorf("rate should not increase with distance: %v at %v m after %v", m, d, prev)
		}
		prev = m
	}
	if AdaptMCS(100) != MCS8 {
		t.Error("close range should use the dense-deployment mode (paper §VII-B: 125 m @ 64-QAM 3/4)")
	}
	if AdaptMCS(5000) != MCS1 {
		t.Error("extreme range should use the most robust mode")
	}
}

func TestLossModelShape(t *testing.T) {
	l := LossModel{}
	if p := l.Probability(0); p < 0.001 || p > 0.01 {
		t.Errorf("floor loss = %v", p)
	}
	if l.Probability(300) >= l.Probability(900) {
		t.Error("loss should grow with distance")
	}
	if p := l.Probability(10_000); p != 1 {
		t.Errorf("far loss = %v, want clamped to 1", p)
	}
	if p := l.Probability(-5); p != l.Probability(0) {
		t.Errorf("negative distance should clamp: %v", p)
	}
	f := func(d float64) bool {
		if d < 0 {
			d = -d
		}
		p := l.Probability(d)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMediumTransmitFromLoss(t *testing.T) {
	m, err := NewMedium(MediumConfig{Loss: &LossModel{Floor: 0.002, EdgeMeters: 900}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	now := t0
	var delivered, lost int
	for i := 0; i < 500; i++ {
		_, ok, err := m.TransmitFrom("v", ReportBytes, now, 850)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			delivered++
		} else {
			lost++
		}
		now = now.Add(100 * time.Millisecond)
	}
	if lost == 0 {
		t.Error("no loss at 850 m with ~45% loss probability")
	}
	if delivered == 0 {
		t.Error("everything lost")
	}
	if m.Lost() != int64(lost) {
		t.Errorf("Lost() = %d, counted %d", m.Lost(), lost)
	}
	// Near transmissions almost never drop.
	m2, _ := NewMedium(MediumConfig{Loss: &LossModel{}, Seed: 2})
	lost = 0
	now = t0
	for i := 0; i < 200; i++ {
		_, ok, _ := m2.TransmitFrom("v", ReportBytes, now, 50)
		if !ok {
			lost++
		}
		now = now.Add(100 * time.Millisecond)
	}
	if lost > 5 {
		t.Errorf("near-range loss %d/200 too high", lost)
	}
}

func TestMediumTransmitFromAdaptsAirtime(t *testing.T) {
	// A near frame (MCS8) must occupy less airtime than a far one (MCS1).
	near, _ := NewMedium(MediumConfig{Seed: 3})
	far, _ := NewMedium(MediumConfig{Seed: 3})
	dNear, _, err := near.TransmitFrom("v", ReportBytes, t0, 50)
	if err != nil {
		t.Fatal(err)
	}
	dFar, _, err := far.TransmitFrom("v", ReportBytes, t0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !dNear.Before(dFar) {
		t.Errorf("near delivery %v should precede far %v", dNear, dFar)
	}
	// The configured MCS is restored after adaptive sends.
	if near.mcs != MCS3 {
		t.Errorf("MCS = %v after TransmitFrom, want default restored", near.mcs)
	}
}

func TestChannelManagerSpreadsNeighbors(t *testing.T) {
	m := NewChannelManager(600, 0.5)
	// Five RSUs clustered within interference range: all should land on
	// distinct channels (6 service channels available).
	chans := make(map[Channel]bool)
	for i, name := range []string{"A", "B", "C", "D", "E"} {
		ch, err := m.AddSite(name, float64(i)*100, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !ch.Valid() {
			t.Fatalf("invalid channel %v", ch)
		}
		if chans[ch] {
			t.Errorf("site %s assigned already-used channel %v", name, ch)
		}
		chans[ch] = true
	}
	if len(m.Conflicts()) != 0 {
		t.Errorf("conflicts = %v, want none", m.Conflicts())
	}
}

func TestChannelManagerReusesChannelsWhenFar(t *testing.T) {
	m := NewChannelManager(600, 0.5)
	chA, _ := m.AddSite("A", 0, 0)
	chB, _ := m.AddSite("B", 10_000, 0) // far beyond interference range
	if chA != chB {
		t.Errorf("distant sites should reuse the best channel: %v vs %v", chA, chB)
	}
}

func TestChannelManagerSwitchOnInterference(t *testing.T) {
	m := NewChannelManager(600, 0.5)
	// Seven clustered sites: six service channels, so one conflict is
	// inevitable.
	names := []string{"A", "B", "C", "D", "E", "F", "G"}
	for i, n := range names {
		if _, err := m.AddSite(n, float64(i)*50, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.Conflicts()) == 0 {
		t.Fatal("7 clustered sites on 6 channels must conflict")
	}
	// Low interference: no switch.
	switched, err := m.ReportInterference("G", 0.1)
	if err != nil || switched {
		t.Errorf("low interference switched: %v, %v", switched, err)
	}
	// High interference on a conflicted site: it may switch (to the
	// least-conflicted channel) — and the call must never error.
	conflict := m.Conflicts()[0]
	if _, err := m.ReportInterference(conflict[0], 0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReportInterference("ghost", 0.9); err == nil {
		t.Error("want error for unknown site")
	}
}

func TestChannelManagerSwitchFreesConflict(t *testing.T) {
	m := NewChannelManager(600, 0.5)
	// Force two sites onto the same channel by filling all six channels
	// twice in a tight cluster; then free one cluster and report
	// interference: the conflicted site should move.
	chA, _ := m.AddSite("A", 0, 0)
	// B lands on a different channel; force the scenario instead with
	// a third site out of range reusing A's channel, then moving close.
	_ = chA
	for _, n := range []string{"B", "C", "D", "E", "F"} {
		if _, err := m.AddSite(n, 10, 0); err != nil {
			t.Fatal(err)
		}
	}
	// All 6 channels used once. The 7th site conflicts with someone.
	ch7, _ := m.AddSite("G", 20, 0)
	if len(m.Conflicts()) == 0 {
		t.Fatal("expected a conflict with 7 sites")
	}
	_ = ch7
	switched, err := m.ReportInterference("G", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// With every channel occupied nearby a switch may not help; either
	// way the manager stays consistent.
	if switched && m.Switches() == 0 {
		t.Error("switch not counted")
	}
	if ch, ok := m.ChannelOf("G"); !ok || !ch.Valid() {
		t.Errorf("ChannelOf(G) = %v, %v", ch, ok)
	}
	if _, ok := m.ChannelOf("ghost"); ok {
		t.Error("unknown site should report ok=false")
	}
}

func TestChannelManagerValidation(t *testing.T) {
	m := NewChannelManager(0, 0)
	if _, err := m.AddSite("", 0, 0); err == nil {
		t.Error("want error for empty name")
	}
	if _, err := m.AddSite("A", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddSite("A", 1, 1); err == nil {
		t.Error("want error for duplicate site")
	}
	if !CCH178.Valid() || Channel(179).Valid() || Channel(170).Valid() {
		t.Error("channel validity broken")
	}
	if len(ServiceChannels()) != 6 {
		t.Errorf("service channels = %v", ServiceChannels())
	}
}

func TestSwitchesCounterStartsZero(t *testing.T) {
	m := NewChannelManager(0, 0)
	if m.Switches() != 0 {
		t.Errorf("Switches = %d", m.Switches())
	}
}

// Lost returns the number of frames dropped by the loss model.
func (m *Medium) Lost() int64 { return m.lost }

// Valid reports whether c is a DSRC channel.
func (c Channel) Valid() bool {
	return c >= SCH172 && c <= SCH184 && c%2 == 0
}

// ChannelOf returns a site's current channel.
func (m *ChannelManager) ChannelOf(name string) (Channel, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sites[name]
	if !ok {
		return 0, false
	}
	return s.Channel, true
}
