package netem

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// §VII-B of the paper sketches how a dense RSU deployment stays feasible:
// position RSUs so ranges do not overlap, raise the modulation rate on
// congested roads (higher data rate, smaller range), and let a manager
// switch an RSU's operating service channel when interference rises.
// This file implements those mechanisms.

// Channel identifies a DSRC channel. US DSRC allocates control channel
// 178 and service channels 172-184.
type Channel int

// The DSRC channel set.
const (
	SCH172 Channel = 172
	SCH174 Channel = 174
	SCH176 Channel = 176
	CCH178 Channel = 178
	SCH180 Channel = 180
	SCH182 Channel = 182
	SCH184 Channel = 184
)

// ServiceChannels lists the channels available for CAD3 data exchange
// (the control channel is reserved for safety beacons).
func ServiceChannels() []Channel {
	return []Channel{SCH172, SCH174, SCH176, SCH180, SCH182, SCH184}
}

// AdaptMCS selects the modulation-and-coding scheme for a link of the
// given length: near vehicles use high-rate, short-range modes (§VII-B's
// "higher data rate and smaller range"), distant ones fall back to robust
// low-rate modes. Thresholds follow the qualitative ranges of Bazzi et
// al. (the paper's [24]).
func AdaptMCS(distanceMeters float64) MCS {
	switch {
	case distanceMeters <= 125:
		return MCS8 // 64-QAM 3/4 — the paper's dense-deployment example
	case distanceMeters <= 200:
		return MCS7
	case distanceMeters <= 300:
		return MCS5
	case distanceMeters <= 450:
		return MCS4
	case distanceMeters <= 600:
		return MCS3
	case distanceMeters <= 800:
		return MCS2
	default:
		return MCS1
	}
}

// LossModel gives the frame-loss probability of a DSRC link as a function
// of distance: a small floor plus quadratic growth toward the edge of the
// range (free-space path loss dominated).
type LossModel struct {
	// Floor is the loss probability at zero distance. Values < 0 select
	// 0.002.
	Floor float64
	// EdgeMeters is the distance where loss reaches ~50%. Values <= 0
	// select 900.
	EdgeMeters float64
}

// Probability returns the loss probability at the given distance,
// clamped to [Floor, 1].
func (l LossModel) Probability(distanceMeters float64) float64 {
	floor := l.Floor
	if floor < 0 {
		floor = 0.002
	}
	if l.Floor == 0 {
		floor = 0.002
	}
	edge := l.EdgeMeters
	if edge <= 0 {
		edge = 900
	}
	if distanceMeters < 0 {
		distanceMeters = 0
	}
	p := floor + 0.5*(distanceMeters/edge)*(distanceMeters/edge)
	return math.Min(1, p)
}

// RSUSite describes one deployed RSU for channel planning.
type RSUSite struct {
	Name string
	// X, Y are planar coordinates in meters (a local tangent frame).
	X, Y float64
	// Channel is the currently assigned service channel (0 = unassigned).
	Channel Channel
}

// ChannelManager assigns service channels to RSU sites so that RSUs
// within interference range avoid sharing a channel, and switches a
// site's channel when measured interference exceeds the threshold — the
// "high-level management scheme" of §VII-B.
type ChannelManager struct {
	mu sync.Mutex
	// InterferenceRangeM is the distance under which co-channel RSUs
	// interfere.
	interferenceRangeM float64
	sites              map[string]*RSUSite
	// interference accumulates reported load per site.
	interference map[string]float64
	threshold    float64
	switches     int
}

// NewChannelManager creates a manager. interferenceRangeM <= 0 selects
// 600 m (2x the default DSRC planning range); switchThreshold <= 0
// selects 0.5.
func NewChannelManager(interferenceRangeM, switchThreshold float64) *ChannelManager {
	if interferenceRangeM <= 0 {
		interferenceRangeM = 600
	}
	if switchThreshold <= 0 {
		switchThreshold = 0.5
	}
	return &ChannelManager{
		interferenceRangeM: interferenceRangeM,
		sites:              make(map[string]*RSUSite),
		interference:       make(map[string]float64),
		threshold:          switchThreshold,
	}
}

// AddSite registers an RSU and assigns it the least-conflicted service
// channel.
func (m *ChannelManager) AddSite(name string, x, y float64) (Channel, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if name == "" {
		return 0, fmt.Errorf("netem: empty site name")
	}
	if _, ok := m.sites[name]; ok {
		return 0, fmt.Errorf("netem: site %q already registered", name)
	}
	site := &RSUSite{Name: name, X: x, Y: y}
	site.Channel = m.bestChannelLocked(site)
	m.sites[name] = site
	return site.Channel, nil
}

// bestChannelLocked picks the service channel with the fewest co-channel
// neighbors within interference range (ties broken by channel number).
func (m *ChannelManager) bestChannelLocked(site *RSUSite) Channel {
	best := SCH172
	bestConflicts := math.MaxInt32
	for _, ch := range ServiceChannels() {
		conflicts := 0
		for _, other := range m.sites {
			if other.Name == site.Name || other.Channel != ch {
				continue
			}
			if m.distance(site, other) <= m.interferenceRangeM {
				conflicts++
			}
		}
		if conflicts < bestConflicts {
			best, bestConflicts = ch, conflicts
		}
	}
	return best
}

func (m *ChannelManager) distance(a, b *RSUSite) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// ReportInterference records a site's measured interference level
// (0..1). When it crosses the threshold the manager moves the site to the
// least-conflicted channel; the report is reset after a switch.
func (m *ChannelManager) ReportInterference(name string, level float64) (switched bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	site, ok := m.sites[name]
	if !ok {
		return false, fmt.Errorf("netem: unknown site %q", name)
	}
	m.interference[name] = level
	if level < m.threshold {
		return false, nil
	}
	old := site.Channel
	site.Channel = 0 // exclude self while re-picking
	next := m.bestChannelLocked(site)
	site.Channel = next
	if next != old {
		m.switches++
		m.interference[name] = 0
		return true, nil
	}
	return false, nil
}

// Conflicts returns the co-channel pairs within interference range —
// the residual interference after assignment. Pairs are ordered by name.
func (m *ChannelManager) Conflicts() [][2]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.sites))
	for n := range m.sites {
		names = append(names, n)
	}
	sort.Strings(names)
	var out [][2]string
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			a, b := m.sites[names[i]], m.sites[names[j]]
			if a.Channel == b.Channel && m.distance(a, b) <= m.interferenceRangeM {
				out = append(out, [2]string{a.Name, b.Name})
			}
		}
	}
	return out
}

// Switches returns how many channel switches the manager has performed.
func (m *ChannelManager) Switches() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.switches
}
