package experiments

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"cad3/internal/core"
	"cad3/internal/netem"
	"cad3/internal/stream"
)

// renderCorridorQuick renders the four corridor runners at cad3-bench
// -quick's settings: seed 42, 2 s of virtual time, 8 and 64 vehicles on
// one RSU, 4 motorway RSUs of 32 vehicles, 24 mobility vehicles and the
// default chain over a 500-car scenario.
func renderCorridorQuick(t *testing.T) string {
	t.Helper()
	const seed = 42
	var sb strings.Builder
	pool, det, err := BuildLatencyInputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := RunLatencyScaling([]int{8, 64}, LatencyConfig{
		Duration: 2 * time.Second, Seed: seed, Records: pool, Detector: det,
	})
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString(FormatLatencyResults(lat))
	for _, r := range lat {
		fmt.Fprintf(&sb, "vehicles=%d records=%d warnings=%d\n", r.Vehicles, r.Records, r.Warnings)
	}
	rsus, err := RunMultiRSU(MultiRSUConfig{
		MotorwayRSUs: 4, VehiclesPerRSU: 32, Duration: 2 * time.Second,
		Seed: seed, Records: pool, Detector: det,
	})
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString(FormatRSUResults(rsus))

	sc, err := BuildScenario(ScenarioConfig{Cars: 500, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	mob, err := RunMobileHandover(sc, MobilityConfig{Vehicles: 24, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString(FormatMobility(mob))
	chain, err := RunChainMobility(sc, ChainConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString(FormatChain(chain))
	return sb.String()
}

// TestCorridorRunnersGolden pins every number the corridor runners print
// at cad3-bench -quick's settings, byte for byte.
func TestCorridorRunnersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("500-car scenario and four corridor runs in -short mode")
	}
	want, err := os.ReadFile("testdata/corridor_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := renderCorridorQuick(t); got != string(want) {
		t.Errorf("corridor output differs from testdata/corridor_quick.golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestSiteWarnsWhereDetectorDoes holds the site's node to the rule the
// hand-written corridor loops applied: every record the node consumed is
// scored with Detect(rec, nil), and exactly the abnormal ones come back
// as warnings, each disseminated once.
func TestSiteWarnsWhereDetectorDoes(t *testing.T) {
	pool, det, err := BuildLatencyInputs(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LatencyConfig{Vehicles: 32, Duration: 2 * time.Second, Seed: 5, Records: pool, Detector: det}.withDefaults()
	sim := netem.NewSimulator(simStart)
	s, err := newSite(sim, rand.New(rand.NewSource(cfg.Seed)), "rsu", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.start(0)
	sim.RunUntil(s.end.Add(300 * time.Millisecond))
	if s.err != nil {
		t.Fatal(s.err)
	}

	// The node's last step ran at the end instant, before any record
	// appended then: it consumed exactly the records appended earlier.
	client := stream.NewInProcClient(s.broker)
	abnormal := make(map[warnKey]bool)
	consumed := int64(0)
	readAll(t, client, stream.TopicInData, func(m stream.Message) {
		if !m.AppendedAt.Before(s.end) {
			return
		}
		consumed++
		rec, err := core.DecodeRecord(m.Value)
		if err != nil {
			t.Error(err)
			return
		}
		if d, err := det.Detect(rec, nil); err == nil && d.Abnormal() {
			abnormal[warnKey{car: rec.Car, ts: rec.TimestampMs}] = true
		}
	})
	st := s.node.Stats()
	if consumed != st.Records {
		t.Fatalf("node consumed %d records, %d appended before its last step", st.Records, consumed)
	}

	warned := make(map[warnKey]bool)
	readAll(t, client, stream.TopicOutData, func(m stream.Message) {
		w, err := core.DecodeWarning(m.Value)
		if err != nil {
			t.Error(err)
			return
		}
		k := warnKey{car: w.Car, ts: w.SourceTsMs}
		if warned[k] {
			t.Errorf("car %d at %d ms warned twice", w.Car, w.SourceTsMs)
		}
		warned[k] = true
	})
	if len(abnormal) == 0 {
		t.Fatal("no abnormal records: the test proves nothing")
	}
	if !maps.Equal(warned, abnormal) {
		t.Errorf("node warned %d (car, ts) pairs, detector flags %d abnormal records", len(warned), len(abnormal))
	}
	// The site disseminates only what it reads off OUT-DATA, once each.
	if st.Warnings != s.warnings || int(s.warnings) != len(warned) {
		t.Errorf("node wrote %d warnings, site disseminated %d, OUT-DATA holds %d", st.Warnings, s.warnings, len(warned))
	}
}

// readAll lends every message of topic to fn, from the earliest offset.
func readAll(t *testing.T, client stream.Client, topic string, fn func(stream.Message)) {
	t.Helper()
	c, err := stream.NewConsumer(client, topic, 0)
	if err != nil {
		t.Fatal(err)
	}
	for {
		n, err := c.PollEach(1<<16, fn)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return
		}
	}
}
