package rsu

// Metric-inventory conformance: OBSERVABILITY.md promises "every name the
// substrate emits is listed below; there are no undocumented metrics".
// This test holds the document to that promise in both directions, the
// same way linkcheck holds the cross-references: it parses the three
// inventory tables, stands up one hermetic deployment that exercises
// every registering component on a single obsv.Registry, and diffs the
// snapshot against the documented names. A metric added to the code
// without a table row fails, and so does a table row whose metric no
// component registers anymore.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"cad3/internal/city"
	"cad3/internal/flow"
	"cad3/internal/geo"
	"cad3/internal/netem"
	"cad3/internal/obsv"
	"cad3/internal/scenario"
	"cad3/internal/stream"
)

// docMetric is one documented metric name, compiled to a matcher because
// the inventory uses `<node>`, `<topic>`, `<class>` and `<pacer>`
// placeholders for instance-keyed names.
type docMetric struct {
	name string
	re   *regexp.Regexp
}

func (d docMetric) matches(name string) bool { return d.re.MatchString(name) }

// compileDocName turns a documented name into an anchored regexp,
// replacing each <placeholder> with a wildcard (`<pacer>` expands to a
// dotted prefix like "flow.pacer", so the wildcard must cross dots).
func compileDocName(t *testing.T, name string) docMetric {
	t.Helper()
	var b strings.Builder
	b.WriteString("^")
	rest := name
	for {
		open := strings.Index(rest, "<")
		if open < 0 {
			b.WriteString(regexp.QuoteMeta(rest))
			break
		}
		close := strings.Index(rest, ">")
		if close < open {
			t.Fatalf("malformed placeholder in documented metric %q", name)
		}
		b.WriteString(regexp.QuoteMeta(rest[:open]))
		b.WriteString(".+")
		rest = rest[close+1:]
	}
	b.WriteString("$")
	return docMetric{name: name, re: regexp.MustCompile(b.String())}
}

// metricTableRow extracts the first backticked cell of an inventory
// table row.
var metricTableRow = regexp.MustCompile("^\\|\\s*`([^`]+)`")

// parseMetricInventory reads the Counters / Gauges / Histograms tables
// out of OBSERVABILITY.md.
func parseMetricInventory(t *testing.T) (counters, gauges, hists []docMetric) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatalf("read inventory: %v", err)
	}
	var section *[]docMetric
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "### Counters"):
			section = &counters
			continue
		case strings.HasPrefix(trimmed, "### Gauges"):
			section = &gauges
			continue
		case strings.HasPrefix(trimmed, "### Histograms"):
			section = &hists
			continue
		case strings.HasPrefix(trimmed, "#"):
			section = nil
			continue
		}
		if section == nil {
			continue
		}
		if m := metricTableRow.FindStringSubmatch(trimmed); m != nil && m[1] != "name" {
			*section = append(*section, compileDocName(t, m[1]))
		}
	}
	if len(counters) < 10 || len(gauges) < 10 || len(hists) < 3 {
		t.Fatalf("inventory parse looks broken: %d counters, %d gauges, %d histograms",
			len(counters), len(gauges), len(hists))
	}
	return counters, gauges, hists
}

// registerEverything stands up every metric-emitting component of the
// substrate on the one registry. Each registers eagerly at construction;
// a produce on the wire and replicated paths exercises their request
// families.
func registerEverything(t *testing.T, reg *obsv.Registry) {
	t.Helper()
	_, _, mw, cad := trainedDetectors(t)

	net := geo.NewNetwork(0)
	if err := net.AddSegment(lineSeg(t, 1, geo.Motorway)); err != nil {
		t.Fatal(err)
	}
	if err := net.AddSegment(lineSeg(t, 2, geo.MotorwayLink)); err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(1, 2); err != nil {
		t.Fatal(err)
	}

	// Flow-controlled broker: registers broker.* plus the per-topic
	// flow.<topic>.{admitted,rejected,shed.<class>,occupancy} family for
	// the three CAD3 topics the node provisions.
	mwBroker := stream.NewBroker(stream.BrokerConfig{Metrics: reg, FlowCapacity: 64})
	lkBroker := stream.NewBroker(stream.BrokerConfig{})
	if _, err := NewCluster(net, []Config{
		// The Mw node carries the registry: pipeline.* histograms, the
		// rsu.* / flow.node.* gauge views, the microbatch.* engine
		// metrics, and (via BatchSLO) the adaptive flow.node.batch_limit
		// controller.
		{Name: "Mw", Road: 1, Detector: mw, Client: stream.NewInProcClient(mwBroker),
			Metrics: reg, BatchSLO: 50 * time.Millisecond},
		{Name: "Link", Road: 2, Detector: cad, Client: stream.NewInProcClient(lkBroker)},
	}); err != nil {
		t.Fatal(err)
	}

	// Vehicle-side pacer and the 802.11p channel model.
	flow.NewPacer(flow.PacerConfig{Metrics: reg})
	// The scenario engine registers its scenario.* family eagerly at
	// construction.
	scenario.New(scenario.Config{Metrics: reg})
	if _, err := netem.NewMedium(netem.MediumConfig{Metrics: reg}); err != nil {
		t.Fatal(err)
	}

	// Pooled wire client against a live TCP server: registers the wire.*
	// counters/gauges and, through the per-link circuit breakers, the
	// wire.breaker.* family. One produce exercises the request path.
	wireBroker := stream.NewBroker(stream.BrokerConfig{})
	srv, err := stream.NewServer(wireBroker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool, err := stream.DialPool(srv.Addr(), stream.PoolConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if err := pool.CreateTopic("wire-probe", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pool.Produce("wire-probe", 0, nil, []byte("x")); err != nil {
		t.Fatal(err)
	}

	// Replicated cluster control plane: the election.* / repl.catchups /
	// repl.isr_drops / repl.isr_size / repl.lag family registers at
	// ReplicaSet construction; the broker-side repl.records / repl.fenced
	// pair registered with mwBroker above. One acks=all produce drives
	// replication; rebalance.* registers with a metrics-carrying group.
	rset, err := stream.NewReplicaSet(stream.ReplicaSetConfig{Metrics: reg},
		stream.Replica{ID: "r1", Broker: stream.NewBroker(stream.BrokerConfig{})},
		stream.Replica{ID: "r2", Broker: stream.NewBroker(stream.BrokerConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	if err := rset.CreateTopic("repl-probe", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rset.Produce("repl-probe", 0, nil, []byte("x"), stream.AckAll); err != nil {
		t.Fatal(err)
	}
	if _, err := stream.NewGroupCfg(stream.GroupConfig{
		Client: rset.Client(stream.AckLeader), Topic: "repl-probe", Metrics: reg,
	}); err != nil {
		t.Fatal(err)
	}

	// Sharded city driver: construction registers the whole city.* /
	// shard.* family — settlement counters, fleet gauges, the dwell/skew
	// load gauges — plus the cross-shard router's shard.router.* family.
	// The road network is shared with the cluster above (read-only).
	if _, err := city.NewDriver(city.Config{
		Network: net, Shards: 2, Vehicles: 4, Replicas: 2, Metrics: reg,
	}); err != nil {
		t.Fatal(err)
	}
}

// diffInventory reports registered-but-undocumented names and
// documented-but-unregistered rows for one metric kind.
func diffInventory(t *testing.T, kind string, registered []string, doc []docMetric) {
	t.Helper()
	matched := make(map[string]bool, len(doc))
	for _, name := range registered {
		found := false
		for _, d := range doc {
			if d.matches(name) {
				matched[d.name] = true
				found = true
			}
		}
		if !found {
			t.Errorf("%s %q is registered but missing from OBSERVABILITY.md's inventory", kind, name)
		}
	}
	for _, d := range doc {
		if !matched[d.name] {
			t.Errorf("%s `%s` is documented in OBSERVABILITY.md but nothing registers it", kind, d.name)
		}
	}
}

// TestMetricInventoryMatchesDocs fails when the code's registered metric
// names and OBSERVABILITY.md's inventory drift apart, in either
// direction.
func TestMetricInventoryMatchesDocs(t *testing.T) {
	counters, gauges, hists := parseMetricInventory(t)
	reg := obsv.NewRegistry()
	registerEverything(t, reg)
	snap := reg.Snapshot()

	diffInventory(t, "counter", mapKeys(snap.Counters), counters)
	diffInventory(t, "gauge", mapKeys(snap.Gauges), gauges)
	histNames := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		histNames = append(histNames, name)
	}
	diffInventory(t, "histogram", histNames, hists)
}

func mapKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
