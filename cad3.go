// Package cad3 is a from-scratch Go implementation of CAD3 —
// "Edge-facilitated Real-time Collaborative Abnormal Driving Distributed
// Detection" (Alhilal et al., ICDCS 2021) — together with every substrate
// the paper's testbed relied on: a Kafka-like partitioned event broker
// with a TCP wire protocol, a Spark-Streaming-like micro-batch engine, a
// small ML library (Gaussian Naive Bayes + CART Decision Tree), an
// emulated DSRC channel (hierarchical token bucket + IEEE 802.11p CSMA/CA
// model) with a discrete-event simulator, a synthetic Shenzhen-scale road
// network and driving-trace generator, and the three detection models the
// paper compares (centralized, standalone AD3, collaborative CAD3).
//
// This package is the facade downstream users import: it re-exports the
// domain types and provides high-level constructors. The implementation
// lives under internal/, one package per subsystem (see DESIGN.md for the
// full inventory), and internal/experiments regenerates every table and
// figure of the paper's evaluation.
//
// # Quick start
//
//	net, _ := cad3.BuildNetwork(cad3.NetworkConfig{Scale: 0.05, Seed: 1})
//	sc, _ := cad3.BuildScenario(cad3.ScenarioConfig{Cars: 400, Seed: 1})
//	rows, _ := cad3.RunModelComparison(sc)
//	fmt.Print(cad3.FormatModelRows(rows))
//
// See examples/ for runnable programs: a quickstart, the microscopic
// handover pipeline over real TCP brokers, a city-scale planning study,
// and a failure-injection demo.
package cad3

import (
	"cad3/internal/core"
	"cad3/internal/experiments"
	"cad3/internal/geo"
	"cad3/internal/rsu"
	"cad3/internal/stream"
	"cad3/internal/trace"
	"cad3/internal/vehicle"
)

// Geographic substrate.
type (
	// Point is a WGS84 coordinate.
	Point = geo.Point
	// RoadType classifies road segments (OSM highway taxonomy).
	RoadType = geo.RoadType
	// Segment is a directed road segment.
	Segment = geo.Segment
	// SegmentID identifies a road segment.
	SegmentID = geo.SegmentID
	// Network is a road network with a spatial index.
	Network = geo.Network
	// NetworkConfig configures the synthetic Shenzhen-scale generator.
	NetworkConfig = geo.BuildConfig
	// Matcher is the HMM map matcher.
	Matcher = geo.Matcher
	// MatcherConfig tunes the map matcher.
	MatcherConfig = geo.MatcherConfig
	// RSUPlanRow is one row of the Table V deployment plan.
	RSUPlanRow = geo.RSUPlanRow
)

// Road types re-exported for convenience.
const (
	Motorway     = geo.Motorway
	MotorwayLink = geo.MotorwayLink
	Trunk        = geo.Trunk
	Primary      = geo.Primary
	Secondary    = geo.Secondary
	Tertiary     = geo.Tertiary
	Residential  = geo.Residential
)

// Driving-data substrate.
type (
	// CarID identifies a vehicle.
	CarID = trace.CarID
	// Record is the Table II vehicle status record (the on-wire unit).
	Record = trace.Record
	// Trip and TrajectoryPoint are the Table I raw schema.
	Trip            = trace.Trip
	TrajectoryPoint = trace.TrajectoryPoint
	// Dataset bundles generated tables.
	Dataset = trace.Dataset
)

// Detection core.
type (
	// Detector classifies records, optionally using a forwarded summary.
	Detector = core.Detector
	// Detection is a classification outcome.
	Detection = core.Detection
	// Warning is the OUT-DATA payload.
	Warning = core.Warning
	// PredictionSummary is the CO-DATA payload.
	PredictionSummary = core.PredictionSummary
)

// Class labels (the paper's encoding).
const (
	ClassAbnormal = core.ClassAbnormal
	ClassNormal   = core.ClassNormal
)

// Streaming substrate.
type (
	// Broker is the in-memory partitioned event broker.
	Broker = stream.Broker
	// BrokerConfig tunes a broker.
	BrokerConfig = stream.BrokerConfig
	// Client abstracts broker access (in-process or TCP).
	Client = stream.Client
	// Producer and Consumer are the pub/sub endpoints.
	Producer = stream.Producer
	Consumer = stream.Consumer
	// Server exposes a broker over TCP.
	Server = stream.Server
	// Message is one log record.
	Message = stream.Message
)

// Topic names of the CAD3 pipeline.
const (
	TopicInData  = stream.TopicInData
	TopicOutData = stream.TopicOutData
	TopicCoData  = stream.TopicCoData
)

// Deployment.
type (
	// RSU is a deployed edge node; RSUConfig configures it.
	RSU       = rsu.Node
	RSUConfig = rsu.Config
	// RSUStats summarises node activity.
	RSUStats = rsu.Stats
	// Vehicle is an emulated connected vehicle; Fleet a set of them.
	Vehicle       = vehicle.Vehicle
	VehicleConfig = vehicle.Config
	Fleet         = vehicle.Fleet
)

// Experiments.
type (
	// Scenario is the trained three-model comparison setup.
	Scenario = experiments.Scenario
	// ScenarioConfig sizes it.
	ScenarioConfig = experiments.ScenarioConfig
	// ModelRow is one Figure 7 / Table IV row.
	ModelRow = experiments.ModelRow
)

// BuildNetwork generates a synthetic road network matched to the paper's
// Table V statistics.
func BuildNetwork(cfg NetworkConfig) (*Network, error) { return geo.BuildNetwork(cfg) }

// NewBroker creates an in-memory event broker.
func NewBroker() *Broker { return stream.NewBroker(stream.BrokerConfig{}) }

// NewInProcClient binds a client directly to a broker.
func NewInProcClient(b *Broker) Client { return stream.NewInProcClient(b) }

// Serve exposes a broker over TCP on addr (e.g. "127.0.0.1:9092").
func Serve(b *Broker, addr string) (*Server, error) { return stream.NewServer(b, addr) }

// Dial connects to a TCP broker.
func Dial(addr string) (Client, error) { return stream.Dial(addr) }

// NewRSU assembles an edge node over a broker client.
func NewRSU(cfg RSUConfig) (*RSU, error) { return rsu.New(cfg) }

// NewFleet creates n vehicles replaying records round-robin.
func NewFleet(n int, records []Record, clientFor func(i int) Client, opts VehicleConfig) (*Fleet, error) {
	return vehicle.NewFleet(n, records, clientFor, opts)
}

// BuildScenario trains the three-model comparison scenario.
func BuildScenario(cfg ScenarioConfig) (*Scenario, error) { return experiments.BuildScenario(cfg) }

// RunModelComparison evaluates the three models (Figure 7 + Table IV).
func RunModelComparison(sc *Scenario) ([]ModelRow, error) {
	return experiments.RunModelComparison(sc)
}

// FormatModelRows renders the comparison.
func FormatModelRows(rows []ModelRow) string { return experiments.FormatModelRows(rows) }

// PlanRSUs reproduces the Table V deployment plan from the paper's
// aggregate road statistics.
func PlanRSUs() []RSUPlanRow { return geo.PlanRSUsFromStats(geo.ShenzhenRoadStats(), 0) }
