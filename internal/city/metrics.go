package city

import "cad3/internal/obsv"

// cityMetrics caches the city.* / shard.* registry handles. Every name
// registers eagerly at Driver construction so the metric-inventory
// conformance test sees the full family without running a simulation.
type cityMetrics struct {
	reg *obsv.Registry

	// Telemetry path.
	telemetry, telemetryUnacked *obsv.Counter
	abnormal, probes            *obsv.Counter
	warnings, warningsDelivered *obsv.Counter
	warningsLost, warningsDup   *obsv.Counter
	falseWarnings               *obsv.Counter

	// Handover protocol.
	handovers, handoverSummaries, handoverEmpty *obsv.Counter
	handoverApplied, handoverDups, handoverLost *obsv.Counter
	handoverMisrouted, handoverRefused          *obsv.Counter
	siteHandovers                               *obsv.Counter

	// Collaborative detection.
	priorHits, priorFallbacks *obsv.Counter

	// Driver machinery.
	produceRetries, routeResets *obsv.Counter

	// Load accounting (set at settlement).
	vehicles, shards, sites             *obsv.Gauge
	dwellMax, dwellMedian, skewX1000    *obsv.Gauge
	shardRecordsMax, shardRecordsMedian *obsv.Gauge
}

func newCityMetrics(reg *obsv.Registry) *cityMetrics {
	return &cityMetrics{
		reg:                reg,
		telemetry:          reg.Counter("city.telemetry"),
		telemetryUnacked:   reg.Counter("city.telemetry_unacked"),
		abnormal:           reg.Counter("city.abnormal"),
		probes:             reg.Counter("city.probes"),
		warnings:           reg.Counter("city.warnings"),
		warningsDelivered:  reg.Counter("city.warnings_delivered"),
		warningsLost:       reg.Counter("city.warnings_lost"),
		warningsDup:        reg.Counter("city.warnings_dup"),
		falseWarnings:      reg.Counter("city.false_warnings"),
		handovers:          reg.Counter("city.handovers"),
		handoverSummaries:  reg.Counter("city.handover_summaries"),
		handoverEmpty:      reg.Counter("city.handover_empty"),
		handoverApplied:    reg.Counter("city.handover_applied"),
		handoverDups:       reg.Counter("city.handover_dups"),
		handoverLost:       reg.Counter("city.handover_lost"),
		handoverMisrouted:  reg.Counter("city.handover_misrouted"),
		handoverRefused:    reg.Counter("city.handover_refused"),
		siteHandovers:      reg.Counter("city.site_handovers"),
		priorHits:          reg.Counter("city.prior_hits"),
		priorFallbacks:     reg.Counter("city.prior_fallbacks"),
		produceRetries:     reg.Counter("city.produce_retries"),
		routeResets:        reg.Counter("city.route_resets"),
		vehicles:           reg.Gauge("city.vehicles"),
		shards:             reg.Gauge("city.shards"),
		sites:              reg.Gauge("city.sites"),
		dwellMax:           reg.Gauge("shard.dwell_max_ms"),
		dwellMedian:        reg.Gauge("shard.dwell_median_ms"),
		skewX1000:          reg.Gauge("shard.skew_x1000"),
		shardRecordsMax:    reg.Gauge("shard.records_max"),
		shardRecordsMedian: reg.Gauge("shard.records_median"),
	}
}
