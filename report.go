package precinct

import (
	"precinct/internal/metrics"
	"precinct/internal/node"
	"precinct/internal/radio"
)

// DefaultSampleCap is the latency-reservoir size of the streaming
// collector (DESIGN.md section 14). Below the cap the collector is
// bit-identical to the unbounded exact one — every pinned scenario, and
// every committed benchmark cell, stays under it — and past the cap
// memory holds constant while the mean, max and per-class aggregates
// remain exact (only the percentiles become reservoir estimates).
const DefaultSampleCap = 1 << 20

// newCollector isolates the internal metrics type from the public API.
func newCollector() *metrics.Collector {
	return metrics.NewCollectorCapped(DefaultSampleCap)
}

// Report is the per-run performance summary, the metrics the paper
// plots: latency, byte hit ratio, control message overhead, false hit
// ratio and energy per request.
type Report = metrics.Report

// ProtocolStats is the node-layer counters.
type ProtocolStats = node.Stats

// RadioStats is the channel counters.
type RadioStats = radio.Stats

// Result bundles everything a run produces.
type Result struct {
	Scenario Scenario
	Report   Report
	Protocol ProtocolStats
	Radio    RadioStats
}

// result bundles a finished sequential run: the collector's report and
// the network's and channel's counters.
func (b *built) result(rep Report) Result {
	return Result{
		Scenario: b.scenario,
		Report:   rep,
		Protocol: b.network.Stats(),
		Radio:    b.channel.Stats(),
	}
}
