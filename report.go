package precinct

import (
	"fmt"

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

// Report is the per-run performance summary, mirroring the metrics the
// paper plots: latency, byte hit ratio, control message overhead, false
// hit ratio and energy per request.
type Report struct {
	Requests  uint64
	Completed uint64
	Failures  uint64
	// ByClass counts completed requests by where they were served:
	// "local", "regional", "en-route", "remote" (plus "failure").
	ByClass map[string]uint64
	// StaleByClass counts false hits by serving class.
	StaleByClass map[string]uint64
	// MeanLatencyByClass is the mean latency per serving class.
	MeanLatencyByClass map[string]float64

	MeanLatency float64 // seconds
	P50Latency  float64
	P95Latency  float64
	MaxLatency  float64

	ByteHitRatio  float64
	FalseHitRatio float64

	ControlMessages     uint64
	SearchMessages      uint64
	MaintenanceMessages uint64
	UpdatesIssued       uint64
	PollsIssued         uint64

	EnergyTotal      float64 // mJ, post-warmup
	EnergyPerRequest float64 // mJ
}

func fromMetrics(r metrics.Report) Report {
	return Report{
		Requests:            r.Requests,
		Completed:           r.Completed,
		Failures:            r.Failures,
		ByClass:             r.ByClass,
		StaleByClass:        r.StaleByClass,
		MeanLatencyByClass:  r.MeanLatencyByClass,
		MeanLatency:         r.MeanLatency,
		P50Latency:          r.P50Latency,
		P95Latency:          r.P95Latency,
		MaxLatency:          r.MaxLatency,
		ByteHitRatio:        r.ByteHitRatio,
		FalseHitRatio:       r.FalseHitRatio,
		ControlMessages:     r.ControlMessages,
		SearchMessages:      r.SearchMessages,
		MaintenanceMessages: r.MaintenanceMessages,
		UpdatesIssued:       r.UpdatesIssued,
		PollsIssued:         r.PollsIssued,
		EnergyTotal:         r.EnergyTotal,
		EnergyPerRequest:    r.EnergyPerRequest,
	}
}

// String renders a compact one-line summary.
func (r Report) String() string {
	return fmt.Sprintf(
		"requests=%d failures=%d latency=%.3fs byteHit=%.3f falseHit=%.4f ctrl=%d energy/req=%.2fmJ",
		r.Requests, r.Failures, r.MeanLatency, r.ByteHitRatio,
		r.FalseHitRatio, r.ControlMessages, r.EnergyPerRequest)
}

// ProtocolStats mirrors the node-layer counters.
type ProtocolStats struct {
	Handoffs        uint64
	LostKeys        uint64
	StrandedKeys    uint64
	HomelessKeys    uint64
	Relocations     uint64
	RoutingFailures uint64
	LostUpdates     uint64
	PollsAnswered   uint64
	UpdatesApplied  uint64
}

func fromStats(s node.Stats) ProtocolStats {
	return ProtocolStats{
		Handoffs:        s.Handoffs,
		LostKeys:        s.LostKeys,
		StrandedKeys:    s.StrandedKeys,
		HomelessKeys:    s.HomelessKeys,
		Relocations:     s.Relocations,
		RoutingFailures: s.RoutingFailures,
		LostUpdates:     s.LostUpdates,
		PollsAnswered:   s.PollsAnswered,
		UpdatesApplied:  s.UpdatesApplied,
	}
}

// RadioStats mirrors the channel counters.
type RadioStats struct {
	BroadcastFrames uint64
	UnicastFrames   uint64
	Deliveries      uint64
	Drops           uint64
	Collisions      uint64
	Undeliverable   uint64
	BytesOnAir      uint64
	Handled         uint64
	DeadDrops       uint64
}

func fromRadio(s radio.Stats) RadioStats {
	return RadioStats{
		BroadcastFrames: s.BroadcastFrames,
		UnicastFrames:   s.UnicastFrames,
		Deliveries:      s.Deliveries,
		Drops:           s.Drops,
		Collisions:      s.Collisions,
		Undeliverable:   s.Undeliverable,
		BytesOnAir:      s.BytesOnAir,
		Handled:         s.Handled,
		DeadDrops:       s.DeadDrops,
	}
}

// Result bundles everything a run produces.
type Result struct {
	Scenario Scenario
	Report   Report
	Protocol ProtocolStats
	Radio    RadioStats
}
