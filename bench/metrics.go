package main

import (
	"math"
	"slices"

	"precinct/internal/stats"
)

// metricDef describes one metric. The same table drives the printed
// report, the JSON output, the comparison and the check that
// BENCHMARK.json and the code name the same metrics.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// EndToEnd metrics are what a user of the simulator sees; the rest
	// belong to the layer their name starts with.
	EndToEnd bool
	// Exact metrics are deterministic functions of scenario and seed:
	// they compare exactly between two sets made with the same seed.
	Exact bool
	// Sharded metrics come from the sharded run of the traced pass, which
	// only workloads with CheckShards > 1 make.
	Sharded bool
	// AbsFloor is a worsening, in the metric's unit, too small to count
	// whatever the relative bound says.
	AbsFloor float64
}

var metricDefs = []metricDef{
	// Host cost of one run. The two times read as they would at the
	// reference kernel's nominal speed (calib.go); the raw readings are
	// the host group at the end.
	{Name: "wall_s", Unit: "s", Better: "lower", EndToEnd: true},
	{Name: "setup_s", Unit: "s", Better: "lower", EndToEnd: true, AbsFloor: 0.02},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", EndToEnd: true},
	// The paper's simulated numbers. The success and fresh-hit ratios
	// are the complements of the failure and false-hit ratios, which are
	// 0 on some workloads and reported per layer below.
	{Name: "sim_success_ratio", Unit: "ratio", Better: "higher", EndToEnd: true, Exact: true},
	{Name: "sim_latency_mean_s", Unit: "s", Better: "lower", EndToEnd: true, Exact: true},
	{Name: "sim_latency_p95_s", Unit: "s", Better: "lower", EndToEnd: true, Exact: true},
	{Name: "sim_byte_hit_ratio", Unit: "ratio", Better: "higher", EndToEnd: true, Exact: true},
	{Name: "sim_fresh_hit_ratio", Unit: "ratio", Better: "higher", EndToEnd: true, Exact: true},
	{Name: "sim_msgs_per_request", Unit: "1/req", Better: "lower", EndToEnd: true, Exact: true},
	{Name: "sim_energy_mj_per_request", Unit: "mJ/req", Better: "lower", EndToEnd: true, Exact: true},

	{Name: "sim.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.events_per_request", Unit: "1/req", Better: "lower", Exact: true},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.cancel_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.est_share", Unit: "ratio", Better: "lower"},

	{Name: "radio.broadcast_frames", Unit: "count", Better: "lower", Exact: true},
	{Name: "radio.unicast_frames", Unit: "count", Better: "lower", Exact: true},
	{Name: "radio.deliveries", Unit: "count", Better: "lower", Exact: true},
	{Name: "radio.drops", Unit: "count", Better: "lower", Exact: true},
	{Name: "radio.deliveries_per_request", Unit: "1/req", Better: "lower", Exact: true},
	{Name: "radio.neighbors_ns", Unit: "ns", Better: "lower"},
	{Name: "radio.broadcast_ns_per_delivery", Unit: "ns", Better: "lower"},
	{Name: "radio.unicast_ns", Unit: "ns", Better: "lower"},
	{Name: "radio.est_share", Unit: "ratio", Better: "lower"},

	{Name: "routing.nexthop_warm_ns", Unit: "ns", Better: "lower"},
	{Name: "routing.nexthop_cold_ns", Unit: "ns", Better: "lower"},
	{Name: "routing.unicast_per_request", Unit: "1/req", Better: "lower", Exact: true},
	{Name: "routing.failures", Unit: "count", Better: "lower", Exact: true},
	{Name: "routing.est_share", Unit: "ratio", Better: "lower"},

	{Name: "node.handled_frames", Unit: "count", Better: "lower", Exact: true},
	{Name: "node.dead_drops", Unit: "count", Better: "lower", Exact: true},
	{Name: "node.failure_ratio", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "node.search_msgs_per_request", Unit: "1/req", Better: "lower", Exact: true},
	{Name: "node.control_msgs_per_request", Unit: "1/req", Better: "lower", Exact: true},
	{Name: "node.maintenance_msgs_per_request", Unit: "1/req", Better: "lower", Exact: true},
	{Name: "node.handoffs", Unit: "count", Better: "lower", Exact: true},
	{Name: "node.polls_answered", Unit: "count", Better: "lower", Exact: true},
	{Name: "node.updates_applied", Unit: "count", Better: "higher", Exact: true},
	{Name: "node.lost_updates", Unit: "count", Better: "lower", Exact: true},
	{Name: "node.allocs_per_event", Unit: "1/event", Better: "lower"},
	{Name: "node.alloc_bytes_per_event", Unit: "B/event", Better: "lower"},
	{Name: "node.residual_share", Unit: "ratio", Better: "lower"},

	{Name: "cache.get_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.put_evict_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.hit_share.local", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "cache.hit_share.regional", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "cache.hit_share.en-route", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "cache.hit_share.remote", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "cache.false_hit_ratio", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "cache.est_share", Unit: "ratio", Better: "lower"},

	{Name: "metrics.request_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "mobility.position_ns", Unit: "ns", Better: "lower"},
	{Name: "region.locate_ns", Unit: "ns", Better: "lower"},
	{Name: "region.home_region_ns", Unit: "ns", Better: "lower"},

	{Name: "workload.requests", Unit: "count", Better: "higher", Exact: true},
	{Name: "workload.updates_issued", Unit: "count", Better: "higher", Exact: true},
	{Name: "workload.pick_key_ns", Unit: "ns", Better: "lower"},

	{Name: "energy.charge_ns", Unit: "ns", Better: "lower"},
	{Name: "energy.est_share", Unit: "ratio", Better: "lower"},

	{Name: "parallel.speedup_vs_seq", Unit: "ratio", Better: "higher", Sharded: true},
	{Name: "parallel.windows", Unit: "count", Better: "lower", Sharded: true},
	{Name: "parallel.empty_shard_windows", Unit: "count", Better: "lower", Sharded: true},
	{Name: "parallel.barrier_drains", Unit: "count", Better: "lower", Sharded: true},
	{Name: "parallel.outbox_flushes", Unit: "count", Better: "lower", Sharded: true},
	{Name: "parallel.remote_deliveries", Unit: "count", Better: "lower", Sharded: true},
	{Name: "parallel.shard_event_imbalance", Unit: "ratio", Better: "lower", Sharded: true},
	{Name: "parallel.barrier_await_ns", Unit: "ns", Better: "lower", Sharded: true},

	{Name: "build.bytes_per_node", Unit: "B/node", Better: "lower"},

	{Name: "trace.events", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ledger.coverage", Unit: "ratio", Better: "higher"},

	{Name: "host.wall_raw_s", Unit: "s", Better: "lower"},
	{Name: "host.setup_raw_s", Unit: "s", Better: "lower"},
	{Name: "host.speed_ratio", Unit: "ratio", Better: "higher"},
}

// sample summarises one metric over the runs of a workload. Three runs
// support no percentile, so the summary is median, min and max with the
// count beside them.
type sample struct {
	Value float64 `json:"value"` // median
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
	Unit  string  `json:"unit"`
	// Samples keeps every reading, so a comparison can tell whether all
	// runs of one side beat all runs of the other.
	Samples []float64 `json:"samples,omitempty"`
}

// summarise a non-empty set of readings.
func summarise(vals []float64, unit string) sample {
	return sample{
		Value: stats.Median(vals), Min: slices.Min(vals), Max: slices.Max(vals),
		N: len(vals), Unit: unit, Samples: vals,
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runMetrics derives every metric one untraced run yields on its own.
func runMetrics(w workload, r runRecord) map[string]float64 {
	rep, radio, prot := r.Report, r.Radio, r.Protocol
	req := float64(rep.Requests)
	events := float64(r.Stats.Events)
	m := map[string]float64{
		"host.wall_raw_s": r.WallS,
		"peak_rss_mib":    r.PeakRSSMiB,

		"sim_success_ratio":         ratio(float64(rep.Completed), req),
		"sim_latency_mean_s":        rep.MeanLatency,
		"sim_latency_p95_s":         rep.P95Latency,
		"sim_byte_hit_ratio":        rep.ByteHitRatio,
		"sim_fresh_hit_ratio":       1 - rep.FalseHitRatio,
		"sim_msgs_per_request":      ratio(float64(rep.SearchMessages+rep.ControlMessages+rep.MaintenanceMessages), req),
		"sim_energy_mj_per_request": rep.EnergyPerRequest,

		"sim.events":             events,
		"sim.events_per_request": ratio(events, req),
		"sim.events_per_s":       ratio(events, r.WallS),

		"radio.broadcast_frames":       float64(radio.BroadcastFrames),
		"radio.unicast_frames":         float64(radio.UnicastFrames),
		"radio.deliveries":             float64(radio.Deliveries),
		"radio.drops":                  float64(radio.Drops),
		"radio.deliveries_per_request": ratio(float64(radio.Deliveries), req),

		"routing.unicast_per_request": ratio(float64(radio.UnicastFrames), req),
		"routing.failures":            float64(prot.RoutingFailures),

		"node.handled_frames":               float64(radio.Handled),
		"node.dead_drops":                   float64(radio.DeadDrops),
		"node.failure_ratio":                ratio(float64(rep.Failures), req),
		"node.search_msgs_per_request":      ratio(float64(rep.SearchMessages), req),
		"node.control_msgs_per_request":     ratio(float64(rep.ControlMessages), req),
		"node.maintenance_msgs_per_request": ratio(float64(rep.MaintenanceMessages), req),
		"node.handoffs":                     float64(prot.Handoffs),
		"node.polls_answered":               float64(prot.PollsAnswered),
		"node.updates_applied":              float64(prot.UpdatesApplied),
		"node.lost_updates":                 float64(prot.LostUpdates),
		"node.allocs_per_event":             ratio(float64(r.Mallocs), events),
		"node.alloc_bytes_per_event":        ratio(float64(r.AllocBytes), events),

		"cache.false_hit_ratio": rep.FalseHitRatio,

		"workload.requests":       req,
		"workload.updates_issued": float64(rep.UpdatesIssued),

		"build.bytes_per_node": r.PeakRSSMiB * (1 << 20) / float64(w.Nodes),
	}
	for _, class := range []string{"local", "regional", "en-route", "remote"} {
		m["cache.hit_share."+class] = ratio(float64(rep.ByClass[class]), float64(rep.Completed))
	}
	return m
}

// parallelMetrics derives the counts of the parallel group from one
// sharded run.
func parallelMetrics(r runRecord) map[string]float64 {
	st := r.Stats
	var sum, most float64
	for _, ev := range st.ShardEvents {
		sum += float64(ev)
		most = math.Max(most, float64(ev))
	}
	return map[string]float64{
		"parallel.windows":               float64(st.Windows),
		"parallel.empty_shard_windows":   float64(st.EmptyShardWindows),
		"parallel.barrier_drains":        float64(st.BarrierDrains),
		"parallel.outbox_flushes":        float64(st.OutboxFlushes),
		"parallel.remote_deliveries":     float64(st.RemoteDeliveries),
		"parallel.shard_event_imbalance": ratio(most*float64(len(st.ShardEvents)), sum),
	}
}

// ledger turns the isolated unit costs (ns per operation) and the exact
// counts of run r into each layer's estimated share of wall_s. Raw costs
// overlap a little (a radio delivery includes a shallow scheduler
// push+pop), so coverage is reported, not gated.
func ledger(r runRecord, wallS float64, ns map[string]float64) map[string]float64 {
	radio, rep := r.Radio, r.Report
	unicastDelivered := float64(radio.UnicastFrames - radio.Undeliverable)
	broadcastDelivered := float64(radio.Deliveries) - unicastDelivered
	frames := float64(radio.BroadcastFrames + radio.UnicastFrames)
	wallNS := wallS * 1e9
	shares := map[string]float64{
		"sim.est_share": float64(r.Stats.Events) * ns["sim.push_pop_ns"] / wallNS,
		"radio.est_share": (broadcastDelivered*ns["radio.broadcast_ns_per_delivery"] +
			float64(radio.UnicastFrames)*(ns["radio.unicast_ns"]+ns["radio.neighbors_ns"])) / wallNS,
		"routing.est_share": float64(radio.UnicastFrames) * ns["routing.nexthop_warm_ns"] / wallNS,
		"cache.est_share": (float64(rep.Requests)*ns["cache.get_ns"] +
			float64(rep.Completed)*ns["cache.put_evict_ns"]) / wallNS,
		"energy.est_share": (float64(radio.Deliveries) + frames) * ns["energy.charge_ns"] / wallNS,
	}
	var covered float64
	for _, v := range shares {
		covered += v
	}
	shares["ledger.coverage"] = covered
	shares["node.residual_share"] = 1 - covered
	return shares
}
