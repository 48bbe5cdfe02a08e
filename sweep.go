package precinct

import (
	"fmt"

	"precinct/internal/pool"
	"precinct/internal/stats"
)

// Sweep runs the scenarios concurrently on a worker pool and returns the
// results in input order. workers <= 0 uses GOMAXPROCS. The first error
// aborts the sweep: already-running scenarios finish, but queued scenarios
// are skipped. On failure the returned error joins every scenario error
// that occurred (errors.Join), each tagged with its scenario index and
// name.
//
// Each scenario's simulation core is single-threaded and deterministic;
// the sweep level is where this library uses the machine's parallelism.
func Sweep(scenarios []Scenario, workers int) ([]Result, error) {
	if len(scenarios) == 0 {
		return nil, nil
	}
	results := make([]Result, len(scenarios))
	err := pool.Run(len(scenarios), workers, func(i int) error {
		var err error
		results[i], err = Run(scenarios[i])
		if err != nil {
			return fmt.Errorf("precinct: scenario %d (%s): %w", i, scenarios[i].Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Replicate runs the same scenario under each seed (in parallel) and
// returns the individual results plus the mean report.
func Replicate(s Scenario, seeds []int64, workers int) ([]Result, Report, error) {
	if len(seeds) == 0 {
		return nil, Report{}, fmt.Errorf("precinct: Replicate needs at least one seed")
	}
	scenarios := make([]Scenario, len(seeds))
	for i, seed := range seeds {
		sc := s
		sc.Seed = seed
		sc.Name = fmt.Sprintf("%s/seed=%d", s.Name, seed)
		scenarios[i] = sc
	}
	results, err := Sweep(scenarios, workers)
	if err != nil {
		return nil, Report{}, err
	}
	reports := make([]Report, len(results))
	for i, r := range results {
		reports[i] = r.Report
	}
	return results, MeanReport(reports), nil
}

// Summary is a per-metric statistical digest of replicated runs: mean,
// spread and a 95% confidence interval, keyed by metric name
// ("mean_latency", "byte_hit_ratio", "false_hit_ratio",
// "control_messages", "energy_per_request", "failure_rate").
type Summary map[string]stats.Summary

// Summarize digests the reports of replicated runs. Use it when the
// question is "is this difference real" rather than "what is the average".
func Summarize(reports []Report) Summary {
	streams := map[string]*stats.Stream{
		"mean_latency":       {},
		"byte_hit_ratio":     {},
		"false_hit_ratio":    {},
		"control_messages":   {},
		"energy_per_request": {},
		"failure_rate":       {},
	}
	for _, r := range reports {
		streams["mean_latency"].Add(r.MeanLatency)
		streams["byte_hit_ratio"].Add(r.ByteHitRatio)
		streams["false_hit_ratio"].Add(r.FalseHitRatio)
		streams["control_messages"].Add(float64(r.ControlMessages))
		streams["energy_per_request"].Add(r.EnergyPerRequest)
		failRate := 0.0
		if r.Requests > 0 {
			failRate = float64(r.Failures) / float64(r.Requests)
		}
		streams["failure_rate"].Add(failRate)
	}
	out := make(Summary, len(streams))
	for name, s := range streams {
		out[name] = s.Summarize()
	}
	return out
}

// MeanReport averages the scalar fields of several reports (counters are
// averaged too, rounding down). ByClass maps are summed then divided.
func MeanReport(reports []Report) Report {
	if len(reports) == 0 {
		return Report{}
	}
	n := float64(len(reports))
	var out Report
	out.ByClass = make(map[string]uint64)
	for _, r := range reports {
		out.Requests += r.Requests
		out.Completed += r.Completed
		out.Failures += r.Failures
		out.MeanLatency += r.MeanLatency
		out.P50Latency += r.P50Latency
		out.P95Latency += r.P95Latency
		out.MaxLatency += r.MaxLatency
		out.ByteHitRatio += r.ByteHitRatio
		out.FalseHitRatio += r.FalseHitRatio
		out.ControlMessages += r.ControlMessages
		out.SearchMessages += r.SearchMessages
		out.MaintenanceMessages += r.MaintenanceMessages
		out.UpdatesIssued += r.UpdatesIssued
		out.PollsIssued += r.PollsIssued
		out.EnergyTotal += r.EnergyTotal
		out.EnergyPerRequest += r.EnergyPerRequest
		for k, v := range r.ByClass {
			out.ByClass[k] += v
		}
	}
	div := func(v uint64) uint64 { return uint64(float64(v) / n) }
	out.Requests = div(out.Requests)
	out.Completed = div(out.Completed)
	out.Failures = div(out.Failures)
	out.ControlMessages = div(out.ControlMessages)
	out.SearchMessages = div(out.SearchMessages)
	out.MaintenanceMessages = div(out.MaintenanceMessages)
	out.UpdatesIssued = div(out.UpdatesIssued)
	out.PollsIssued = div(out.PollsIssued)
	for k := range out.ByClass {
		out.ByClass[k] = div(out.ByClass[k])
	}
	out.MeanLatency /= n
	out.P50Latency /= n
	out.P95Latency /= n
	out.MaxLatency /= n
	out.ByteHitRatio /= n
	out.FalseHitRatio /= n
	out.EnergyTotal /= n
	out.EnergyPerRequest /= n
	return out
}
