package main

import (
	"fmt"
	"math"

	"precinct"
)

// workload is one set of inputs the benchmark runs. Every workload is
// DefaultScenario plus these overrides at the paper's node density
// (AreaSide = 1200*sqrt(N/80), ~400 m grid regions), lossless, mobile
// random-waypoint, Poisson requests at 30 s mean per peer: an open loop
// in simulated time, one run at a time in host time.
type workload struct {
	Name string
	// Why is the one-line rationale BENCHMARK.json carries.
	Why string

	Nodes            int
	Duration, Warmup float64
	Consistency      string
	UpdateInterval   float64
	// CheckShards, when above 1, makes the traced pass repeat the run on
	// that many shards: the sharded scheduler must reproduce the
	// sequential Result exactly (same digest, same event count), and the
	// parallel group of per-layer metrics comes from that run.
	CheckShards int
}

// Durations are sized so one run takes about a quarter of the driver's
// measuring window on a 2-core host (README: shrink reps, then Duration,
// never N).
var fullWorkloads = []workload{
	{
		Name:  "paper_80",
		Why:   "The paper's Section 6.1 setting with updates and polls beside requests: the working set fits in cache, so per-event constant costs and the consistency handlers dominate.",
		Nodes: 80, Duration: 5000, Warmup: 300,
		Consistency: "push-adaptive-pull", UpdateInterval: 60,
	},
	{
		Name:  "flood_2k",
		Why:   "2000 nodes, read-only, nothing lost: the most deliveries per request, so radio neighbor query/delivery and node duplicate suppression do most of the work.",
		Nodes: 2000, Duration: 180, Warmup: 60,
	},
	{
		Name:  "scale_10k",
		Why:   "10000 nodes, read-only: long GPSR routes, a deep pending-event heap and a working set far outside cache, where per-event cost has tripled against paper_80.",
		Nodes: 10000, Duration: 30, Warmup: 10,
		CheckShards: 2,
	},
}

// tinyWorkloads keep every code path of the full set (consistency
// traffic, floods, long routes, two shards) at a size the tier-1 smoke
// test can afford.
var tinyWorkloads = []workload{
	{Name: "paper_80", Nodes: 80, Duration: 60, Warmup: 20, Consistency: "push-adaptive-pull", UpdateInterval: 20},
	{Name: "flood_2k", Nodes: 200, Duration: 40, Warmup: 10},
	{Name: "scale_10k", Nodes: 160, Duration: 40, Warmup: 10, CheckShards: 2},
}

// scaleParams is what -scale selects: the workloads, and how long the
// measurements around the timed runs take.
type scaleParams struct {
	Workloads []workload
	// DriveMS is the host time each isolated drive measures for.
	DriveMS float64
	// SetupFillS is how long the setup measurement keeps repeating
	// Validate once it has its minimum of calls.
	SetupFillS float64
	// CalibSlices is the number of reference-kernel slices measured before
	// and again after each child process.
	CalibSlices int
}

func scaleFor(scale string) (scaleParams, error) {
	switch scale {
	case "full":
		return scaleParams{Workloads: fullWorkloads, DriveMS: 150, SetupFillS: 1, CalibSlices: 16}, nil
	case "tiny":
		return scaleParams{Workloads: tinyWorkloads, DriveMS: 2, SetupFillS: 0.05, CalibSlices: 1}, nil
	}
	return scaleParams{}, fmt.Errorf("unknown -scale %q (want full or tiny)", scale)
}

func findWorkload(ws []workload, name string) (workload, bool) {
	for _, w := range ws {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scenario builds the workload's inputs; the seed is the only thing a
// caller varies.
func (w workload) scenario(seed int64) precinct.Scenario {
	s := precinct.DefaultScenario()
	s.Name = w.Name
	s.Seed = seed
	s.Nodes = w.Nodes
	s.AreaSide = 1200 * math.Sqrt(float64(w.Nodes)/80)
	rows := max(3, int(math.Round(s.AreaSide/400)))
	s.Regions = rows * rows
	s.Duration = w.Duration
	s.Warmup = w.Warmup
	if w.Consistency != "" {
		s.Consistency = w.Consistency
	}
	s.UpdateInterval = w.UpdateInterval
	return s
}
