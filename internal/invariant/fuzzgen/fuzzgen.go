// Package fuzzgen deterministically expands integer seeds into randomized
// but valid simulation scenarios for the invariant test suite: varied
// node counts, mobility models, region counts, radio impairments,
// workloads, consistency schemes and failure/churn schedules. The same
// seed always yields the same scenario, so a failing seed is a complete,
// reproducible bug report.
//
// The package also provides the metamorphic transformations the suite
// uses: relabeling and fault-order shuffling must leave a run's Report
// bit-identical.
package fuzzgen

import (
	"fmt"
	"math"
	"math/rand"

	"precinct"
)

// Expand grows a seed into a scenario. The generated scenario always
// validates and runs in well under a second at test scale. Every scaled
// draw rounds its product before the offset is added (float64(a*x)), so
// no target fuses the two into one multiply-add and a seed expands to
// the same scenario on every GOARCH; ExpandScale does the same.
func Expand(seed int64) precinct.Scenario {
	rng := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	s := precinct.DefaultScenario()
	s.Name = fmt.Sprintf("fuzz-%d", seed)
	s.Seed = seed

	s.Nodes = 16 + rng.Intn(25) // 16..40
	s.AreaSide = 600 + float64(150*float64(rng.Intn(5)))
	s.Regions = []int{4, 9, 16}[rng.Intn(3)]
	// This draw once chose a Voronoi partition, and the model draw below
	// once chose among four models. Both keep their place in the draw
	// sequence so that every seed's other fields do not change.
	rng.Float64()

	s.MobilityModel = []string{"waypoint", "static"}[rng.Intn(4)%2]
	s.MaxSpeed = 1 + float64(9*rng.Float64())
	s.Pause = 10 * rng.Float64()

	s.Range = 200 + float64(100*rng.Float64())
	if rng.Float64() < 0.3 {
		s.LossRate = 0.1 * rng.Float64()
	}
	rng.Float64() // once drew the retired collision model; kept for the draw sequence
	if rng.Float64() < 0.3 {
		// 2*u compiles to u+u, which fuses with Float64's own scaling
		// unless the draw is rounded too.
		s.BeaconInterval = 1 + float64(2*float64(rng.Float64()))
	}

	s.Items = 100 + rng.Intn(201)
	s.ZipfTheta = rng.Float64()
	s.RequestInterval = 10 + float64(20*rng.Float64())

	s.Retrieval = []string{"precinct", "precinct", "flooding", "expanding-ring"}[rng.Intn(4)]
	s.Policy = []string{"gd-ld", "gd-ld", "gd-size", "lru", "lfu"}[rng.Intn(5)]
	s.CacheFraction = 0.005 + float64(0.02*rng.Float64())
	s.EnRoute = rng.Float64() < 0.7
	s.Replicas = 0
	if rng.Float64() < 0.7 {
		s.Replicas = 1
	}

	// Half the scenarios run a write workload so the consistency and TTR
	// invariants get exercised; weight toward the paper's hybrid scheme.
	if rng.Float64() < 0.5 {
		s.UpdateInterval = 20 + float64(60*rng.Float64())
		s.UpdateZipfTheta = 0.8 * rng.Float64()
		s.Consistency = []string{
			"push-adaptive-pull", "push-adaptive-pull", "plain-push", "pull-every-time",
		}[rng.Intn(4)]
		s.TTRAlpha = 0.1 + float64(0.8*rng.Float64())
	} else {
		s.Consistency = "none"
	}

	s.Warmup = 30
	s.Duration = 120 + float64(rng.Intn(121))

	// Failure schedule: strictly increasing, pairwise distinct fault
	// times on distinct nodes, so the schedule's execution order is fully
	// determined by content and a shuffled Faults slice is a valid
	// metamorphic transformation.
	if n := rng.Intn(4); n > 0 {
		perm := rng.Perm(s.Nodes)
		t := s.Warmup + 10
		var revive []precinct.Fault
		for i := 0; i < n; i++ {
			t += 7 + float64(25*rng.Float64())
			kind := "crash"
			if rng.Float64() < 0.5 {
				kind = "quit"
			}
			s.Faults = append(s.Faults, precinct.Fault{At: t, Node: perm[i], Kind: kind})
			if rng.Float64() < 0.5 {
				revive = append(revive, precinct.Fault{Node: perm[i], Kind: "revive"})
			}
		}
		for _, f := range revive {
			t += 7 + float64(25*rng.Float64())
			f.At = t
			s.Faults = append(s.Faults, f)
		}
		if t >= s.Duration-5 {
			s.Duration = t + 30
		}
	}

	if rng.Float64() < 0.25 {
		s.ChurnInterval = 40 + float64(40*rng.Float64())
		s.ChurnDowntime = 20 + float64(20*rng.Float64())
		s.ChurnGraceful = rng.Float64()
	}
	return s
}

// ExpandScale grows a seed into a large-N, lossy scenario for the scale
// tier: 250–100000 peers at the paper's node density (the area grows
// with sqrt(N) and the grid keeps ~400 m regions), always with a
// nonzero LossRate. maxNodes caps the node count so tests can stay
// tractable under -short (the invariant suite passes 500 there, 2000
// otherwise; only the soak/acceptance runs lift the cap into the
// 10k–100k tier). Durations are short — event volume already scales
// with N — except at 10k+ nodes, where the duration is pinned to the
// acceptance shape (300 s, 60 s warmup) regardless of seed.
func ExpandScale(seed int64, maxNodes int) precinct.Scenario {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1e5ca1e))
	s := precinct.DefaultScenario()
	s.Name = fmt.Sprintf("scale-%d", seed)
	s.Seed = seed

	tiers := []int{250, 500, 1000, 2000, 10000, 50000, 100000}
	nodes := tiers[rng.Intn(len(tiers))]
	if maxNodes > 0 && nodes > maxNodes {
		nodes = maxNodes
	}
	s.Nodes = nodes
	// Constant density: the paper's 80 nodes / (1200 m)² square.
	s.AreaSide = 1200 * math.Sqrt(float64(nodes)/80)
	rows := int(math.Round(s.AreaSide / 400))
	if rows < 3 {
		rows = 3
	}
	s.Regions = rows * rows

	s.MobilityModel = []string{"waypoint", "static"}[rng.Intn(3)%2] // Intn(3) keeps the draw sequence
	s.MaxSpeed = 2 + float64(8*rng.Float64())
	s.Pause = 5

	s.LossRate = []float64{0.05, 0.1, 0.3}[rng.Intn(3)] // always lossy
	rng.Float64()                                       // once drew the retired collision model

	s.Items = 500 + rng.Intn(501)
	s.ZipfTheta = 0.8
	s.RequestInterval = 20 + float64(20*rng.Float64())

	s.Policy = []string{"gd-ld", "gd-ld", "gd-size"}[rng.Intn(3)]
	s.CacheFraction = 0.005 + float64(0.02*rng.Float64())

	if rng.Float64() < 0.5 {
		s.UpdateInterval = 40 + float64(40*rng.Float64())
		s.Consistency = []string{
			"push-adaptive-pull", "plain-push", "pull-every-time",
		}[rng.Intn(3)]
		s.TTRAlpha = 0.5
	}

	s.Warmup = 20
	s.Duration = 60 + float64(rng.Intn(61))
	if s.Nodes >= 10000 {
		// The big tier always runs the acceptance shape: a full 300 s
		// scenario with a 60 s cache-fill warmup.
		s.Warmup = 60
		s.Duration = 300
	}
	return s
}

// Relabel returns the scenario with a different Name. Renaming must not
// affect the run at all.
func Relabel(s precinct.Scenario, name string) precinct.Scenario {
	s.Name = name
	return s
}

// ShuffleFaults deterministically permutes the order of the Faults slice
// without touching its contents. Because Expand emits pairwise-distinct
// fault times, scheduling order is content-determined and the permuted
// scenario must produce an identical Report.
func ShuffleFaults(s precinct.Scenario, seed int64) precinct.Scenario {
	if len(s.Faults) < 2 {
		return s
	}
	faults := make([]precinct.Fault, len(s.Faults))
	copy(faults, s.Faults)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(faults), func(i, j int) { faults[i], faults[j] = faults[j], faults[i] })
	s.Faults = faults
	return s
}

// WithReplicas derives a k-replica variant of a scenario: k replica
// regions per key (DESIGN.md section 16). The Name gains a "/rep<k>" tag
// so failures name the replica layer. Expand's own RNG draw sequence is
// untouched — the transform layers the new axis on top, so every
// existing golden trace stays valid.
func WithReplicas(s precinct.Scenario, k int) precinct.Scenario {
	s.Replicas = k
	s.Name = fmt.Sprintf("%s/rep%d", s.Name, k)
	return s
}

// WithPolicy derives a policy-lab variant of a scenario running the
// named replacement policy. Like WithReplicas it never touches Expand's
// draw sequence, so the policy axis composes with every seed.
func WithPolicy(s precinct.Scenario, policy string) precinct.Scenario {
	s.Policy = policy
	s.Name = s.Name + "/" + policy
	return s
}

// ShardCounts is the shard-count axis the parallel equivalence suite
// sweeps: the even counts the suite always covered plus odd and
// non-divisor counts, so node populations that do not split evenly
// (Expand draws 16–40 nodes — most are not divisible by 3, 5 or 8)
// exercise the uneven strip cuts and the one-node-minimum guarantee.
var ShardCounts = []int{2, 3, 4, 5, 8}

// WithShards derives a sharded-execution variant of a scenario: the
// shard count is forced, and the knob the sharded envelope forbids
// (beaconing) is cleared. Like the other transforms
// it never touches Expand's draw sequence; the Name gains a "/shards<N>"
// tag.
func WithShards(s precinct.Scenario, shards int) precinct.Scenario {
	s.BeaconInterval = 0
	s.Shards = shards
	s.Name = fmt.Sprintf("%s/shards%d", s.Name, shards)
	return s
}

// WithWorkload derives a workload-lab variant of a scenario: the seed
// picks one of the non-stationary sources, whose parameters are fixed.
// Shards is cleared (non-default workloads are sequential-only) and the
// Name gains the workload tag so failures name the source that produced
// them.
func WithWorkload(s precinct.Scenario, seed int64) precinct.Scenario {
	rng := rand.New(rand.NewSource(seed ^ 0x10ad1ab5))
	sources := precinct.WorkloadKinds()[1:] // every kind but the default
	kind := sources[rng.Intn(len(sources))]
	s.Workload = kind
	s.Shards = 0
	s.Name = s.Name + "/" + kind
	return s
}
