// Package precinct is the public entry point of the PReCinCt
// reproduction: a configurable mobile peer-to-peer simulation that
// implements the cooperative caching scheme of Shen, Joseph, Kumar and
// Das, "PReCinCt: A Scheme for Cooperative Caching in Mobile Peer-to-Peer
// Systems" (IPDPS 2005), together with the baselines the paper compares
// against.
//
// The typical use is: describe a Scenario (network size, mobility, cache
// policy, consistency scheme, workload), call Run for a single simulation
// or Sweep for a parallel parameter study, and read the Report.
//
//	sc := precinct.DefaultScenario()
//	sc.Nodes = 80
//	sc.Policy = "gd-ld"
//	res, err := precinct.Run(sc)
//	fmt.Println(res.Report.MeanLatency)
//
// The simulation core is deterministic for a fixed Scenario.Seed; Sweep
// exploits that by running independent scenarios on a worker pool.
package precinct

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"

	"precinct/internal/cache"
	"precinct/internal/consistency"
	"precinct/internal/energy"
	"precinct/internal/geo"
	"precinct/internal/metrics"
	"precinct/internal/mobility"
	"precinct/internal/node"
	"precinct/internal/radio"
	"precinct/internal/region"
	"precinct/internal/sim"
	"precinct/internal/trace"
	"precinct/internal/workload"
)

// Scenario fully describes one simulation run. The zero value is not
// runnable; start from DefaultScenario.
type Scenario struct {
	// Name labels the scenario in sweep outputs.
	Name string
	// Seed drives every random stream in the run.
	Seed int64

	// Nodes is the number of mobile peers.
	Nodes int
	// AreaSide is the side of the square service area in meters.
	AreaSide float64
	// Regions is the number of grid regions the area is divided into
	// (perfect squares and products of small factors work best).
	Regions int
	// VoronoiRegions partitions the area into the Voronoi cells of
	// Regions random seed points instead of a rectangular grid — the
	// paper's more general "center point and perimeter vertices" region
	// shape. Merge/Separate and adaptive management require the grid.
	VoronoiRegions bool

	// MobilityModel is "waypoint" (random waypoint), "static" (a
	// jittered static grid, the Section 6.2.3 validation topology),
	// "random-walk" or "gauss-markov".
	MobilityModel string
	// MaxSpeed is the waypoint / random-walk maximum (and Gauss-Markov
	// mean) speed in m/s.
	MaxSpeed float64
	// Pause is the waypoint pause time in seconds.
	Pause float64

	// Range is the radio range in meters; Bandwidth in bits/s.
	Range     float64
	Bandwidth float64
	// LossRate drops frames with this probability (0 = lossless).
	LossRate float64
	// Collisions enables receiver-side collision losses: overlapping
	// receptions at a node destroy each other, so broadcast storms are
	// self-damaging as on a real shared channel.
	Collisions bool
	// BeaconInterval makes neighbor position knowledge stale: peers
	// observe each other's positions only every BeaconInterval seconds
	// (0 = perfect location knowledge). Tests the paper's robustness
	// claim for routing-to-regions under location error.
	BeaconInterval float64

	// Items, MinItemSize and MaxItemSize describe the shared catalog.
	Items       int
	MinItemSize int
	MaxItemSize int

	// ZipfTheta is the request skew and UpdateZipfTheta the update
	// target skew (0 = uniform); RequestInterval and UpdateInterval are
	// the mean Poisson inter-arrival gaps per peer in seconds
	// (UpdateInterval 0 disables updates).
	ZipfTheta       float64
	UpdateZipfTheta float64
	RequestInterval float64
	UpdateInterval  float64

	// Workload selects the traffic source (DESIGN.md section 15): "" or
	// "default" is the stationary Zipf/Poisson generator; "trace"
	// replays the cachelib-format trace at TracePath; "flash-crowd",
	// "diurnal", "hotspot" and "rank-churn" are the non-stationary
	// sources. Non-default workloads require a sequential run
	// (Shards <= 1) — their sources mutate shared draw state.
	Workload string
	// TracePath is the trace file for Workload "trace" (CSV rows of
	// op,key,key_size,size). The catalog is derived from the trace's
	// distinct keys; Items/MinItemSize/MaxItemSize are ignored.
	TracePath string
	// WorkloadCfg tunes the non-stationary sources; zero values pick
	// scenario-derived defaults.
	WorkloadCfg WorkloadParams

	// Retrieval: "precinct", "flooding" or "expanding-ring".
	Retrieval string
	// Consistency: "none", "plain-push", "pull-every-time" or
	// "push-adaptive-pull".
	Consistency string
	// TTRAlpha is the Equation 2 smoothing factor in [0,1).
	TTRAlpha float64

	// Policy selects the cache replacement policy by registry name
	// (PolicyNames lists them): the paper's "gd-ld" and "gd-size", the
	// "lru"/"lfu" baselines, and the related-work competitors "gdsf",
	// "pop-dist" and "pop-rank" (DESIGN.md section 16).
	Policy string
	// GDLDWeights overrides the utility weights of the weighted policies
	// (gd-ld, pop-dist); the zero value keeps the defaults.
	GDLDWeights Weights
	// CacheFraction sizes each peer's dynamic cache as a fraction of
	// the total catalog size (the paper sweeps 0.005–0.025); zero or
	// negative disables caching.
	CacheFraction float64

	// EnRoute enables en-route cache answering.
	EnRoute bool
	// Replicas is the number of replica regions per key: a key's rank-r
	// replica lives in the (r+1)-th nearest region to its hash location.
	// 0 maintains none, 1 is the paper's single replica region, and
	// higher values home each key in the k best regions with load-aware
	// placement (DESIGN.md section 16).
	Replicas int

	// Warmup excludes the initial cache-fill phase from metrics;
	// Duration is the total simulated time. Seconds.
	Warmup   float64
	Duration float64

	// Faults injects node failures at given simulation times.
	Faults []Fault

	// AdaptiveRegions turns on dynamic region management (the paper's
	// future work): regions holding more than AdaptiveSplitAbove live
	// peers are split, adjacent region pairs holding fewer than
	// AdaptiveMergeBelow combined are merged, re-inspected every
	// AdaptiveInterval seconds. Zero thresholds/interval keep the
	// controller defaults.
	AdaptiveRegions    bool
	AdaptiveInterval   float64
	AdaptiveSplitAbove int
	AdaptiveMergeBelow int

	// ChurnInterval, when positive, drives background churn: one random
	// live peer leaves per interval on average (Poisson), returning
	// empty-handed after ChurnDowntime seconds (0 = at once).
	// ChurnGraceful is the fraction of departures that hand their keys
	// off before leaving (the paper assumes "most users quit the network
	// gracefully").
	ChurnInterval float64
	ChurnDowntime float64
	ChurnGraceful float64

	// Shards > 1 runs the event loop on that many goroutines, one per
	// spatial shard, synchronized at a conservative lookahead horizon
	// derived from the minimum radio frame delay (DESIGN.md section 13).
	// Results are identical to the sequential run (0 or 1): same Report,
	// same protocol and radio counters, same trace events. Requires
	// perfect location knowledge (BeaconInterval 0) and static regions
	// (no AdaptiveRegions).
	Shards int

	// ShardBalance selects how peers are split into shards: "load" (the
	// default) measures per-peer event load with a short sequential
	// probe run and cuts the x-sorted peer order into contiguous strips
	// of equal cumulative load; "count" keeps the legacy equal-count
	// strips. Either way the assignment is a deterministic function of
	// the scenario. Ignored when Shards <= 1; omitted from JSON when
	// empty.
	ShardBalance string `json:",omitempty"`
}

// WorkloadParams tunes the non-stationary workload sources. Every zero
// field falls back to a default derived from the scenario (documented
// per field), so enabling a workload by name alone gives a sensible
// adversarial setting.
type WorkloadParams struct {
	// FlashAt is when the flash crowd ignites (default: one third into
	// the measured window) and FlashDuration how long it burns (default:
	// a quarter of the measured window). FlashHotset keys from the cold
	// half of the catalog (default: Items/100, at least 1) absorb
	// FlashBoost of the request mass (default: 0.6).
	FlashAt       float64
	FlashDuration float64
	FlashHotset   int
	FlashBoost    float64

	// DriftPeriod is the seconds per full rotation of the diurnal
	// popularity ranking (default: the measured window, one full cycle
	// per run).
	DriftPeriod float64

	// HotspotGrid partitions the area into Grid x Grid popularity cells
	// (default: 3); each favors HotspotHotset keys (default: Items/50,
	// at least 1) that absorb HotspotBoost of local requests (default:
	// 0.5).
	HotspotGrid   int
	HotspotHotset int
	HotspotBoost  float64

	// ChurnEvery is the seconds between popularity-rank reshuffles
	// (default: 60) and ChurnSwaps the random rank transpositions per
	// reshuffle (default: Items/20, at least 1).
	ChurnEvery float64
	ChurnSwaps int
}

// Weights are the GD-LD utility weights: U = WR*accesses +
// WD*regionDistanceMeters + WS/sizeBytes.
type Weights struct {
	WR float64 // access-count weight
	WD float64 // region-distance weight, per meter
	WS float64 // size weight (contributes WS/size)
}

// Fault is one injected failure event.
type Fault struct {
	// At is the simulation time of the event in seconds.
	At float64
	// Node is the peer the event applies to.
	Node int
	// Kind is "crash" (immediate death), "quit" (graceful leave with
	// key handoff) or "revive" (rejoin with empty state).
	Kind string
}

// DefaultScenario mirrors the paper's Section 6.1 environment: 1200×1200 m
// area, 9 regions, 250 m range, 11 Mb/s, Poisson requests and updates with
// 30 s means, Zipf-skewed keys, random waypoint with 5 s pause.
func DefaultScenario() Scenario {
	return Scenario{
		Name:            "default",
		Seed:            1,
		Nodes:           80,
		AreaSide:        1200,
		Regions:         9,
		MobilityModel:   "waypoint",
		MaxSpeed:        6,
		Pause:           5,
		Range:           250,
		Bandwidth:       11e6,
		Items:           1000,
		MinItemSize:     1024,
		MaxItemSize:     10 * 1024,
		ZipfTheta:       0.8,
		RequestInterval: 30,
		UpdateInterval:  0,
		Retrieval:       "precinct",
		Consistency:     "none",
		TTRAlpha:        0.5,
		Policy:          "gd-ld",
		CacheFraction:   0.015,
		EnRoute:         true,
		Replicas:        1,
		Warmup:          300,
		Duration:        2000,
		ChurnDowntime:   60,
		ChurnGraceful:   0.8,
	}
}

// Validate checks the scenario without building it.
func (s Scenario) Validate() error {
	_, err := s.build()
	return err
}

// nonFinite looks for a NaN or infinite float64 reachable from v through
// struct fields and slice elements, and returns its path from v
// (".Duration", ".WorkloadCfg.FlashAt", ".Faults[2].At"). Range checks are
// written as comparisons, which NaN passes, and an infinite horizon never
// ends, so non-finite input is rejected before anything else reads it.
// The path is assembled on the way back out: a clean walk allocates
// nothing.
func nonFinite(v reflect.Value) (path string, found bool) {
	switch v.Kind() {
	case reflect.Float64:
		f := v.Float()
		return "", math.IsNaN(f) || math.IsInf(f, 0)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p, ok := nonFinite(v.Field(i)); ok {
				return "." + v.Type().Field(i).Name + p, true
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if p, ok := nonFinite(v.Index(i)); ok {
				return fmt.Sprintf("[%d]%s", i, p), true
			}
		}
	}
	return "", false
}

// built is the assembled simulation, ready to run.
type built struct {
	scenario Scenario
	network  *node.Network
	channel  *radio.Channel
	meter    *energy.Meter
	catalog  *workload.Catalog
	table    *region.Table
	sched    *sim.Scheduler
	coll     *metrics.Collector
}

// armChurn starts background churn: each tick draws a victim, then
// whether it leaves gracefully, arms its return, and last draws the gap
// to the next tick. The draw order is part of the recorded behaviour.
func (b *built) armChurn(rng *rand.Rand) {
	s := b.scenario
	var armTick func()
	armTick = func() {
		b.sched.After(rng.ExpFloat64()*s.ChurnInterval, func() {
			id := radio.NodeID(rng.Intn(s.Nodes))
			if b.network.Peer(id).Alive() {
				if rng.Float64() < s.ChurnGraceful {
					b.network.Quit(id)
				} else {
					b.network.Crash(id)
				}
				b.sched.After(s.ChurnDowntime, func() { b.network.Revive(id) })
			}
			armTick()
		})
	}
	armTick()
}

// policyByName constructs a replacement policy through the cache
// registry. The zero Weights value keeps each policy's defaults.
func policyByName(name string, w Weights) (cache.Policy, error) {
	return cache.NewPolicy(name, cache.Params{
		Weights: cache.Weights{WR: w.WR, WD: w.WD, WS: w.WS},
	})
}

// PolicyNames lists the selectable Scenario.Policy values (every policy
// registered with the cache layer), sorted.
func PolicyNames() []string { return cache.Names() }

// lossStreams builds the per-sender frame-loss RNG streams the radio
// layer consumes. One stream per sender keeps loss draws independent of
// which shard executes a transmission, so sharded runs reproduce the
// sequential draw sequence exactly.
func lossStreams(rng *sim.RNG, n int) []*rand.Rand {
	out := make([]*rand.Rand, n)
	for i := range out {
		out[i] = rng.Stream(fmt.Sprintf("loss/%d", i))
	}
	return out
}

// buildMobility constructs the scenario's mobility model against a given
// RNG registry. Shard replicas call it with identically-seeded fresh
// registries: streams are derived by name, so each replica's model walks
// the exact trajectory the primary's does.
func (s Scenario) buildMobility(area geo.Rect, rng *sim.RNG) (mobility.Model, error) {
	switch s.MobilityModel {
	case "waypoint":
		return mobility.NewWaypoint(s.Nodes, mobility.WaypointConfig{
			Area:     area,
			MinSpeed: 0.5,
			MaxSpeed: s.MaxSpeed,
			Pause:    s.Pause,
		}, rng)
	case "static":
		return mobility.NewGridStatic(s.Nodes, area, 0.25, rng.Stream("placement"))
	case "random-walk":
		return mobility.NewWalk(s.Nodes, mobility.WalkConfig{
			Area:     area,
			MinSpeed: 0.5,
			MaxSpeed: s.MaxSpeed,
			StepTime: 20,
		}, rng)
	case "gauss-markov":
		return mobility.NewGaussMarkov(s.Nodes, mobility.GaussMarkovConfig{
			Area:           area,
			MeanSpeed:      s.MaxSpeed,
			SpeedSigma:     s.MaxSpeed / 4,
			Alpha:          0.85,
			UpdateInterval: 1,
		}, rng)
	default:
		return nil, fmt.Errorf("precinct: unknown mobility model %q", s.MobilityModel)
	}
}

// radioConfig maps the scenario's radio knobs onto the channel config.
func (s Scenario) radioConfig() radio.Config {
	cfg := radio.DefaultConfig()
	cfg.Range = s.Range
	cfg.Bandwidth = s.Bandwidth
	cfg.LossRate = s.LossRate
	cfg.BeaconInterval = s.BeaconInterval
	cfg.Collisions = s.Collisions
	return cfg
}

// build wires the scenario into a runnable simulation.
// buildWorkload constructs the catalog and the traffic source the
// scenario selects (DESIGN.md section 15). The default path makes
// exactly the calls the pre-Source code made — same catalog, same
// generator, no extra RNG streams — which is what keeps it
// byte-identical (TestWorkloadDefaultGolden).
func (s Scenario) buildWorkload(rng *sim.RNG) (*workload.Catalog, workload.Source, error) {
	kind := s.Workload
	if kind == "" {
		kind = workload.KindDefault
	}
	if s.TracePath != "" && kind != workload.KindTrace {
		return nil, nil, fmt.Errorf("precinct: TracePath is set but the workload is %q, not %q", kind, workload.KindTrace)
	}
	if kind == workload.KindTrace {
		if s.TracePath == "" {
			return nil, nil, fmt.Errorf("precinct: workload %q requires TracePath", kind)
		}
		tr, err := workload.ReadTraceFile(s.TracePath)
		if err != nil {
			return nil, nil, err
		}
		src, err := workload.NewTraceSource(workload.TraceSourceConfig{
			Trace:           tr,
			Peers:           s.Nodes,
			RequestInterval: s.RequestInterval,
			UpdateInterval:  s.UpdateInterval,
		})
		if err != nil {
			return nil, nil, err
		}
		return src.Catalog(), src, nil
	}

	catalog, err := workload.NewCatalog(workload.CatalogConfig{
		Items: s.Items, MinSize: s.MinItemSize, MaxSize: s.MaxItemSize,
	})
	if err != nil {
		return nil, nil, err
	}
	gen, err := workload.NewGenerator(workload.GeneratorConfig{
		Catalog:         catalog,
		ZipfTheta:       s.ZipfTheta,
		UpdateZipfTheta: s.UpdateZipfTheta,
		RequestInterval: s.RequestInterval,
		UpdateInterval:  s.UpdateInterval,
	})
	if err != nil {
		return nil, nil, err
	}

	w := s.WorkloadCfg
	measured := s.Duration - s.Warmup
	switch kind {
	case workload.KindDefault:
		return catalog, workload.DefaultSource{Gen: gen}, nil

	case workload.KindFlashCrowd:
		at := w.FlashAt
		if at == 0 {
			at = s.Warmup + measured/3
		}
		dur := w.FlashDuration
		if dur == 0 {
			dur = measured / 4
		}
		hot := w.FlashHotset
		if hot == 0 {
			hot = max(1, s.Items/100)
		}
		boost := w.FlashBoost
		if boost == 0 {
			boost = 0.6
		}
		src, err := workload.NewFlashCrowd(workload.FlashCrowdConfig{
			Gen: gen, At: at, Duration: dur, Hotset: hot, Boost: boost, Seed: s.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		return catalog, src, nil

	case workload.KindDiurnal:
		period := w.DriftPeriod
		if period == 0 {
			period = measured
		}
		src, err := workload.NewDiurnal(workload.DiurnalConfig{Gen: gen, Period: period})
		if err != nil {
			return nil, nil, err
		}
		return catalog, src, nil

	case workload.KindHotspot:
		grid := w.HotspotGrid
		if grid == 0 {
			grid = 3
		}
		hot := w.HotspotHotset
		if hot == 0 {
			hot = max(1, s.Items/50)
		}
		boost := w.HotspotBoost
		if boost == 0 {
			boost = 0.5
		}
		src, err := workload.NewHotspot(workload.HotspotConfig{
			Gen: gen, AreaSide: s.AreaSide, Grid: grid, Hotset: hot, Boost: boost, Seed: s.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		return catalog, src, nil

	case workload.KindRankChurn:
		every := w.ChurnEvery
		if every == 0 {
			every = 60
		}
		swaps := w.ChurnSwaps
		if swaps == 0 {
			swaps = max(1, s.Items/20)
		}
		src, err := workload.NewRankChurn(workload.RankChurnConfig{
			Gen: gen, Every: every, Swaps: swaps, RNG: rng.Stream("workload/churn"),
		})
		if err != nil {
			return nil, nil, err
		}
		return catalog, src, nil

	default:
		return nil, nil, fmt.Errorf("precinct: unknown workload %q", s.Workload)
	}
}

// WorkloadKinds lists the selectable Scenario.Workload values, default
// first.
func WorkloadKinds() []string {
	return []string{
		workload.KindDefault, workload.KindTrace, workload.KindFlashCrowd,
		workload.KindDiurnal, workload.KindHotspot, workload.KindRankChurn,
	}
}

func (s Scenario) build() (*built, error) { return s.buildTraced(nil) }

// buildTraced wires the scenario with an optional protocol tracer.
func (s Scenario) buildTraced(tracer trace.Tracer) (*built, error) {
	if path, found := nonFinite(reflect.ValueOf(&s).Elem()); found {
		return nil, fmt.Errorf("precinct: %s must be finite", path[1:])
	}
	if s.Nodes <= 0 {
		return nil, fmt.Errorf("precinct: nodes must be positive, got %d", s.Nodes)
	}
	if s.AreaSide <= 0 {
		return nil, fmt.Errorf("precinct: area side must be positive, got %v", s.AreaSide)
	}
	if s.Duration <= 0 {
		return nil, fmt.Errorf("precinct: duration must be positive, got %v", s.Duration)
	}
	if s.Warmup < 0 || s.Warmup >= s.Duration {
		return nil, fmt.Errorf("precinct: warmup %v must be in [0, duration)", s.Warmup)
	}
	if s.Shards < 0 {
		return nil, fmt.Errorf("precinct: shards must be non-negative, got %d", s.Shards)
	}
	if s.Shards > 1 {
		if s.Shards > s.Nodes {
			return nil, fmt.Errorf("precinct: %d shards exceed %d nodes", s.Shards, s.Nodes)
		}
		if s.BeaconInterval > 0 {
			return nil, fmt.Errorf("precinct: sharded runs require perfect location knowledge (BeaconInterval 0)")
		}
		if s.AdaptiveRegions {
			return nil, fmt.Errorf("precinct: sharded runs do not support adaptive region management")
		}
		if s.Workload != "" && s.Workload != workload.KindDefault {
			return nil, fmt.Errorf("precinct: sharded runs support only the default workload, got %q", s.Workload)
		}
	}
	switch s.ShardBalance {
	case "", ShardBalanceLoad, ShardBalanceCount:
	default:
		return nil, fmt.Errorf("precinct: unknown shard balance %q (want %q or %q)", s.ShardBalance, ShardBalanceLoad, ShardBalanceCount)
	}

	rng := sim.NewRNG(s.Seed)
	sched := sim.NewScheduler()
	if s.Shards > 1 {
		// Shard schedulers share one counter set; pre-size it for every
		// creator (-1..Nodes-1) so concurrent draws never grow the slice.
		sched = sim.NewSchedulerWithCounters(sim.NewCounters(s.Nodes))
		sched.SplitGlobal()
	}
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(s.AreaSide, s.AreaSide))

	mob, err := s.buildMobility(area, rng)
	if err != nil {
		return nil, err
	}

	meter, err := energy.NewMeter(s.Nodes, energy.DefaultModel())
	if err != nil {
		return nil, err
	}

	ch, err := radio.New(s.radioConfig(), sched, mob, meter, lossStreams(rng, s.Nodes))
	if err != nil {
		return nil, err
	}

	var table *region.Table
	if s.VoronoiRegions {
		if s.AdaptiveRegions {
			return nil, fmt.Errorf("precinct: adaptive region management requires a grid partition")
		}
		seedRNG := rng.Stream("voronoi")
		seeds := make([]geo.Point, s.Regions)
		for i := range seeds {
			seeds[i] = geo.Pt(
				area.Min.X+seedRNG.Float64()*area.Width(),
				area.Min.Y+seedRNG.Float64()*area.Height(),
			)
		}
		table, err = region.NewVoronoi(area, seeds)
	} else {
		table, err = region.NewGridN(area, s.Regions)
	}
	if err != nil {
		return nil, err
	}

	catalog, src, err := s.buildWorkload(rng)
	if err != nil {
		return nil, err
	}

	retrieval, err := node.ParseRetrievalScheme(s.Retrieval)
	if err != nil {
		return nil, err
	}
	scheme, err := consistency.ParseScheme(s.Consistency)
	if err != nil {
		return nil, err
	}
	policy, err := policyByName(s.Policy, s.GDLDWeights)
	if err != nil {
		return nil, err
	}

	cfg := node.DefaultConfig()
	cfg.Retrieval = retrieval
	cfg.Consistency = consistency.Config{
		Scheme:     scheme,
		Alpha:      s.TTRAlpha,
		InitialTTR: s.RequestInterval,
	}
	cfg.Policy = policy
	cfg.EnRoute = s.EnRoute
	cfg.Replicas = s.Replicas
	cfg.Warmup = s.Warmup
	if s.AdaptiveRegions {
		cfg.Adaptive.Enabled = true
		if s.AdaptiveInterval > 0 {
			cfg.Adaptive.Interval = s.AdaptiveInterval
		}
		if s.AdaptiveSplitAbove > 0 {
			cfg.Adaptive.SplitAbove = s.AdaptiveSplitAbove
		}
		if s.AdaptiveMergeBelow > 0 {
			cfg.Adaptive.MergeBelow = s.AdaptiveMergeBelow
		}
	}
	cfg.CacheBytes = int64(max(s.CacheFraction, 0) * float64(catalog.TotalSize()))

	coll := newCollector()
	if s.RequestInterval > 0 {
		// Pre-size the latency buffer for the expected measured-request
		// volume so large-N runs do not regrow it inside the event loop
		// (a capped collector clamps the reservation to its cap).
		expected := float64(s.Nodes) * (s.Duration - s.Warmup) / s.RequestInterval
		if max := 1 << 21; expected > float64(max) {
			expected = float64(max)
		}
		coll.Reserve(int(expected))
	}
	network, err := node.New(node.Options{
		Config:    cfg,
		Scheduler: sched,
		Channel:   ch,
		Regions:   table,
		Catalog:   catalog,
		Source:    src,
		Collector: coll,
		Meter:     meter,
		RNG:       rng,
		Tracer:    tracer,
	})
	if err != nil {
		return nil, err
	}
	if s.ChurnInterval < 0 || s.ChurnDowntime < 0 || s.ChurnGraceful < 0 || s.ChurnGraceful > 1 {
		return nil, fmt.Errorf("precinct: invalid churn parameters")
	}
	b := &built{
		scenario: s, network: network, channel: ch,
		meter: meter, catalog: catalog, table: table,
		sched: sched, coll: coll,
	}
	if s.ChurnInterval > 0 {
		b.armChurn(rng.Stream("churn"))
	}
	for i, f := range s.Faults {
		if f.Node < 0 || f.Node >= s.Nodes {
			return nil, fmt.Errorf("precinct: fault %d targets unknown node %d", i, f.Node)
		}
		if f.At < 0 || f.At > s.Duration {
			return nil, fmt.Errorf("precinct: fault %d at %v outside the run", i, f.At)
		}
		id := radio.NodeID(f.Node)
		var fn func()
		switch f.Kind {
		case "crash":
			fn = func() { network.Crash(id) }
		case "quit":
			fn = func() { network.Quit(id) }
		case "revive":
			fn = func() { network.Revive(id) }
		default:
			return nil, fmt.Errorf("precinct: fault %d has unknown kind %q", i, f.Kind)
		}
		sched.At(f.At, fn)
	}
	return b, nil
}

// Run executes the scenario to completion and returns its results.
func Run(s Scenario) (Result, error) {
	return run(s, nil)
}

// RunTraced executes the scenario while streaming protocol events —
// request lifecycles, handoffs, updates, node failures — as JSON lines to
// w. The stream is flushed before RunTraced returns.
func RunTraced(s Scenario, w io.Writer) (Result, error) {
	tw := trace.NewWriter(w)
	res, err := run(s, tw)
	if ferr := tw.Flush(); err == nil {
		err = ferr
	}
	return res, err
}

func run(s Scenario, tracer trace.Tracer) (Result, error) {
	res, _, err := runWithStats(s, tracer)
	return res, err
}

// RunStats carries execution statistics of a completed run that are
// deliberately kept out of Result (which golden fixtures and the
// equivalence suites compare with DeepEqual): scheduler throughput
// inputs for the scale benchmarks.
type RunStats struct {
	// Events is the number of discrete events the scheduler executed.
	Events uint64
	// HeapPushes is the number of entries pushed onto the scheduler's
	// heap, FanMembers the number of events that fired as members of a
	// fan: a broadcast's same-shard receptions share one entry, so only
	// the first of them pays a push and only the last a pop.
	HeapPushes uint64
	FanMembers uint64
	// RehomePasses is the number of key re-homing passes that ran in
	// full, RehomeSkips the number skipped because nothing a pass reads
	// had changed since a clean one; their sum is the number of passes
	// the protocol asked for.
	RehomePasses uint64
	RehomeSkips  uint64

	// Parallel-run protocol counters, all zero for sequential runs.
	// Windows is the number of concurrent execution windows;
	// EmptyShardWindows counts shard-windows skipped because the shard
	// had nothing due before the horizon. BarrierDrains is the number
	// of single-threaded barrier rounds (global events and end-of-run
	// instants); OutboxFlushes the number of cross-shard exchange
	// rounds, moving RemoteDeliveries deliveries in total.
	Windows           uint64
	EmptyShardWindows uint64
	BarrierDrains     uint64
	OutboxFlushes     uint64
	RemoteDeliveries  uint64

	// ShardEvents is the number of events each shard's scheduler fired;
	// ShardLoads the probe-measured weight assigned to each shard under
	// ShardBalance "load" (nil under "count"). Together they quantify
	// how balanced the split actually was.
	ShardEvents []uint64
	ShardLoads  []uint64
}

// RunWithStats executes the scenario like Run and additionally reports
// execution statistics (event counts) for throughput measurement.
func RunWithStats(s Scenario) (Result, RunStats, error) {
	return runWithStats(s, nil)
}

func runWithStats(s Scenario, tracer trace.Tracer) (Result, RunStats, error) {
	if s.Shards > 1 {
		return runParallel(s, tracer)
	}
	b, err := s.buildTraced(tracer)
	if err != nil {
		return Result{}, RunStats{}, err
	}
	rep := b.network.Run(s.Duration)
	stats := RunStats{
		Events:     b.sched.Executed(),
		HeapPushes: b.sched.HeapPushes(),
		FanMembers: b.sched.FanFired(),
	}
	stats.RehomePasses, stats.RehomeSkips = b.network.RehomeCounts()
	return b.result(rep), stats, nil
}
