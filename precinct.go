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
	"strconv"

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
	// Regions is the number of equal grid regions the area is divided
	// into (perfect squares and products of small factors work best).
	// The partition is fixed for the whole run.
	Regions int

	// MobilityModel is "waypoint" (random waypoint) or "static" (a
	// jittered static grid, the Section 6.2.3 validation topology).
	MobilityModel string
	// MaxSpeed is the waypoint maximum speed in m/s.
	MaxSpeed float64
	// Pause is the waypoint pause time in seconds.
	Pause float64

	// Range is the radio range in meters; Bandwidth in bits/s.
	Range     float64
	Bandwidth float64
	// LossRate drops frames with this probability (0 = lossless).
	LossRate float64
	// BeaconInterval makes GPSR's location table stale: peers observe
	// each other's positions only every BeaconInterval seconds (0 =
	// perfect location knowledge), and every GPSR next-hop choice reads
	// those observed positions. Frames still reach, and charge, the
	// nodes truly in range. Tests the paper's robustness claim for
	// routing-to-regions under location error.
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

	// Workload selects which keys the requests and updates target
	// (DESIGN.md section 15); every workload shares the Poisson arrival
	// process above. "" or "default" is the stationary Zipf generator;
	// "flash-crowd", "diurnal", "hotspot" and "rank-churn" are the
	// non-stationary sources, whose parameters are fixed and scale with
	// Items and the measured window. Non-default workloads require a
	// sequential run (Shards <= 1) — their sources mutate shared draw
	// state.
	Workload string

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
	// perfect location knowledge (BeaconInterval 0).
	Shards int
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

// Validate checks the scenario by building it: every layer is assembled
// and then discarded, so the cost is a run's setup without its events.
func (s Scenario) Validate() error {
	_, err := s.build()
	return err
}

// nonFinite looks for a NaN or infinite float64 reachable from v through
// struct fields and slice elements, and returns its path from v
// (".Duration", ".GDLDWeights.WR", ".Faults[2].At"). Range checks are
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
// sequential draw sequence exactly. A lossless scenario draws nothing
// and gets none: streams are derived by name, so building them or not
// moves no other stream.
func (s Scenario) lossStreams(rng *sim.RNG) []*rand.Rand {
	if s.LossRate <= 0 {
		return nil
	}
	out := make([]*rand.Rand, s.Nodes)
	name := append(make([]byte, 0, 32), "loss/"...)
	for i := range out {
		out[i] = rng.Stream(string(strconv.AppendInt(name, int64(i), 10)))
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
	default:
		return nil, fmt.Errorf("precinct: unknown mobility model %q: want waypoint or static", s.MobilityModel)
	}
}

// radioConfig maps the scenario's radio knobs onto the channel config.
func (s Scenario) radioConfig() radio.Config {
	cfg := radio.DefaultConfig()
	cfg.Range = s.Range
	cfg.Bandwidth = s.Bandwidth
	cfg.LossRate = s.LossRate
	cfg.BeaconInterval = s.BeaconInterval
	return cfg
}

// buildWorkload constructs the catalog, the traffic source the scenario
// selects (DESIGN.md section 15) and the arrival process every source
// shares. The default path makes exactly the calls the pre-Source code
// made — same catalog, same generator, no extra RNG streams — which is
// what keeps it byte-identical (TestWorkloadDefaultGolden).
func (s Scenario) buildWorkload(rng *sim.RNG) (*workload.Catalog, workload.Source, *workload.Arrivals, error) {
	kind := s.Workload
	if kind == "" {
		kind = workload.KindDefault
	}
	catalog, err := workload.NewCatalog(workload.CatalogConfig{
		Items: s.Items, MinSize: s.MinItemSize, MaxSize: s.MaxItemSize,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	gen, err := workload.NewGenerator(workload.GeneratorConfig{
		Catalog: catalog, ZipfTheta: s.ZipfTheta, UpdateZipfTheta: s.UpdateZipfTheta,
		RequestInterval: s.RequestInterval, UpdateInterval: s.UpdateInterval,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var src workload.Source
	switch kind {
	case workload.KindDefault:
		src = workload.DefaultSource{Gen: gen}
	case workload.KindFlashCrowd:
		src = workload.NewFlashCrowd(gen, s.Warmup, s.Duration, s.Seed)
	case workload.KindDiurnal:
		src = workload.NewDiurnal(gen, s.Warmup, s.Duration)
	case workload.KindHotspot:
		src = workload.NewHotspot(gen, s.AreaSide, s.Seed)
	case workload.KindRankChurn:
		src = workload.NewRankChurn(gen, rng.Stream("workload/churn"))
	default:
		return nil, nil, nil, fmt.Errorf("precinct: unknown workload %q", s.Workload)
	}
	return catalog, src, gen.Arrivals(), nil
}

// WorkloadKinds lists the selectable Scenario.Workload values, default
// first.
func WorkloadKinds() []string {
	return []string{
		workload.KindDefault, workload.KindFlashCrowd, workload.KindDiurnal,
		workload.KindHotspot, workload.KindRankChurn,
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
		if s.Workload != "" && s.Workload != workload.KindDefault {
			return nil, fmt.Errorf("precinct: sharded runs support only the default workload, got %q", s.Workload)
		}
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

	ch, err := radio.New(s.radioConfig(), sched, mob, meter, s.lossStreams(rng))
	if err != nil {
		return nil, err
	}

	table, err := region.NewGridN(area, s.Regions)
	if err != nil {
		return nil, err
	}

	catalog, src, arrivals, err := s.buildWorkload(rng)
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
		Arrivals:  arrivals,
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

	// ShardEvents is the number of events each shard's scheduler fired:
	// how balanced the split actually was.
	ShardEvents []uint64
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
