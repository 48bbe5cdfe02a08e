package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"precinct"
	"precinct/internal/cache"
	"precinct/internal/energy"
	"precinct/internal/geo"
	"precinct/internal/metrics"
	"precinct/internal/mobility"
	"precinct/internal/radio"
	"precinct/internal/region"
	"precinct/internal/routing"
	"precinct/internal/sim"
	wl "precinct/internal/workload"
)

// The isolated drives: each builds one layer with its real constructor
// at the workload's N, area, region count, catalog and cache size, gives
// it a no-op handler, and times one operation from outside. The unit
// costs feed the ledger (count x unit cost / wall_s); the node handlers,
// seen table and message pool cannot be driven without the whole stack,
// so the node layer owns whatever the ledger leaves unexplained.

// driveInputs is what the drives take from the timed runs.
type driveInputs struct {
	// SimDT is the simulated time per radio frame in the timed run; the
	// drives advance the clock by it so grid rebuilds and waypoint legs
	// amortise in as often as they do in the run.
	SimDT float64
	// Samples is the number of measured requests, the size the metrics
	// snapshot sorts.
	Samples int
}

// frameBytes is the payload size the radio and energy drives send.
const frameBytes = 512

type driveEnv struct {
	s      precinct.Scenario
	in     driveInputs
	budget time.Duration
	area   geo.Rect
}

// drives lists every isolated drive as layer.drive; each returns the
// metrics it measured, in nanoseconds per operation unless named _ms.
var drives = []struct {
	name string
	run  func(*driveEnv) (map[string]float64, error)
	// sharded drives run only for workloads with CheckShards > 1.
	sharded bool
}{
	{name: "sim.push_pop", run: driveScheduler},
	{name: "radio.neighbors", run: driveNeighbors},
	{name: "radio.broadcast", run: driveBroadcast},
	{name: "radio.unicast", run: driveUnicast},
	{name: "routing.nexthop", run: driveNextHop},
	{name: "cache.get_put", run: driveCache},
	{name: "metrics.request", run: driveMetrics},
	{name: "mobility.position", run: driveMobility},
	{name: "region.locate", run: driveRegion},
	{name: "workload.pick_key", run: driveWorkload},
	{name: "energy.charge", run: driveEnergy},
	{name: "parallel.barrier", run: driveBarrier, sharded: true},
}

// driveLayers runs every drive and records one span around each.
func driveLayers(s precinct.Scenario, in driveInputs, driveMS float64) (map[string]float64, []span, error) {
	e := &driveEnv{
		s: s, in: in,
		budget: time.Duration(driveMS * float64(time.Millisecond)),
		area:   geo.NewRect(geo.Pt(0, 0), geo.Pt(s.AreaSide, s.AreaSide)),
	}
	out := map[string]float64{}
	var log spanLog
	for _, d := range drives {
		if d.sharded && s.Shards < 2 {
			continue
		}
		id := log.begin("layer:"+d.name, 0)
		got, err := d.run(e)
		log.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("drive %s: %w", d.name, err)
		}
		for k, v := range got {
			out[k] = v
		}
	}
	return out, log.spans, nil
}

// timeOp calls op in batches until the budget is spent and returns the
// nanoseconds per call.
func (e *driveEnv) timeOp(op func(i int)) float64 {
	const batch = 64
	n, start := 0, time.Now()
	for {
		for j := 0; j < batch; j++ {
			op(n)
			n++
		}
		if el := time.Since(start); el >= e.budget {
			return float64(el.Nanoseconds()) / float64(n)
		}
	}
}

// gapTable holds exponential gaps of mean 1, drawn once so the drives
// time the layer and not the generator.
func gapTable(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	gaps := make([]float64, 1024)
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
	}
	return gaps
}

// driveScheduler times schedule+fire with the pending depth held at 3N
// (every fired event schedules its successor), then schedule+cancel at
// the same depth.
func driveScheduler(e *driveEnv) (map[string]float64, error) {
	sched := sim.NewScheduler()
	gaps := gapTable(e.s.Seed)
	fired := 0
	var fire func()
	fire = func() {
		fired++
		sched.After(gaps[fired&1023], fire)
	}
	for i := 0; i < 3*e.s.Nodes; i++ {
		sched.After(gaps[i&1023], fire)
	}
	inf := math.Inf(1)
	pushPop := e.timeOp(func(int) { sched.Step(inf) })
	noop := func() {}
	cancel := e.timeOp(func(i int) { sched.Cancel(sched.After(gaps[i&1023], noop)) })
	return map[string]float64{"sim.push_pop_ns": pushPop, "sim.cancel_ns": cancel}, nil
}

func (e *driveEnv) waypoint() (*mobility.Waypoint, error) {
	return mobility.NewWaypoint(e.s.Nodes, mobility.WaypointConfig{
		Area: e.area, MinSpeed: 0.5, MaxSpeed: e.s.MaxSpeed, Pause: e.s.Pause,
	}, sim.NewRNG(e.s.Seed))
}

// channel builds the radio over waypoint mobility without a meter or
// loss streams (the workloads are lossless, and the energy drive times
// charging on its own).
func (e *driveEnv) channel() (*radio.Channel, *sim.Scheduler, error) {
	mob, err := e.waypoint()
	if err != nil {
		return nil, nil, err
	}
	cfg := radio.DefaultConfig()
	cfg.Range, cfg.Bandwidth = e.s.Range, e.s.Bandwidth
	sched := sim.NewScheduler()
	ch, err := radio.New(cfg, sched, mob, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	ch.SetHandler(func(radio.NodeID, radio.Frame) {})
	return ch, sched, nil
}

func driveNeighbors(e *driveEnv) (map[string]float64, error) {
	ch, sched, err := e.channel()
	if err != nil {
		return nil, err
	}
	n := e.s.Nodes
	ns := e.timeOp(func(i int) {
		if i%64 == 0 {
			sched.AdvanceTo(sched.Now() + 64*e.in.SimDT)
		}
		ch.Neighbors(radio.NodeID(i % n))
	})
	return map[string]float64{"radio.neighbors_ns": ns}, nil
}

// driveBroadcast times one-hop fan-out, from the Broadcast call to the
// last delivery reaching the handler, per delivery.
func driveBroadcast(e *driveEnv) (map[string]float64, error) {
	ch, sched, err := e.channel()
	if err != nil {
		return nil, err
	}
	n := e.s.Nodes
	perFrame := e.timeOp(func(i int) {
		ch.Broadcast(radio.NodeID(i%n), frameBytes, nil)
		if i%64 == 63 {
			sched.RunAll()
		}
	})
	st := ch.Stats()
	if st.Deliveries == 0 {
		return nil, fmt.Errorf("no deliveries in %d broadcasts", st.BroadcastFrames)
	}
	perDelivery := perFrame * float64(st.BroadcastFrames) / float64(st.Deliveries)
	return map[string]float64{"radio.broadcast_ns_per_delivery": perDelivery}, nil
}

// connectedSample returns up to max nodes that have a neighbor, with
// their positions and a copy of their neighbor tables.
func connectedSample(ch *radio.Channel, max int) (ids []radio.NodeID, pos []geo.Point, nbrs [][]radio.Neighbor) {
	for id := radio.NodeID(0); int(id) < ch.N() && len(ids) < max; id++ {
		if nb := ch.Neighbors(id); len(nb) > 0 {
			ids = append(ids, id)
			pos = append(pos, ch.Position(id))
			nbrs = append(nbrs, append([]radio.Neighbor(nil), nb...))
		}
	}
	return ids, pos, nbrs
}

func driveUnicast(e *driveEnv) (map[string]float64, error) {
	ch, sched, err := e.channel()
	if err != nil {
		return nil, err
	}
	ids, _, nbrs := connectedSample(ch, 256)
	if len(ids) == 0 {
		return nil, fmt.Errorf("no connected pair among %d nodes", ch.N())
	}
	ns := e.timeOp(func(i int) {
		k := i % len(ids)
		ch.Unicast(ids[k], nbrs[k][0].ID, frameBytes, nil)
		if i%64 == 63 {
			sched.RunAll()
		}
	})
	return map[string]float64{"radio.unicast_ns": ns}, nil
}

// driveNextHop times GPSR's perimeter-mode decision, the one that needs
// the planarised neighbor set: warm reuses the per-node planar cache,
// cold invalidates it before every call.
func driveNextHop(e *driveEnv) (map[string]float64, error) {
	ch, _, err := e.channel()
	if err != nil {
		return nil, err
	}
	ids, pos, nbrs := connectedSample(ch, 256)
	if len(ids) == 0 {
		return nil, fmt.Errorf("no connected node among %d", ch.N())
	}
	var r routing.Router
	r.EnablePlanarCache(ch.N())
	key := ch.PlanarKey()
	dest := e.area.Max
	hop := func(i int) {
		k := i % len(ids)
		st := routing.State{Mode: routing.Perimeter, EntryPos: pos[k], FaceEntry: pos[k]}
		r.NextHop(ids[k], pos[k], nbrs[k], dest, &st)
	}
	r.SetPlanarKey(key)
	for i := range ids {
		hop(i)
	}
	warm := e.timeOp(hop)
	cold := e.timeOp(func(i int) {
		key.Topo++
		r.SetPlanarKey(key)
		hop(i)
	})
	return map[string]float64{"routing.nexthop_warm_ns": warm, "routing.nexthop_cold_ns": cold}, nil
}

func (e *driveEnv) catalog() (*wl.Catalog, error) {
	return wl.NewCatalog(wl.CatalogConfig{
		Items: e.s.Items, MinSize: e.s.MinItemSize, MaxSize: e.s.MaxItemSize,
	})
}

// driveCache times a hit on a full cache and an insert that has to
// evict, with the workload's policy, cache size and catalog.
func driveCache(e *driveEnv) (map[string]float64, error) {
	cat, err := e.catalog()
	if err != nil {
		return nil, err
	}
	policy, err := cache.NewPolicy(e.s.Policy, cache.Params{})
	if err != nil {
		return nil, err
	}
	c, err := cache.New(int64(e.s.CacheFraction*float64(cat.TotalSize())), policy)
	if err != nil {
		return nil, err
	}
	keys := cat.Keys()
	put := func(i int) {
		k := keys[i%len(keys)]
		c.Put(cache.Entry{Key: k, Size: cat.Size(k), AccessCount: 1, RegionDist: float64(i % 1000), TTRExpiry: cache.NeverExpires}, float64(i))
	}
	for i := range keys {
		put(i)
	}
	cached := c.Keys()
	if len(cached) == 0 {
		return nil, fmt.Errorf("cache of %d bytes holds nothing", c.Capacity())
	}
	get := e.timeOp(func(i int) { c.Get(cached[i%len(cached)], float64(i)) })
	// Walking the catalog in order never finds the key cached (the cache
	// holds far fewer items than the catalog), so every Put evicts.
	putEvict := e.timeOp(func(i int) { put(len(keys) + i) })
	return map[string]float64{"cache.get_ns": get, "cache.put_evict_ns": putEvict}, nil
}

// driveMetrics times recording one request, then the report's percentile
// sort at the workload's sample count.
func driveMetrics(e *driveEnv) (map[string]float64, error) {
	gaps := gapTable(e.s.Seed)
	samples := max(e.in.Samples, 1)
	var coll *metrics.Collector
	request := e.timeOp(func(i int) {
		if i%samples == 0 {
			coll = metrics.NewCollectorCapped(precinct.DefaultSampleCap)
			coll.Reserve(samples)
		}
		coll.Request(gaps[i&1023], frameBytes, metrics.HitClass(i%4), false)
	})
	coll = metrics.NewCollectorCapped(precinct.DefaultSampleCap)
	coll.Reserve(samples)
	for i := 0; i < samples; i++ {
		coll.Request(gaps[i&1023], frameBytes, metrics.HitClass(i%4), false)
	}
	calls, start := 0, time.Now()
	for calls == 0 || time.Since(start) < e.budget {
		coll.Snapshot()
		calls++
	}
	snapshot := time.Since(start).Seconds() * 1e3 / float64(calls)
	return map[string]float64{"metrics.request_ns": request, "metrics.snapshot_ms": snapshot}, nil
}

func driveMobility(e *driveEnv) (map[string]float64, error) {
	mob, err := e.waypoint()
	if err != nil {
		return nil, err
	}
	n := e.s.Nodes
	ns := e.timeOp(func(i int) { mob.Position(i%n, float64(i)*e.in.SimDT) })
	return map[string]float64{"mobility.position_ns": ns}, nil
}

func driveRegion(e *driveEnv) (map[string]float64, error) {
	table, err := region.NewGridN(e.area, e.s.Regions)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.s.Seed))
	pts := make([]geo.Point, 1024)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64()*e.s.AreaSide, rng.Float64()*e.s.AreaSide)
	}
	locate := e.timeOp(func(i int) { table.Locate(pts[i&1023]) })
	items := e.s.Items
	home := e.timeOp(func(i int) { table.HomeRegion(wl.Key(i % items)) })
	return map[string]float64{"region.locate_ns": locate, "region.home_region_ns": home}, nil
}

func driveWorkload(e *driveEnv) (map[string]float64, error) {
	cat, err := e.catalog()
	if err != nil {
		return nil, err
	}
	gen, err := wl.NewGenerator(wl.GeneratorConfig{
		Catalog: cat, ZipfTheta: e.s.ZipfTheta, UpdateZipfTheta: e.s.UpdateZipfTheta,
		RequestInterval: e.s.RequestInterval, UpdateInterval: e.s.UpdateInterval,
	})
	if err != nil {
		return nil, err
	}
	src := wl.DefaultSource{Gen: gen}
	ctx := wl.Ctx{RNG: sim.NewRNG(e.s.Seed).Stream("bench/pick")}
	ns := e.timeOp(func(i int) { src.PickKey(ctx) })
	return map[string]float64{"workload.pick_key_ns": ns}, nil
}

func driveEnergy(e *driveEnv) (map[string]float64, error) {
	meter, err := energy.NewMeter(e.s.Nodes, energy.DefaultModel())
	if err != nil {
		return nil, err
	}
	n := e.s.Nodes
	ns := e.timeOp(func(i int) { meter.Charge(i%n, energy.BroadcastRecv, frameBytes) })
	return map[string]float64{"energy.charge_ns": ns}, nil
}

// driveBarrier times one two-party WindowBarrier rendezvous, the fixed
// cost every sharded window pays.
func driveBarrier(e *driveEnv) (map[string]float64, error) {
	rounds := max(200, int(e.budget.Milliseconds())*100)
	b := sim.NewWindowBarrier(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			b.Await()
		}
	}()
	start := time.Now()
	for i := 0; i < rounds; i++ {
		b.Await()
	}
	el := time.Since(start)
	<-done
	return map[string]float64{"parallel.barrier_await_ns": float64(el.Nanoseconds()) / float64(rounds)}, nil
}
