package precinct

// Parallel event execution: a conservative-lookahead sharded run of the
// discrete-event loop (DESIGN.md section 13).
//
// The node population is sliced into Scenario.Shards spatial shards, each
// owning a replica of the simulation world — scheduler, radio channel,
// mobility model, energy meter, metrics collector, trace buffer — that
// shares the protocol state (peers, region tables, key ground truth) with
// every other shard. Shard workers execute their peers' events
// concurrently inside windows bounded by the minimum radio frame delay:
// within such a window no transmission can reach another node, so no
// cross-shard interaction is possible and the shards are independent.
// Cross-shard frame deliveries are parked in per-channel outboxes and
// exchanged at window boundaries, carrying canonical event keys reserved
// on the sender, so every event sorts exactly where the sequential run
// would have placed it. Events that mutate shared state (updates, churn,
// faults, the warmup meter reset) execute with execAs -1, which routes
// them to a separate global queue; the coordinator fires those
// single-threaded at barriers, interleaved with same-timestamp local
// events in canonical key order — the exact order the sequential
// scheduler would have used. The result is report-identical to the
// sequential run: same Report, same protocol/radio counters, same
// canonical trace.
//
// Synchronization is a decentralized round protocol over one reusable
// rendezvous (sim.WindowBarrier): each round, every participant
// publishes its queue-head times and outbox depth, crosses the barrier
// once, and computes the identical next decision — flush, barrier
// drain, or window — from the published snapshot. A pure window costs a
// single barrier crossing (the next round's rendezvous doubles as the
// join), cross-shard exchange runs only in rounds where a frame is
// actually pending, and a shard with nothing due before the horizon
// skips its window entirely.

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"precinct/internal/energy"
	"precinct/internal/geo"
	"precinct/internal/metrics"
	"precinct/internal/node"
	"precinct/internal/radio"
	"precinct/internal/sim"
	"precinct/internal/trace"
)

// Scenario.ShardBalance values.
const (
	// ShardBalanceLoad — the default — sizes shards by measured event
	// load: a short sequential probe run tallies fired events per peer,
	// and the x-sorted peer order is cut into contiguous strips of
	// equal cumulative load.
	ShardBalanceLoad = "load"
	// ShardBalanceCount cuts the x-sorted peer order into equal-count
	// strips (the pre-probe behavior). Cheaper to set up and fully
	// predictable, at the price of load imbalance when event rates vary
	// across the area.
	ShardBalanceCount = "count"
)

// shardBalanceMode resolves the empty default.
func (s Scenario) shardBalanceMode() string {
	if s.ShardBalance == "" {
		return ShardBalanceLoad
	}
	return s.ShardBalance
}

// shardStatus is one shard's published round snapshot: float64 bits of
// its earliest local and global event times (+Inf when empty) and its
// parked cross-shard delivery count. Slots are double-buffered by round
// parity: a participant that has raced ahead into round r+1 publishes
// into the other buffer, so the round-r snapshot stays frozen while
// slower participants are still reading it. (Without this, a fast shard
// could finish its window, loop, and overwrite its slot before a slow
// shard computed the round's decision — the two would then disagree on
// the decision and fall out of lockstep.) It cannot race further ahead
// than that: entering round r+2 requires every participant to have
// crossed round r+1's rendezvous, which they only do after reading
// round r. Padded so one shard's publishes stay on one cache line.
type shardStatus struct {
	local  [2]atomic.Uint64
	global [2]atomic.Uint64
	outbox [2]atomic.Uint64
	_      [16]byte
}

// parallelStats counts coordinator-side protocol activity; only
// participant 0 writes it, after the run it feeds RunStats.
type parallelStats struct {
	windows           uint64
	emptyShardWindows uint64
	barrierDrains     uint64
	flushes           uint64
	remote            uint64
}

// parallelRun is an assembled sharded simulation. Index 0 of every slice
// is the primary world built by buildTraced; indices 1.. are replicas.
type parallelRun struct {
	b         *built
	shardOf   []int32
	scheds    []*sim.Scheduler
	channels  []*radio.Channel
	clones    []*node.Network
	colls     []*metrics.Collector
	meters    []*energy.Meter
	bufs      []*trace.Buffer // per-shard trace buffers; nil when untraced
	lookahead float64

	bar    *sim.WindowBarrier
	status []shardStatus
	loads  []uint64 // probe-measured weight per shard; nil in count mode
	stats  parallelStats
}

// probeWindow is the simulated prefix the shard-load probe replays:
// long enough to see steady-state request/update/mobility rates, short
// enough to stay a small fraction of the real run.
func probeWindow(duration float64) float64 {
	w := 0.04 * duration
	if w < 2 {
		w = 2
	}
	if w > 15 {
		w = 15
	}
	if w > duration {
		w = duration
	}
	return w
}

// measureShardLoad replays a short sequential prefix of the scenario
// and returns one weight per peer: 1 + the number of events the
// scheduler fired in that peer's execution context. The probe world is
// built from the scenario's own seed and discarded, so it perturbs
// nothing and the weights — hence the shard assignment — are a pure
// deterministic function of the scenario.
func measureShardLoad(s Scenario) ([]uint64, error) {
	probe := s
	probe.Shards = 0
	probe.ShardBalance = ""
	probe.Duration = probeWindow(s.Duration)
	if probe.Warmup >= probe.Duration {
		probe.Warmup = 0
	}
	if len(probe.Faults) > 0 {
		// Faults beyond the probe horizon fail validation (and cannot
		// fire anyway); keep only the ones inside the window.
		kept := probe.Faults[:0:0]
		for _, f := range probe.Faults {
			if f.At <= probe.Duration {
				kept = append(kept, f)
			}
		}
		probe.Faults = kept
	}
	b, err := probe.buildTraced(nil)
	if err != nil {
		return nil, fmt.Errorf("precinct: shard-load probe: %w", err)
	}
	b.sched.CountExec(probe.Nodes)
	b.network.Run(probe.Duration)
	counts := b.sched.ExecCounts()
	weights := make([]uint64, probe.Nodes)
	for i := range weights {
		weights[i] = 1 + counts[i+1]
	}
	return weights, nil
}

// shardAssignment maps every peer to a shard by sorting the initial node
// layout along x (ties by y, then id) and slicing it into contiguous
// strips: equal peer counts when weights is nil, equal cumulative weight
// otherwise, always at least one peer per shard. Spatial contiguity
// keeps most radio traffic shard-local early on; ownership is static, so
// peers that later roam across strips simply generate more cross-shard
// deliveries — correctness never depends on where a peer is, only on who
// owns it.
func shardAssignment(b *built, shards int, weights []uint64) []int32 {
	n := b.scenario.Nodes
	type placed struct {
		pos geo.Point
		id  int
	}
	pts := make([]placed, n)
	for i := range pts {
		pts[i] = placed{pos: b.channel.Position(radio.NodeID(i)), id: i}
	}
	sort.Slice(pts, func(a, c int) bool {
		if pts[a].pos.X != pts[c].pos.X {
			return pts[a].pos.X < pts[c].pos.X
		}
		if pts[a].pos.Y != pts[c].pos.Y {
			return pts[a].pos.Y < pts[c].pos.Y
		}
		return pts[a].id < pts[c].id
	})
	out := make([]int32, n)
	if weights == nil {
		for rank, p := range pts {
			out[p.id] = int32(rank * shards / n)
		}
		return out
	}
	var total uint64
	for _, w := range weights {
		total += w
	}
	// Greedy equal-load cuts: walk the sorted order accumulating
	// weight; move to the next shard once this shard's share of the
	// total is covered — or when the remaining peers are exactly enough
	// to give every remaining shard one, which guarantees no shard ends
	// up empty no matter how skewed the weights are.
	var cum uint64
	shard := 0
	for rank, p := range pts {
		out[p.id] = int32(shard)
		cum += weights[p.id]
		if shard < shards-1 {
			mustAdvance := n-rank-1 == shards-shard-1
			hitShare := cum*uint64(shards) >= total*uint64(shard+1)
			if mustAdvance || hitShare {
				shard++
			}
		}
	}
	return out
}

// buildParallel assembles the sharded simulation: the shard-load probe
// (unless ShardBalance is "count"), the primary world via buildTraced,
// one replica world per additional shard, then the network clones bound
// to their shards.
func (s Scenario) buildParallel(tracer trace.Tracer) (*parallelRun, error) {
	var weights []uint64
	if s.shardBalanceMode() == ShardBalanceLoad {
		w, err := measureShardLoad(s)
		if err != nil {
			return nil, err
		}
		weights = w
	}
	var bufs []*trace.Buffer
	var primaryTracer trace.Tracer
	if tracer != nil {
		// Shards emit into private buffers; the merged canonical stream
		// is replayed into the caller's tracer after the run.
		bufs = make([]*trace.Buffer, s.Shards)
		for i := range bufs {
			bufs[i] = &trace.Buffer{}
		}
		primaryTracer = bufs[0]
	}
	b, err := s.buildTraced(primaryTracer)
	if err != nil {
		return nil, err
	}
	p := &parallelRun{
		b:         b,
		scheds:    make([]*sim.Scheduler, s.Shards),
		channels:  make([]*radio.Channel, s.Shards),
		clones:    make([]*node.Network, s.Shards),
		colls:     make([]*metrics.Collector, s.Shards),
		meters:    make([]*energy.Meter, s.Shards),
		bufs:      bufs,
		lookahead: b.channel.Config().Lookahead(),
		bar:       sim.NewWindowBarrier(s.Shards),
		status:    make([]shardStatus, s.Shards),
	}
	p.scheds[0], p.channels[0], p.clones[0] = b.sched, b.channel, b.network
	p.colls[0], p.meters[0] = b.coll, b.meter
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(s.AreaSide, s.AreaSide))
	for k := 1; k < s.Shards; k++ {
		// Each replica rebuilds mobility and loss streams from a fresh
		// registry with the primary's seed: streams are derived by name,
		// so replica trajectories and draws match the primary's exactly.
		rng := sim.NewRNG(s.Seed)
		sched := sim.NewSchedulerWithCounters(b.sched.Counters())
		sched.SplitGlobal()
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
		var tr trace.Tracer
		if bufs != nil {
			tr = bufs[k]
		}
		coll := newCollector()
		clone, err := b.network.CloneForShard(node.ShardWorld{
			Scheduler: sched,
			Channel:   ch,
			Collector: coll,
			Meter:     meter,
			Tracer:    tr,
		})
		if err != nil {
			return nil, err
		}
		p.scheds[k], p.channels[k], p.clones[k] = sched, ch, clone
		p.colls[k], p.meters[k] = coll, meter
	}
	p.shardOf = shardAssignment(b, s.Shards, weights)
	if weights != nil {
		p.loads = make([]uint64, s.Shards)
		for id, w := range weights {
			p.loads[p.shardOf[id]] += w
		}
	}
	if err := b.network.EnableSharding(p.shardOf, p.clones); err != nil {
		return nil, err
	}
	return p, nil
}

// run drives the round protocol to the end time. Shard 0 (the
// coordinator, which also executes all single-threaded work) runs on
// the calling goroutine; shards 1.. on their own goroutines. All
// participants rejoin before run returns.
func (p *parallelRun) run(until float64) {
	p.b.network.StartParallel(until)
	var wg sync.WaitGroup
	for i := 1; i < len(p.scheds); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p.participant(i, until)
		}(i)
	}
	p.participant(0, until)
	wg.Wait()
	for _, sc := range p.scheds {
		if sc.Now() < until {
			sc.AdvanceTo(until)
		}
	}
}

// participant is one shard's side of the round protocol. Every round:
// publish this shard's queue-head times and outbox depth, rendezvous,
// and compute the identical decision every other participant reaches
// from the same published snapshot — all inputs are written before the
// barrier, so the snapshot is frozen while anyone reads it:
//
//   - a cross-shard frame is pending anywhere → flush round: the
//     coordinator moves parked deliveries to their shards while the rest
//     wait, then everyone republishes (an injected arrival may move a
//     queue head earlier than the stale snapshot says).
//   - every pending event is past `until` → done.
//   - a global event (or the end of the run) is due at or before the
//     earliest local event → barrier round: the coordinator drains the
//     due instant single-threaded in canonical key order, flushing
//     inline anything the drained events parked, while the rest wait.
//   - otherwise → window round: every shard with local work strictly
//     below the horizon H = min(T+lookahead, G, until) runs it
//     concurrently; shards with nothing due skip. No explicit join: the
//     next round's rendezvous is the join, so a window costs one
//     barrier crossing.
//
// Decisions are bit-identical across participants because they are pure
// float64 arithmetic over the identical published bits, so everyone
// always agrees on the round type and the rendezvous count stays in
// lockstep.
func (p *parallelRun) participant(i int, until float64) {
	sc := p.scheds[i]
	ch := p.channels[i]
	st := &p.status[i]
	for r := uint(0); ; r++ {
		pr := r & 1
		lt, gt := math.Inf(1), math.Inf(1)
		if t, ok := sc.PeekLocal(); ok {
			lt = t
		}
		if t, ok := sc.PeekGlobal(); ok {
			gt = t
		}
		st.local[pr].Store(math.Float64bits(lt))
		st.global[pr].Store(math.Float64bits(gt))
		st.outbox[pr].Store(uint64(ch.OutboxLen()))
		p.bar.Await()

		T, G := math.Inf(1), math.Inf(1)
		cross := false
		for k := range p.status {
			s := &p.status[k]
			if t := math.Float64frombits(s.local[pr].Load()); t < T {
				T = t
			}
			if t := math.Float64frombits(s.global[pr].Load()); t < G {
				G = t
			}
			if s.outbox[pr].Load() > 0 {
				cross = true
			}
		}
		if cross {
			if i == 0 {
				p.stats.flushes++
				p.flushOutboxes()
			}
			p.bar.Await()
			continue
		}
		M := math.Min(T, G)
		if M > until {
			return
		}
		if H := math.Min(math.Min(T+p.lookahead, G), until); H > T {
			if i == 0 {
				p.stats.windows++
				for k := range p.status {
					if math.Float64frombits(p.status[k].local[pr].Load()) >= H {
						p.stats.emptyShardWindows++
					}
				}
			}
			if lt < H {
				sc.RunBefore(H)
			}
		} else {
			if i == 0 {
				p.stats.barrierDrains++
				p.drainBarrier(M)
				// A drained event may transmit across shards; those
				// deliveries are flushed here, while every other
				// participant is parked at the rendezvous below.
				p.flushOutboxes()
			}
			p.bar.Await()
		}
	}
}

// drainBarrier executes every event due exactly at time m — global ones
// and any same-timestamp local ones — single-threaded, always firing the
// canonically least key remaining across all shards. Re-peeking each
// iteration mirrors the sequential scheduler's pop-min behavior when a
// fired event schedules more work at the same instant.
//
// Every shard clock is advanced to m first: a barrier event may touch
// peers on any shard (a quit fault re-homes keys through the owner
// clone's scheduler and channel), and those must observe the barrier
// time, not the owner shard's last window — exactly as the sequential
// run's single clock would read. No clock can be past m: windows never
// run past the earliest global event, and m is the minimum pending time.
func (p *parallelRun) drainBarrier(m float64) {
	for _, sc := range p.scheds {
		if sc.Now() < m {
			sc.AdvanceTo(m)
		}
	}
	for {
		best := -1
		var bestKey sim.EventKey
		for i, sc := range p.scheds {
			k, ok := sc.PeekKey()
			if !ok || k.Time != m {
				continue
			}
			if best < 0 || k.Less(bestKey) {
				best, bestKey = i, k
			}
		}
		if best < 0 {
			return
		}
		p.scheds[best].StepAt(m)
	}
}

// flushOutboxes moves cross-shard deliveries parked during the last
// window (or barrier) to their receiving shards, then resets each
// outbox in place so the backing arrays are reused round after round.
// Every parked arrival lies at least one lookahead past its send time,
// hence strictly beyond the window that produced it — never in the
// receiver's past. Only the coordinator calls this, and only while all
// other participants are stopped at a rendezvous.
func (p *parallelRun) flushOutboxes() {
	for _, ch := range p.channels {
		box := ch.Outbox()
		if len(box) == 0 {
			continue
		}
		p.stats.remote += uint64(len(box))
		for k := range box {
			rd := box[k]
			p.channels[p.shardOf[rd.To]].Inject(rd)
		}
		ch.ResetOutbox()
	}
}

// runParallel executes a Shards>1 scenario and merges the per-shard
// worlds into the same Result shape a sequential run produces.
func runParallel(s Scenario, tracer trace.Tracer) (Result, RunStats, error) {
	p, err := s.buildParallel(tracer)
	if err != nil {
		return Result{}, RunStats{}, err
	}
	p.run(s.Duration)

	var events, pushes, fanMembers uint64
	shardEvents := make([]uint64, len(p.scheds))
	for k, sc := range p.scheds {
		shardEvents[k] = sc.Executed()
		events += sc.Executed()
		pushes += sc.HeapPushes()
		fanMembers += sc.FanFired()
	}
	for k := 1; k < len(p.clones); k++ {
		p.b.coll.Merge(p.colls[k])
		if p.b.meter != nil {
			if err := p.b.meter.Merge(p.meters[k]); err != nil {
				return Result{}, RunStats{}, fmt.Errorf("precinct: merging shard %d meter: %w", k, err)
			}
		}
	}
	var protoStats node.Stats
	var radioStats radio.Stats
	var rehomePasses, rehomeSkips uint64
	for k := range p.clones {
		protoStats = protoStats.Add(p.clones[k].Stats())
		radioStats = radioStats.Add(p.channels[k].Stats())
		passes, skips := p.clones[k].RehomeCounts()
		rehomePasses += passes
		rehomeSkips += skips
	}
	if p.bufs != nil {
		var all []trace.Event
		for _, b := range p.bufs {
			all = append(all, b.Events...)
		}
		trace.Canonicalize(all)
		for _, e := range all {
			tracer.Emit(e)
		}
	}
	return Result{
			Scenario: s,
			Report:   p.b.network.Report(),
			Protocol: protoStats,
			Radio:    radioStats,
		}, RunStats{
			Events:            events,
			HeapPushes:        pushes,
			FanMembers:        fanMembers,
			RehomePasses:      rehomePasses,
			RehomeSkips:       rehomeSkips,
			Windows:           p.stats.windows,
			EmptyShardWindows: p.stats.emptyShardWindows,
			BarrierDrains:     p.stats.barrierDrains,
			OutboxFlushes:     p.stats.flushes,
			RemoteDeliveries:  p.stats.remote,
			ShardEvents:       shardEvents,
			ShardLoads:        p.loads,
		}, nil
}
