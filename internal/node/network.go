package node

import (
	"fmt"
	"os"

	"precinct/internal/cache"
	"precinct/internal/energy"
	"precinct/internal/geo"
	"precinct/internal/metrics"
	"precinct/internal/radio"
	"precinct/internal/region"
	"precinct/internal/routing"
	"precinct/internal/sim"
	"precinct/internal/trace"
	"precinct/internal/workload"
)

// Options wires a Network to its substrates. Scheduler, Channel, Regions,
// Catalog and Collector are required; Source and Arrivals are optional
// but go together (without them no autonomous request/update drivers
// run — tests inject traffic manually); Meter is optional (energy is
// then absent from reports).
type Options struct {
	Config    Config
	Scheduler *sim.Scheduler
	Channel   *radio.Channel
	Regions   *region.Table
	Catalog   *workload.Catalog
	// Source picks the keys of autonomous traffic and Arrivals times it.
	// Leave both nil for harnesses that inject requests manually; wrap a
	// Generator in workload.DefaultSource for the classic stationary
	// workload.
	Source    workload.Source
	Arrivals  *workload.Arrivals
	Collector *metrics.Collector
	Meter     *energy.Meter
	RNG       *sim.RNG
	// Tracer receives structured protocol events when non-nil.
	Tracer trace.Tracer
}

// Stats counts protocol-layer events beyond the metrics collector.
type Stats struct {
	Handoffs        uint64 // inter-region key transfers initiated
	LostKeys        uint64 // keys that died with a peer (no custodian anywhere)
	StrandedKeys    uint64 // handoff copies adopted by a carrier outside the proper region
	HomelessKeys    uint64 // keys with no holder at placement time
	RoutingFailures uint64 // routed messages dropped (no next hop / link gone)
	LostUpdates     uint64 // update pushes dropped after exhausting retries
	PollsAnswered   uint64
	UpdatesApplied  uint64
}

// Network owns the peers of one simulation run and implements the message
// choreography of every scheme.
type Network struct {
	cfg     Config
	sched   *sim.Scheduler
	ch      *radio.Channel
	table   *region.Table
	catalog *workload.Catalog
	src     workload.Source
	arr     *workload.Arrivals
	// loc adapts this replica's channel to the workload.Locator the
	// geo-aware sources consult; built once so the per-event Ctx carries
	// an interface copy, not a fresh allocation.
	loc    workload.Locator
	coll   *metrics.Collector
	meter  *energy.Meter
	rng    *sim.RNG
	tracer trace.Tracer
	probe  Probe

	// router holds GPSR forwarding scratch so steady-state routing
	// allocates nothing. The simulation core is single-threaded, so one
	// router per network suffices.
	router routing.Router

	// pool is the message freelist (DESIGN.md section 12), poisoning
	// under PRECINCT_DEBUG=poison.
	pool msgPool
	// floods holds the flood records of the floods this replica's peers
	// have heard (DESIGN.md section 14).
	floods floodIndex
	// reqFree is the pendingReq freelist (DESIGN.md section 14).
	// Requests are born and finished on their origin peer's shard, so in
	// a sharded run each replica's freelist stays shard-local.
	reqFree []*pendingReq
	// inRegion is the scratch the custodian queries collect a region's
	// occupants into (see forLivePeersIn).
	inRegion []radio.NodeID

	peers []*Peer
	// live is the dense liveness table, one byte per peer: the only
	// record of who is alive, read by Peer.Alive and — handed to every
	// shard replica's channel — by the radio. setAlive is its only
	// writer.
	live    []bool
	truth   []uint64 // authoritative version per key (ground truth for FHR)
	stats   Stats
	started bool
	// rehomePasses and rehomeSkips count rehomeKeys calls by whether the
	// pass ran or was skipped on an unchanged mark. Skipping is not
	// behaviour, so they stay out of Stats, which result digests cover.
	rehomePasses, rehomeSkips uint64

	// clones lists every shard's Network replica (index = shard) in a
	// sharded run; nil in sequential runs. The replicas share peers, the
	// liveness table, the region table, truth and the catalog, and each owns its
	// scheduler, channel, collector, meter, router, message pool and
	// counters.
	// Every peer's net field binds it to its owner shard's replica.
	clones []*Network
	shard  int32
}

// Add returns the field-wise sum of two protocol counter snapshots;
// sharded runs use it to merge per-shard replicas into the sequential
// run's totals.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Handoffs:        s.Handoffs + o.Handoffs,
		LostKeys:        s.LostKeys + o.LostKeys,
		StrandedKeys:    s.StrandedKeys + o.StrandedKeys,
		HomelessKeys:    s.HomelessKeys + o.HomelessKeys,
		RoutingFailures: s.RoutingFailures + o.RoutingFailures,
		LostUpdates:     s.LostUpdates + o.LostUpdates,
		PollsAnswered:   s.PollsAnswered + o.PollsAnswered,
		UpdatesApplied:  s.UpdatesApplied + o.UpdatesApplied,
	}
}

// New builds the network: peers, initial key placement at home regions
// (and replica regions when replication is on), and the radio dispatch.
func New(opts Options) (*Network, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	if opts.Scheduler == nil || opts.Channel == nil || opts.Regions == nil ||
		opts.Catalog == nil || opts.Collector == nil {
		return nil, fmt.Errorf("node: scheduler, channel, regions, catalog and collector are required")
	}
	if (opts.Source == nil) != (opts.Arrivals == nil) {
		return nil, fmt.Errorf("node: Source and Arrivals must be set together")
	}
	if opts.RNG == nil {
		opts.RNG = sim.NewRNG(1)
	}
	n := &Network{
		cfg:     opts.Config,
		sched:   opts.Scheduler,
		ch:      opts.Channel,
		table:   opts.Regions,
		catalog: opts.Catalog,
		src:     opts.Source,
		arr:     opts.Arrivals,
		coll:    opts.Collector,
		meter:   opts.Meter,
		rng:     opts.RNG,
		tracer:  opts.Tracer,
		truth:   make([]uint64, opts.Catalog.Len()),
	}
	n.loc = chanLocator{n.ch}
	n.peers = make([]*Peer, n.ch.N())
	n.live = make([]bool, n.ch.N())
	// All peers are one slab: dense node indices become dense memory,
	// and peer headers stop being 100k scattered heap objects. n.peers
	// hands out stable *Peer values into it.
	slab := make([]Peer, n.ch.N())
	for i := range n.peers {
		p := &slab[i]
		*p = Peer{
			id:    radio.NodeID(i),
			net:   n,
			store: cache.NewStore(),
			rng:   n.rng.Stream(fmt.Sprintf("peer/%d", i)),
		}
		if n.cfg.CacheBytes > 0 {
			c, err := cache.New(n.cfg.CacheBytes, n.cfg.Policy)
			if err != nil {
				return nil, err
			}
			p.cache = c
		}
		r, ok := n.table.Locate(n.ch.Position(p.id))
		if !ok {
			return nil, fmt.Errorf("node: peer %d has no region", i)
		}
		p.regionID = r.ID
		n.peers[i] = p
		n.live[i] = true
	}
	n.ch.SetLiveness(n.live)
	n.ch.SetHandler(n.handleFrame)
	n.pool.poison = os.Getenv("PRECINCT_DEBUG") == "poison"
	// Lost frames must settle payload ownership.
	n.ch.SetDropHandler(n.handleDrop)
	n.router.EnablePlanarCache(n.ch.N())
	n.placeKeys()
	return n, nil
}

// newMsg takes a message box from the pool and fills it with proto,
// returning it with a single ownership reference. proto never escapes:
// the construction sites build it on the stack, so the steady-state cost
// is one struct copy, zero allocations.
func (n *Network) newMsg(proto message) *message {
	m := n.pool.acquire()
	proto.refs = 1
	proto.released = false
	*m = proto
	return m
}

// releaseMsg drops one ownership reference to m, returning the box to
// the pool when the last reference is gone.
func (n *Network) releaseMsg(m *message) { n.pool.unref(m) }

// MsgPoolLive returns the number of pooled messages currently owned by
// the run. At a quiescent boundary it must equal the
// number of stashed pendingReply messages — the lifecycle tests and the
// poison mode hold the protocol to that. Boxes migrate between shard
// replicas with their frames, so in a sharded run only the sum over all
// replicas is meaningful.
func (n *Network) MsgPoolLive() uint64 {
	if n.clones == nil {
		return n.pool.live()
	}
	var live uint64
	for _, c := range n.clones {
		live += c.pool.acquired - c.pool.released
	}
	return live
}

// handleDrop settles ownership of a transmitted frame that will never
// reach handleFrame: unicast send-time loss, dead receiver, collision.
func (n *Network) handleDrop(to radio.NodeID, f radio.Frame) {
	if m, ok := f.Payload.(*message); ok {
		n.releaseMsg(m)
	}
}

// placeKeys stores each key at a peer inside its home region (the peer
// nearest the region center), plus one inside each of its replica
// regions when replication is enabled. Keys start at version 1. With a
// single replica region (the paper's scheme) the custodian is the peer
// nearest the region center; with Replicas > 1 replica custodians are
// chosen load-aware — the least-loaded live peer of each replica region
// (DESIGN.md section 16).
func (n *Network) placeKeys() {
	custodian := n.peerLeastLoaded
	if n.cfg.Replicas == 1 {
		custodian = n.peerNearestCenter
	}
	for _, k := range n.catalog.Keys() {
		n.truth[k] = 1
		size := n.catalog.Size(k)
		home, ok := n.table.HomeRegion(k)
		if !ok {
			n.stats.HomelessKeys++
			continue
		}
		item := cache.StoredItem{
			Key: k, Size: size, Version: 1,
			UpdatedAt: 0, TTR: n.cfg.Consistency.InitialTTR,
		}
		if holder := n.peerNearestCenter(home.ID); holder != nil {
			holder.store.Put(item)
		} else {
			n.stats.HomelessKeys++
		}
		for r := 1; r <= n.cfg.Replicas; r++ {
			rep, ok := n.table.ReplicaRegionAt(k, r)
			if !ok {
				break // fewer regions than requested ranks
			}
			if holder := custodian(rep.ID); holder != nil {
				replica := item
				replica.ReplicaRank = r
				holder.store.Put(replica)
			}
		}
	}
}

// Replicas returns the number of replica regions per key (0 when
// replication is off).
func (n *Network) Replicas() int { return n.cfg.Replicas }

// peerNearestCenter returns the live peer inside the region closest to
// its center, or nil when the region is empty.
func (n *Network) peerNearestCenter(id region.ID) *Peer {
	return n.peerNearestCenterExcluding(id, nil)
}

// forLivePeersIn calls fn, in ascending node order, for every live peer
// currently inside region r, with the peer's position. It is a rectangle
// query on the radio's spatial index when the channel can answer one;
// under beaconing the region is found by testing every peer. fn must not
// start another custodian query.
func (n *Network) forLivePeersIn(r region.Region, fn func(p *Peer, pos geo.Point)) {
	if ids, ok := n.ch.AppendInRect(n.inRegion[:0], r.Bounds); ok {
		n.inRegion = ids
		for _, id := range ids {
			if p := n.peers[id]; p.Alive() {
				fn(p, n.ch.Position(id))
			}
		}
		return
	}
	for _, p := range n.peers {
		if !p.Alive() {
			continue
		}
		if pos := n.ch.Position(p.id); r.Bounds.Contains(pos) {
			fn(p, pos)
		}
	}
}

// peerNearestCenterExcluding is peerNearestCenter skipping one peer.
func (n *Network) peerNearestCenterExcluding(id region.ID, exclude *Peer) *Peer {
	r, ok := n.table.Region(id)
	if !ok {
		return nil
	}
	var best *Peer
	bestD := 0.0
	n.forLivePeersIn(r, func(p *Peer, pos geo.Point) {
		if p == exclude {
			return
		}
		d := pos.Dist2(r.Center())
		if best == nil || d < bestD {
			best, bestD = p, d
		}
	})
	return best
}

// peerLeastLoaded returns the live peer inside the region holding the
// fewest stored keys (ties broken by distance to the region center, then
// node ID), or nil when the region is empty. Used for load-aware replica
// placement when Replicas > 1 (La et al.): spreading custody by load
// keeps any one peer from accumulating every replica of a hot region.
func (n *Network) peerLeastLoaded(id region.ID) *Peer {
	r, ok := n.table.Region(id)
	if !ok {
		return nil
	}
	var best *Peer
	bestLoad := 0
	bestD := 0.0
	n.forLivePeersIn(r, func(p *Peer, pos geo.Point) {
		load := p.store.Len()
		d := pos.Dist2(r.Center())
		if best == nil || load < bestLoad || (load == bestLoad && d < bestD) {
			best, bestLoad, bestD = p, load, d
		}
	})
	return best
}

// Peers returns the number of peers.
func (n *Network) Peers() int { return len(n.peers) }

// Peer exposes a peer for inspection (tests, examples).
func (n *Network) Peer(id radio.NodeID) *Peer { return n.peers[id] }

// Truth returns the authoritative version of a key.
func (n *Network) Truth(k workload.Key) uint64 { return n.truth[k] }

// Stats returns protocol-layer counters.
func (n *Network) Stats() Stats { return n.stats }

// RehomeCounts returns how many re-homing passes this replica's peers
// ran in full and how many they skipped because nothing a pass reads had
// changed since a clean one. Every rehomeKeys call is one or the other.
func (n *Network) RehomeCounts() (passes, skips uint64) {
	return n.rehomePasses, n.rehomeSkips
}

// PendingRequests returns the number of requests still awaiting an answer
// or a timeout. After the event queue drains it must be zero — every
// request resolves to a hit, a failure, or a timeout chain ending in one.
func (n *Network) PendingRequests() int {
	total := 0
	for _, p := range n.peers {
		total += len(p.pending)
	}
	return total
}

// Table returns the region table.
func (n *Network) Table() *region.Table { return n.table }

// Scheduler returns the simulation scheduler.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// emit sends a trace event when tracing is enabled.
func (n *Network) emit(e trace.Event) {
	if n.tracer != nil {
		e.Time = n.sched.Now()
		n.tracer.Emit(e)
	}
}

// recording reports whether metrics should be recorded at the current
// simulation time (post-warmup).
func (n *Network) recording() bool { return n.sched.Now() >= n.cfg.Warmup }

// account books one processed (received) copy of m in the collector. The
// paper's overhead metric is the number of messages the network handles —
// a broadcast costs one entry per node that processes it, a unicast one
// entry at its addressee — which is why floods dominate Figure 6.
func (n *Network) account(m *message) {
	if !n.recording() {
		return
	}
	switch m.Kind.class() {
	case classControl:
		n.coll.ControlMessages(1)
	case classMaintenance:
		n.coll.MaintenanceMessages(1)
	default:
		n.coll.SearchMessages(1)
	}
}

// broadcast sends m from the peer to all radio neighbors, consuming the
// caller's reference: the shared payload now carries one reference per
// scheduled receiver (each settled by handleFrame or the drop handler),
// and a transmission nobody will receive is released immediately. The
// caller must not touch m afterwards.
func (n *Network) broadcast(from radio.NodeID, m *message) {
	delivered := n.ch.Broadcast(from, m.wireSize(), m)
	if delivered == 0 {
		n.releaseMsg(m)
		return
	}
	m.refs = int32(delivered)
}

// unicast sends m to a specific neighbor; false when the link is gone.
// On true the single reference transfers to the channel (a send-time
// loss settles it through the drop handler before Unicast returns), so
// the caller must not touch m after a true return. On false the caller
// still owns m.
func (n *Network) unicast(from, to radio.NodeID, m *message) bool {
	return n.ch.Unicast(from, to, m.wireSize(), m)
}

// routingDest returns the geographic destination of a routed message.
func routingDest(m *message) geo.Point {
	switch m.Kind {
	case kindReply, kindPollReply:
		return m.OriginPos
	default:
		return m.TargetPos
	}
}

// forwardRouted advances a routed message one GPSR hop. It returns false
// when no progress is possible (the packet is dropped; end-to-end
// recovery is by requester timeout).
func (n *Network) forwardRouted(p *Peer, m *message) bool {
	if m.Hops >= maxRouteHops {
		// Perimeter walks in a mobile topology can wander when the
		// graph changes underneath them; the hop cap bounds the damage.
		n.stats.RoutingFailures++
		return false
	}
	nbrs := n.ch.Neighbors(p.id)
	n.router.SetPlanarKey(n.ch.PlanarKey())
	next, ok := n.router.NextHop(p.id, n.ch.Position(p.id), nbrs, routingDest(m), &m.Route)
	if !ok {
		n.stats.RoutingFailures++
		return false
	}
	if !n.unicast(p.id, next.ID, m) {
		n.stats.RoutingFailures++
		return false
	}
	return true
}

// routeOwned forwards an owned routed message one hop, releasing it when
// no hop exists — these kinds recover end-to-end (requester timeouts),
// so a routing failure just drops the packet.
func (n *Network) routeOwned(p *Peer, m *message) {
	if !n.forwardRouted(p, m) {
		n.releaseMsg(m)
	}
}

// forwardWithRetry routes an owned message one hop, retrying from the
// same node after a short pause when the topology offers no next hop.
// Update pushes and key handoffs have no end-to-end timeout to recover
// them, so losing one leaves a holder stale (or a key homeless); a few
// retries ride out transient voids caused by mobility.
//
// A failed forward never hands the message to the channel, so the retry
// retransmits the same box in place — Retries incremented, routing
// geometry reset — instead of deep-cloning an identical message.
func (n *Network) forwardWithRetry(p *Peer, m *message) {
	if m.Kind == kindHandoff && m.HasTargetNode && m.Retries > 0 {
		// On retries, re-aim at the best peer currently in the target
		// region: the original addressee may have moved or died since
		// the handoff was built, and any other peer of that region is
		// an equally good custodian. The forwarder itself is excluded —
		// during an evacuation it is about to leave.
		if target := n.peerNearestCenterExcluding(m.TargetRegion, p); target != nil {
			m.TargetNode = target.id
			m.TargetPos = n.ch.Position(target.id)
		}
	}
	if n.forwardRouted(p, m) {
		return
	}
	maxRetries := 3
	if m.Kind == kindHandoff {
		maxRetries = 5 // losing keys is worse than losing one update
	}
	if m.Retries >= maxRetries {
		switch m.Kind {
		case kindHandoff:
			// Undeliverable: the current carrier adopts the copies;
			// its next mobility check will retry the re-homing.
			n.stats.StrandedKeys += uint64(len(m.Items))
			p.adoptItems(m.Items)
		default:
			n.stats.LostUpdates++
		}
		n.releaseMsg(m)
		return
	}
	m.Retries++
	m.Route = routing.State{} // fresh geometry on the next attempt
	m.Hops = 0
	n.sched.After(0.5, func() {
		if p.Alive() {
			n.forwardWithRetry(p, m)
		} else {
			n.releaseMsg(m) // the forwarder died holding the message
		}
	})
}

// handleFrame dispatches a delivered frame to the peer protocol
// handlers. The handler it dispatches to takes ownership of m and must
// consume it exactly once (release, stash, or retransmit).
func (n *Network) handleFrame(to radio.NodeID, f radio.Frame) {
	m, ok := f.Payload.(*message)
	if !ok {
		panic(fmt.Sprintf("node: unexpected payload %T", f.Payload))
	}
	if !n.live[to] {
		// Unreachable through the radio (dead receivers resolve as
		// DeadDrops before the handler), but direct callers exist in
		// tests; settle ownership either way.
		n.releaseMsg(m)
		return
	}
	// Duplicate fast path: every dedup-first flood kind drops an
	// already-seen message as its very first action, with no other side
	// effect (markSeen mutates nothing on the duplicate path), so the
	// per-receiver copy — the dominant allocation of broadcast delivery
	// at large N — and the receiver's Peer are never touched. account
	// reads only the message kind, which the shared payload carries
	// unchanged.
	if id, dedup := dedupID(m); dedup && n.floods.heard(m, id, int32(to), n.sched.Now()) {
		n.account(m)
		n.releaseMsg(m)
		return
	}
	p := n.peers[to]
	if f.Broadcast {
		// Broadcast payloads are shared: exchange this receiver's
		// reference for a private header copy (Items, handoff-only and
		// never broadcast, would ride along copy-on-write). A unicast's
		// single reference came through the channel to this receiver and
		// is mutated in place.
		cp := n.pool.acquire()
		*cp = *m
		cp.refs = 1
		cp.released = false
		n.releaseMsg(m)
		m = cp
	}
	m.Hops++
	n.account(m)
	switch m.Kind {
	case kindSearchFlood:
		p.onSearchFlood(m)
	case kindRegionalSearch:
		p.onRegionalSearch(m)
	case kindRoutedSearch:
		p.onRoutedSearch(m)
	case kindHomeFlood:
		p.onHomeFlood(m)
	case kindReply:
		p.onReply(m)
	case kindInvalidate:
		p.onInvalidate(m)
	case kindUpdateRoute:
		p.onUpdateRoute(m)
	case kindUpdateFlood:
		p.onUpdateFlood(m)
	case kindPollRoute:
		p.onPollRoute(m)
	case kindPollFlood:
		p.onPollFlood(m)
	case kindPollReply:
		p.onPollReply(m)
	case kindHandoff:
		p.onHandoff(m)
	default:
		panic(fmt.Sprintf("node: unknown message kind %v", m.Kind))
	}
}

// Run starts the autonomous drivers (request/update processes and
// mobility checks) and executes the simulation until the given time. It
// returns the metrics report, with energy filled in when a meter was
// provided. Energy accounting is reset at the warmup boundary so that
// energy-per-request covers the same window as the request counters.
func (n *Network) Run(duration float64) metrics.Report {
	if !n.started {
		n.started = true
		n.StartDrivers()
		if n.meter != nil && n.cfg.Warmup > 0 && n.cfg.Warmup <= duration {
			n.armMeterReset(n.cfg.Warmup)
		}
	}
	n.sched.Run(duration)
	return n.Report()
}

// Report snapshots the metrics without advancing time.
func (n *Network) Report() metrics.Report {
	r := n.coll.Snapshot()
	if n.meter != nil {
		r = r.WithEnergy(n.meter.Total())
	}
	return r
}

// armMeterReset schedules the energy-meter reset at the warmup boundary.
// The reset is network-global work: a sharded run executes it at a
// barrier and zeroes every shard replica's meter.
func (n *Network) armMeterReset(at float64) {
	n.sched.AtAs(at, n.resetMeters, -1)
}

// resetMeters zeroes the energy meter — every shard replica's, in a
// sharded run, since charges accumulate on the shard that spends them.
func (n *Network) resetMeters() {
	if n.clones == nil {
		n.meter.Reset()
		return
	}
	for _, c := range n.clones {
		c.meter.Reset()
	}
}

// StartDrivers schedules each peer's request, update and mobility-check
// loops, in ascending peer order. The parallel runner calls it directly
// (single-threaded, before the first window) so the canonical keys of
// the initial events match the sequential run's exactly.
func (n *Network) StartDrivers() {
	for _, p := range n.peers {
		p.scheduleMobilityCheck()
		if n.src == nil {
			continue
		}
		p.scheduleNextRequest()
		if n.arr.UpdatesEnabled() {
			p.scheduleNextUpdate()
		}
	}
}

// chanLocator adapts the radio channel to the workload.Locator the
// geo-aware sources consult.
type chanLocator struct{ ch *radio.Channel }

// Locate returns the peer's current position in meters.
func (l chanLocator) Locate(peer int) (x, y float64) {
	p := l.ch.Position(radio.NodeID(peer))
	return p.X, p.Y
}

// replicas returns every shard's replica of the network: itself alone in
// a sequential run.
func (n *Network) replicas() []*Network {
	if n.clones == nil {
		return []*Network{n}
	}
	return n.clones
}

// setAlive is the single writer of peer liveness. It goes through every
// shard's channel: they all hold the network's table, so the byte is the
// same, but each bumps its own topology generation (dropping cached
// planarizations and its remembered neighbor query) — liveness is shared
// state, so all replicas observe the change.
func (n *Network) setAlive(p *Peer, alive bool) {
	for _, c := range n.replicas() {
		c.ch.SetNodeAlive(p.id, alive)
	}
}

// CheckLiveness verifies that every replica's channel sees each peer as
// the network does, i.e. that each was handed the network's table and
// none was given another since.
func (n *Network) CheckLiveness() error {
	for shard, c := range n.replicas() {
		for _, p := range n.peers {
			if c.ch.Alive(p.id) != p.Alive() {
				return fmt.Errorf("node: peer %d alive=%v but shard %d's channel says %v",
					p.id, p.Alive(), shard, c.ch.Alive(p.id))
			}
		}
	}
	return nil
}

// Crash kills a peer immediately: no handoff, so only its keys' replica
// regions can still serve them.
func (n *Network) Crash(id radio.NodeID) {
	n.setAlive(n.peers[id], false)
	n.emit(trace.Event{Kind: trace.NodeCrashed, Node: int(id)})
}

// Quit removes a peer gracefully: it hands its keys off to another peer
// in its region first (the paper's assumption ii).
func (n *Network) Quit(id radio.NodeID) {
	p := n.peers[id]
	if !p.Alive() {
		return
	}
	p.rehomeKeys(true)
	n.setAlive(p, false)
	n.emit(trace.Event{Kind: trace.NodeQuit, Node: int(id)})
}

// Revive brings a crashed peer back with empty stores.
func (n *Network) Revive(id radio.NodeID) {
	p := n.peers[id]
	if p.Alive() {
		return
	}
	n.setAlive(p, true)
	p.store = cache.NewStore()
	if p.cache != nil {
		if c, err := cache.New(n.cfg.CacheBytes, n.cfg.Policy); err == nil {
			p.cache = c
		}
	}
	if r, ok := n.table.Locate(n.ch.Position(id)); ok {
		p.regionID = r.ID
	}
	n.emit(trace.Event{Kind: trace.NodeRevived, Node: int(id)})
}
