// Package radio models the wireless channel: a unit-disk connectivity
// graph over the mobility model's positions, per-node transmit
// serialization (one frame in the air per sender at a time), airtime and
// MAC-overhead delays, optional frame loss, and energy accounting through
// the Feeney model in internal/energy.
//
// Neighbor queries — the hottest operation in the simulator — are served
// by a uniform-grid spatial index with an epoch-based position cache (see
// grid.go); order_test.go holds it to an O(N) scan. The last query's
// answer is remembered and served again to a repeat for the same
// node at the same instant (see Neighbors), and liveness is a dense
// table of one byte per node with a single writer (SetNodeAlive), shared
// between the channels of a sharded run (SetLiveness).
//
// The model is deliberately simpler than a packet-level 802.11 PHY — no
// carrier sense across nodes, no collisions — because the paper's metrics
// depend on hop counts, broadcast fan-out and per-message energy, all of
// which the unit-disk abstraction captures. The MAC overhead constant
// absorbs average channel-access cost; the energy model's per-class
// coefficients absorb RTS/CTS/ACK asymmetries.
package radio

import (
	"fmt"
	"math"
	"math/rand"

	"precinct/internal/energy"
	"precinct/internal/geo"
	"precinct/internal/mobility"
	"precinct/internal/sim"
)

// NodeID indexes a node. IDs are dense, 0..N-1.
type NodeID int

// Frame is one transmission. Payload is opaque to the channel.
type Frame struct {
	From      NodeID
	To        NodeID // meaningful only for unicast frames
	Broadcast bool
	Size      int // bytes on the air, including protocol headers
	Payload   any
}

// Handler receives frames delivered to a node. `at` is the delivery time.
type Handler func(to NodeID, f Frame)

// DropHandler observes frames that were transmitted but will never reach
// the Handler: unicast frames lost to injected loss at send time, and
// any reception dropped mid-flight (dead receiver, collision). The node
// layer uses it to release pooled message payloads exactly once per
// delivery. Broadcast send-time losses are NOT reported — Broadcast's
// return value already excludes them, so the caller never handed over
// ownership for those receivers.
type DropHandler func(to NodeID, f Frame)

// Config parameterizes the channel.
type Config struct {
	Range     float64 // transmission range in meters (paper: 250)
	Bandwidth float64 // bits per second (paper: 11 Mb/s)
	// MACOverhead is the fixed per-frame channel-access delay in
	// seconds, covering contention, backoff and MAC negotiation on
	// average.
	MACOverhead float64
	// Propagation is the one-hop propagation delay in seconds.
	Propagation float64
	// LossRate drops each delivery independently with this probability.
	LossRate float64
	// HeaderBytes is added to every frame's payload size on the air.
	HeaderBytes int
	// BeaconInterval, when positive, makes neighbor tables stale: a
	// node's position is observed by others only every BeaconInterval
	// seconds (as GPSR's periodic beacons would), while actual frame
	// delivery still uses true positions. Zero gives perfect location
	// knowledge.
	BeaconInterval float64
	// Collisions enables receiver-side collision losses: a frame whose
	// reception overlaps another frame's reception at the same node is
	// dropped. This is the cheapest interference model that makes
	// broadcast storms self-damaging the way a shared 802.11 channel
	// does.
	Collisions bool
}

// DefaultConfig mirrors the paper's radio parameters.
func DefaultConfig() Config {
	return Config{
		Range:       250,
		Bandwidth:   11e6,
		MACOverhead: 0.5e-3,
		Propagation: 1e-6,
		LossRate:    0,
		HeaderBytes: 64,
	}
}

// Validate checks configuration sanity.
func (c Config) Validate() error {
	if c.Range <= 0 {
		return fmt.Errorf("radio: range must be positive, got %v", c.Range)
	}
	if c.Bandwidth <= 0 {
		return fmt.Errorf("radio: bandwidth must be positive, got %v", c.Bandwidth)
	}
	if c.MACOverhead < 0 || c.Propagation < 0 {
		return fmt.Errorf("radio: negative delay constants")
	}
	if c.LossRate < 0 || c.LossRate >= 1 {
		return fmt.Errorf("radio: loss rate must be in [0, 1), got %v", c.LossRate)
	}
	if c.HeaderBytes < 0 {
		return fmt.Errorf("radio: negative header size")
	}
	if c.BeaconInterval < 0 {
		return fmt.Errorf("radio: negative beacon interval")
	}
	return nil
}

// Stats counts channel activity.
type Stats struct {
	BroadcastFrames uint64
	UnicastFrames   uint64
	Deliveries      uint64
	Drops           uint64 // lost to injected loss
	Collisions      uint64 // lost to overlapping receptions
	Undeliverable   uint64 // unicast to a node out of range
	BytesOnAir      uint64
	Handled         uint64 // receptions that reached the frame handler
	DeadDrops       uint64 // receptions whose receiver died mid-flight
}

// Add returns the field-wise sum of two counter snapshots. Sharded runs
// use it to merge per-shard channels: send-side counters accumulate on
// the sender's shard and fire-side counters on the receiver's, so the
// sum equals the sequential run's single channel exactly.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		BroadcastFrames: s.BroadcastFrames + o.BroadcastFrames,
		UnicastFrames:   s.UnicastFrames + o.UnicastFrames,
		Deliveries:      s.Deliveries + o.Deliveries,
		Drops:           s.Drops + o.Drops,
		Collisions:      s.Collisions + o.Collisions,
		Undeliverable:   s.Undeliverable + o.Undeliverable,
		BytesOnAir:      s.BytesOnAir + o.BytesOnAir,
		Handled:         s.Handled + o.Handled,
		DeadDrops:       s.DeadDrops + o.DeadDrops,
	}
}

// Channel is the shared medium. One Channel serves one simulation run and
// is not safe for concurrent use.
type Channel struct {
	cfg     Config
	sched   *sim.Scheduler
	mob     mobility.Model
	meter   *energy.Meter
	handler Handler
	onDrop  DropHandler
	// live is the dense liveness table, one byte per node: dead nodes
	// neither transmit nor receive (nor pay energy). The channel starts
	// with its own all-alive table; a node layer shares one table among
	// its shard replicas' channels through SetLiveness. Written only by
	// SetNodeAlive.
	live []bool
	// loss holds one RNG stream per sender, so loss draws depend only on
	// the sender's own transmission history — a sharded run, where each
	// sender transmits from its own shard, consumes the streams exactly
	// as the sequential run does.
	loss []*rand.Rand

	// Sharded-run bridge: when shardOf is set, a delivery whose receiver
	// lives on another shard is not scheduled locally but parked in
	// outbox, carrying a canonical key reserved on this (the sender's)
	// scheduler; the parallel runner moves it to the receiver shard's
	// channel via Inject at the next barrier. clonePayload deep-copies a
	// broadcast payload per remote receiver, because the reference-count
	// sharing the node layer uses for local receivers cannot cross
	// shards.
	shardOf      []int32
	selfShard    int32
	outbox       []RemoteDelivery
	clonePayload func(any) any

	txBusyUntil []float64
	rxBusyUntil []float64
	beaconPos   []geo.Point
	beaconAt    []float64
	stats       Stats
	inFlight    uint64 // receptions scheduled but not yet resolved

	// Position epoch cache: posCache[i] is valid iff posEpoch[i] equals
	// the low half of epoch, and epoch is bumped lazily (advanceEpoch)
	// whenever the clock moves past epochAt. See grid.go.
	posCache []geo.Point
	posEpoch []uint32
	epoch    uint64
	epochAt  float64

	// grid is the spatial neighbor index.
	grid *grid
	// nbrBuf is the reusable neighbor buffer returned by Neighbors, so
	// steady-state queries allocate nothing. The returned slice is only
	// valid until the next Neighbors/Broadcast/Unicast call.
	nbrBuf []Neighbor
	// matchBuf collects a grid query's matches (node indices) before they
	// are ordered and emitted; dealBuf is sortMatches' scratch. Both are
	// reused, and sized by the largest match set seen, not by N.
	matchBuf, dealBuf []int32
	// nbrMemo names the query nbrBuf currently answers. A routed hop asks
	// for the sender's neighbors twice at one instant (the routing
	// decision, then Unicast's overhearing charge); the repeat is served
	// from the buffer. See Neighbors for the validity rule.
	nbrMemo struct {
		id    NodeID
		key   PlanarKey
		valid bool
	}

	// topoGen counts liveness changes (crash/quit/revive). Together with
	// the position epoch it forms PlanarKey: as long as neither moves,
	// any node's neighbor set — and therefore its Gabriel planarization —
	// is provably unchanged, so GPSR may reuse a cached planar set.
	topoGen uint64

	// freeDeliveries recycles the delivery boxes that carry a unicast or
	// cross-shard frame to its fire time, freeReceptions the reception
	// objects that carry a broadcast to its same-shard receivers; combined
	// with the scheduler's event freelist this makes steady-state frame
	// delivery allocation-free.
	freeDeliveries []*delivery
	freeReceptions []*reception
}

// New creates a channel over the mobility model. The meter may be nil to
// disable energy accounting. loss holds one RNG stream per sender (see
// Channel.loss); it is only consulted when LossRate > 0, but when it is,
// every sender needs a stream.
func New(cfg Config, sched *sim.Scheduler, mob mobility.Model, meter *energy.Meter, loss []*rand.Rand) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sched == nil || mob == nil {
		return nil, fmt.Errorf("radio: scheduler and mobility model are required")
	}
	if cfg.LossRate > 0 {
		if len(loss) != mob.Len() {
			return nil, fmt.Errorf("radio: loss injection requires one RNG stream per sender, got %d for %d nodes",
				len(loss), mob.Len())
		}
		for i, r := range loss {
			if r == nil {
				return nil, fmt.Errorf("radio: nil loss stream for sender %d", i)
			}
		}
	}
	ch := &Channel{
		cfg:         cfg,
		sched:       sched,
		mob:         mob,
		meter:       meter,
		loss:        loss,
		live:        allAlive(mob.Len()),
		txBusyUntil: make([]float64, mob.Len()),
		posCache:    make([]geo.Point, mob.Len()),
		posEpoch:    make([]uint32, mob.Len()),
		epoch:       1,  // posEpoch is zeroed, so every entry starts invalid
		epochAt:     -1, // simulation time is >= 0: first query misses
	}
	if cfg.BeaconInterval > 0 {
		ch.beaconPos = make([]geo.Point, mob.Len())
		ch.beaconAt = make([]float64, mob.Len())
		for i := range ch.beaconAt {
			ch.beaconAt[i] = -1
		}
	}
	if cfg.Collisions {
		ch.rxBusyUntil = make([]float64, mob.Len())
	}
	maxSpeed := math.Inf(1)
	if sb, ok := mob.(mobility.SpeedBounded); ok {
		maxSpeed = sb.MaxSpeed()
	}
	ch.grid = newGrid(mob.Len(), cfg.Range, maxSpeed, cfg.BeaconInterval > 0)
	return ch, nil
}

func allAlive(n int) []bool {
	live := make([]bool, n)
	for i := range live {
		live[i] = true
	}
	return live
}

// collided applies the receiver-side collision model at delivery time.
// Delivery events fire when a reception *completes*, so the frame
// occupied the receiver over [now-airtime, now]; it is lost when that
// window overlaps an earlier reception. The medium stays garbled for the
// union of the windows either way.
func (ch *Channel) collided(to NodeID, airtime float64) bool {
	if ch.rxBusyUntil == nil {
		return false
	}
	const eps = 1e-9
	now := ch.sched.Now()
	start := now - airtime
	busy := start < ch.rxBusyUntil[to]-eps
	if now > ch.rxBusyUntil[to] {
		ch.rxBusyUntil[to] = now
	}
	if busy {
		ch.stats.Collisions++
	}
	return busy
}

// SetHandler installs the frame delivery upcall. It must be set before any
// transmission.
func (ch *Channel) SetHandler(h Handler) { ch.handler = h }

// SetDropHandler installs the lost-frame observer (may be nil).
func (ch *Channel) SetDropHandler(h DropHandler) { ch.onDrop = h }

// SetLiveness replaces the channel's liveness table with one the caller
// owns, so that several channels (a sharded run's replicas) read the same
// bytes. The table must hold one entry per node and must only ever be
// written through SetNodeAlive — on every channel that shares it, since
// each keeps its own topology generation.
func (ch *Channel) SetLiveness(table []bool) {
	if len(table) != ch.mob.Len() {
		panic(fmt.Sprintf("radio: liveness table has %d entries, channel has %d nodes", len(table), ch.mob.Len()))
	}
	ch.live = table
	ch.topoGen++
}

// SetNodeAlive is the single writer of node liveness (crash, quit,
// revive). It bumps the topology generation, which invalidates every
// cached planarization and the remembered neighbor query even when the
// clock — and so the position epoch — has not moved.
func (ch *Channel) SetNodeAlive(id NodeID, alive bool) {
	ch.live[id] = alive
	ch.topoGen++
}

// Alive reports whether the channel considers the node live.
func (ch *Channel) Alive(id NodeID) bool { return ch.live[id] }

// PlanarKey identifies an instant of the connectivity graph: the
// position epoch (bumped when the clock moves) plus the topology
// generation (bumped on liveness changes). Two queries under the same
// key see identical neighbor sets, so planarizations may be reused.
type PlanarKey struct {
	Epoch uint64
	Topo  uint64
}

// PlanarKey returns the current planarization-validity key.
func (ch *Channel) PlanarKey() PlanarKey {
	ch.syncEpoch()
	return PlanarKey{Epoch: ch.epoch, Topo: ch.topoGen}
}

// delivery carries one scheduled reception — a unicast frame's, or one
// that crossed shards — from send to fire time. The box is recycled
// through the channel's freelist before the handler runs, so a handler
// that transmits reuses the box it arrived in.
type delivery struct {
	ch  *Channel
	to  NodeID
	f   Frame
	air float64
}

// fireDelivery is the InjectAtCtx trampoline for scheduled receptions: a plain
// function pointer, so scheduling a delivery allocates no closure.
func fireDelivery(x any) { x.(*delivery).fire() }

func (ch *Channel) takeDelivery() *delivery {
	if n := len(ch.freeDeliveries); n > 0 {
		d := ch.freeDeliveries[n-1]
		ch.freeDeliveries[n-1] = nil
		ch.freeDeliveries = ch.freeDeliveries[:n-1]
		return d
	}
	return &delivery{ch: ch}
}

func (ch *Channel) recycleDelivery(d *delivery) {
	d.f = Frame{} // never pin a payload from the freelist
	ch.freeDeliveries = append(ch.freeDeliveries, d)
}

// reception carries one broadcast to all of its same-shard receivers:
// the frame once, and a fan (sim.Fan) with one member per receiver whose
// execution context is the receiver's NodeID, so the receiver list is
// the member list. It is recycled when its last member fires, before
// that member's handler runs.
type reception struct {
	fan sim.Fan // Ctx is the reception itself
	ch  *Channel
	f   Frame
	air float64
}

// fireReception is the AtFan trampoline, called once per receiver.
func fireReception(x any) {
	r := x.(*reception)
	ch, to, f, air := r.ch, NodeID(r.fan.Fired().ExecAs), r.f, r.air
	if r.fan.Done() {
		ch.recycleReception(r)
	}
	ch.resolve(to, f, air)
}

func (ch *Channel) takeReception() *reception {
	if n := len(ch.freeReceptions); n > 0 {
		r := ch.freeReceptions[n-1]
		ch.freeReceptions[n-1] = nil
		ch.freeReceptions = ch.freeReceptions[:n-1]
		r.fan.Reset()
		return r
	}
	r := &reception{ch: ch}
	r.fan.Ctx = r
	return r
}

func (ch *Channel) recycleReception(r *reception) {
	r.f = Frame{} // never pin a payload from the freelist
	ch.freeReceptions = append(ch.freeReceptions, r)
}

// remote reports whether a reception for `to` belongs to another shard's
// channel.
func (ch *Channel) remote(to NodeID) bool {
	return ch.shardOf != nil && ch.shardOf[to] != ch.selfShard
}

// park books a reception for a receiver on another shard: into the
// outbox, under a canonical key reserved here — broadcasts with a
// deep-copied payload, since the local receivers share the original by
// reference count.
func (ch *Channel) park(delay float64, to NodeID, f Frame, air float64) {
	if f.Broadcast && ch.clonePayload != nil {
		f.Payload = ch.clonePayload(f.Payload)
	}
	creator, cseq := ch.sched.ReserveKey()
	ch.outbox = append(ch.outbox, RemoteDelivery{
		At: ch.sched.Now() + delay, To: to, F: f, Air: air,
		Creator: creator, Cseq: cseq,
	})
}

// scheduleDelivery books a unicast frame's reception for `to` after
// `delay`. The delivery event executes under the receiver's context, so
// a sharded run can route it to the receiver's shard.
func (ch *Channel) scheduleDelivery(delay float64, to NodeID, f Frame, air float64) {
	if ch.remote(to) {
		ch.park(delay, to, f, air)
		return
	}
	ch.inFlight++
	d := ch.takeDelivery()
	d.to, d.f, d.air = to, f, air
	ch.sched.AfterCtxAs(delay, fireDelivery, d, int(to))
}

// RemoteDelivery is a reception crossing shards: everything the
// receiver's channel needs to schedule it, plus the canonical event key
// reserved on the sender's scheduler — so the delivery event sorts
// exactly where the sequential run would have placed it.
type RemoteDelivery struct {
	At      float64
	To      NodeID
	F       Frame
	Air     float64
	Creator int32
	Cseq    uint64
}

// EnableSharding puts the channel in sharded mode: deliveries to nodes
// whose shardOf entry differs from self are parked in the outbox
// instead of scheduled. clonePayload (may be nil) deep-copies broadcast
// payloads that cross shards.
func (ch *Channel) EnableSharding(shardOf []int32, self int32, clonePayload func(any) any) {
	ch.shardOf = shardOf
	ch.selfShard = self
	ch.clonePayload = clonePayload
}

// OutboxLen reports how many cross-shard deliveries are parked. Shard
// workers read it at the end of a window to tell the coordinator
// whether a flush round is needed before the next window.
func (ch *Channel) OutboxLen() int { return len(ch.outbox) }

// Outbox exposes the parked cross-shard deliveries for a flush. The
// view is valid until the next transmission on this channel; the
// caller consumes it and then calls ResetOutbox. Only the parallel
// runner touches it, at barriers.
func (ch *Channel) Outbox() []RemoteDelivery { return ch.outbox }

// ResetOutbox empties the outbox while retaining the backing array, so
// steady-state window exchange parks entries into already-owned
// storage instead of growing a fresh slice every flush. Entries are
// zeroed first: a retained array must never pin a delivered payload.
func (ch *Channel) ResetOutbox() {
	for i := range ch.outbox {
		ch.outbox[i] = RemoteDelivery{}
	}
	ch.outbox = ch.outbox[:0]
}

// Inject schedules a reception that was sent from another shard. The
// barrier protocol guarantees rd.At is not in this shard's past.
func (ch *Channel) Inject(rd RemoteDelivery) {
	ch.inFlight++
	d := ch.takeDelivery()
	d.to, d.f, d.air = rd.To, rd.F, rd.Air
	ch.sched.InjectAtCtx(rd.At, fireDelivery, d, int(rd.To), rd.Creator, rd.Cseq)
}

// Lookahead returns the conservative horizon width for sharded runs:
// no transmission can affect another node sooner than the minimum
// frame service time (zero-payload airtime plus propagation). The
// safety margin absorbs floating-point rounding in `now + delay`
// arrival arithmetic, keeping every cross-shard arrival provably at or
// beyond the horizon.
func (c Config) Lookahead() float64 {
	minAir := c.MACOverhead + float64(c.HeaderBytes)*8/c.Bandwidth
	return minAir + c.Propagation - 1e-9
}

// fire recycles the box, then resolves the reception it carried.
func (d *delivery) fire() {
	ch, to, f, air := d.ch, d.to, d.f, d.air
	ch.recycleDelivery(d)
	ch.resolve(to, f, air)
}

// resolve settles a reception at its delivery time, preserving the exact
// order of the pre-pooling closure: alive check first (collided is not
// consulted for dead receivers — their radio is off, not garbled), then
// the collision model, then the handler. Dropped frames are reported to
// the drop handler so payload ownership is settled exactly once.
func (ch *Channel) resolve(to NodeID, f Frame, air float64) {
	ch.inFlight--
	if !ch.live[to] {
		ch.stats.DeadDrops++
		if ch.onDrop != nil {
			ch.onDrop(to, f)
		}
		return
	}
	if ch.collided(to, air) {
		if ch.onDrop != nil {
			ch.onDrop(to, f)
		}
		return
	}
	ch.stats.Handled++
	ch.handler(to, f)
}

// Config returns the channel parameters.
func (ch *Channel) Config() Config { return ch.cfg }

// Stats returns a snapshot of the channel counters.
func (ch *Channel) Stats() Stats { return ch.stats }

// InFlight returns the number of receptions scheduled but not yet
// resolved. At any instant the channel satisfies the conservation law
// Deliveries == Handled + Collisions + DeadDrops + InFlight; the
// invariant checker asserts it every sweep.
func (ch *Channel) InFlight() uint64 { return ch.inFlight }

// N returns the number of nodes.
func (ch *Channel) N() int { return ch.mob.Len() }

// Position returns a node's current location (epoch-cached: the mobility
// model is consulted at most once per node per event time).
func (ch *Channel) Position(id NodeID) geo.Point {
	return ch.position(int(id))
}

// ObservedPosition returns a node's position as its neighbors currently
// know it: the true position under perfect knowledge, or the position at
// the node's most recent beacon when beaconing is on.
func (ch *Channel) ObservedPosition(id NodeID) geo.Point {
	if ch.beaconAt == nil {
		return ch.position(int(id))
	}
	now := ch.sched.Now()
	if ch.beaconAt[id] < 0 || now-ch.beaconAt[id] >= ch.cfg.BeaconInterval {
		ch.refreshBeacon(int(id), now)
	}
	return ch.beaconPos[id]
}

// refreshBeacon records node i's current position as its newest beacon
// and tells the spatial index (which holds observed positions in beacon
// mode) when the node crossed a cell boundary.
func (ch *Channel) refreshBeacon(i int, now float64) {
	p := ch.position(i)
	// The grid addresses cells implicitly: the node's old cell is
	// recomputed from the beacon position being replaced, so the old
	// value must be read before the overwrite below.
	ch.grid.noteMove(ch.beaconPos[i], p)
	ch.beaconPos[i] = p
	ch.beaconAt[i] = now
	ch.nbrMemo.valid = false
}

// refreshStaleBeacons refreshes the beacon of every live node whose last
// beacon is at least one interval old. GPSR beacons are time-driven, so
// this runs at the start of every neighbor query regardless of which
// nodes the query will touch.
func (ch *Channel) refreshStaleBeacons() {
	if ch.beaconAt == nil {
		return
	}
	now := ch.sched.Now()
	for i := range ch.beaconAt {
		if !ch.live[i] {
			continue
		}
		if ch.beaconAt[i] < 0 || now-ch.beaconAt[i] >= ch.cfg.BeaconInterval {
			ch.refreshBeacon(i, now)
		}
	}
}

// Neighbor describes one node within radio range.
type Neighbor struct {
	ID  NodeID
	Pos geo.Point
}

// Neighbors returns all live nodes within range of id (excluding id),
// sorted by NodeID, with the positions id knows for them — the GPSR
// "location table" a real implementation maintains via beacons. With a
// beacon interval configured, both membership and positions reflect the
// last beacon, so routing decisions work on stale data while physical
// delivery does not.
//
// The returned slice is a reusable buffer owned by the Channel: it is
// valid only until the next Neighbors, Broadcast, Unicast or
// ConnectedComponent call, and must not be written to. Copy it to retain
// it.
//
// Asking again for the same node at the same instant returns the same
// slice without recomputing it. "Same instant" is the PlanarKey — the
// position epoch, which moves with the clock, and the topology
// generation, which moves on every liveness change — and a
// beacon refresh in between drops the remembered answer too, so the
// repeat is exactly what a fresh query would have produced.
func (ch *Channel) Neighbors(id NodeID) []Neighbor {
	key := ch.PlanarKey()
	if m := &ch.nbrMemo; m.valid && m.id == id && m.key == key {
		return ch.nbrBuf
	}
	ch.refreshStaleBeacons()
	self := ch.position(int(id))
	ch.ensureGrid()
	buf := ch.appendGridNeighbors(ch.nbrBuf[:0], id, self)
	ch.nbrBuf = buf
	ch.nbrMemo.id, ch.nbrMemo.key, ch.nbrMemo.valid = id, key, true
	return buf
}

// InRange reports whether b is currently within a's radio range.
func (ch *Channel) InRange(a, b NodeID) bool {
	pa := ch.position(int(a))
	pb := ch.position(int(b))
	return pa.Dist2(pb) <= ch.cfg.Range*ch.cfg.Range
}

// airtime returns the transmission duration for a frame of the given
// payload size in bytes.
func (ch *Channel) airtime(size int) float64 {
	bits := float64(size+ch.cfg.HeaderBytes) * 8
	return ch.cfg.MACOverhead + bits/ch.cfg.Bandwidth
}

// txDelay serializes transmissions per sender: a frame enters the air once
// the sender's previous frame has left it. It returns the delay from now
// until the frame has fully left the sender.
func (ch *Channel) txDelay(from NodeID, size int) float64 {
	now := ch.sched.Now()
	start := now
	if ch.txBusyUntil[from] > start {
		start = ch.txBusyUntil[from]
	}
	end := start + ch.airtime(size)
	ch.txBusyUntil[from] = end
	return end - now
}

func (ch *Channel) lost(from NodeID) bool {
	return ch.cfg.LossRate > 0 && ch.loss[from].Float64() < ch.cfg.LossRate
}

// Broadcast transmits a frame to every live node within range of the
// sender. The sender is charged broadcast-send energy; every receiver is
// charged broadcast-receive. Returns the number of nodes the frame was
// delivered to.
func (ch *Channel) Broadcast(from NodeID, size int, payload any) int {
	if ch.handler == nil {
		panic("radio: Broadcast before SetHandler")
	}
	if !ch.live[from] {
		return 0
	}
	onAir := size + ch.cfg.HeaderBytes
	ch.stats.BroadcastFrames++
	ch.stats.BytesOnAir += uint64(onAir)
	if ch.meter != nil {
		ch.meter.Charge(int(from), energy.BroadcastSend, onAir)
	}
	delay := ch.txDelay(from, size) + ch.cfg.Propagation
	air := ch.airtime(size)
	f := Frame{From: from, Broadcast: true, Size: onAir, Payload: payload}
	// Every receiver hears the frame at the same instant and draws its
	// canonical key here, in neighbor order, whichever shard it lives on.
	// The same-shard receivers become the members of one fan — one
	// scheduler entry for the whole broadcast; the others are parked.
	var r *reception
	creator := int32(ch.sched.Cur()) // the context every key below is drawn under
	for _, nb := range ch.Neighbors(from) {
		if ch.meter != nil {
			ch.meter.Charge(int(nb.ID), energy.BroadcastRecv, onAir)
		}
		if ch.lost(from) {
			ch.stats.Drops++
			continue
		}
		ch.stats.Deliveries++
		if ch.remote(nb.ID) {
			ch.park(delay, nb.ID, f, air)
			continue
		}
		if r == nil {
			r = ch.takeReception()
		}
		_, cseq := ch.sched.ReserveKey()
		r.fan.Add(cseq, int(nb.ID))
	}
	if r == nil {
		return 0
	}
	// In sharded mode only same-shard receivers count toward the return
	// value: they share the payload by reference, while remote receivers
	// got an owned deep copy via the outbox.
	delivered := r.fan.Len()
	r.f, r.air = f, air
	ch.inFlight += uint64(delivered)
	ch.sched.AtFan(ch.sched.Now()+delay, creator, fireReception, &r.fan)
	return delivered
}

// Unicast transmits a frame to a specific neighbor. It returns false
// without transmitting when the destination is out of range or dead — the
// caller (routing layer) must then pick another hop. Overhearing nodes in
// the sender's range pay the discard cost.
func (ch *Channel) Unicast(from, to NodeID, size int, payload any) bool {
	if ch.handler == nil {
		panic("radio: Unicast before SetHandler")
	}
	if !ch.live[from] {
		return false
	}
	if !ch.live[to] || !ch.InRange(from, to) {
		ch.stats.Undeliverable++
		return false
	}
	onAir := size + ch.cfg.HeaderBytes
	ch.stats.UnicastFrames++
	ch.stats.BytesOnAir += uint64(onAir)
	if ch.meter != nil {
		ch.meter.Charge(int(from), energy.P2PSend, onAir)
		for _, nb := range ch.Neighbors(from) {
			if nb.ID == to {
				ch.meter.Charge(int(nb.ID), energy.P2PRecv, onAir)
			} else {
				ch.meter.Charge(int(nb.ID), energy.Discard, onAir)
			}
		}
	}
	if ch.lost(from) {
		ch.stats.Drops++
		// The frame was sent; it just never arrived. Ownership of the
		// payload transferred to the channel on send, so settle it now.
		if ch.onDrop != nil {
			ch.onDrop(to, Frame{From: from, To: to, Size: onAir, Payload: payload})
		}
		return true
	}
	delay := ch.txDelay(from, size) + ch.cfg.Propagation
	f := Frame{From: from, To: to, Size: onAir, Payload: payload}
	ch.stats.Deliveries++
	ch.scheduleDelivery(delay, to, f, ch.airtime(size))
	return true
}

// ConnectedComponent returns the set of node IDs reachable from start in
// the current unit-disk graph, including start itself. Used by tests and
// by scenario builders that need connected topologies.
func (ch *Channel) ConnectedComponent(start NodeID) map[NodeID]bool {
	seen := map[NodeID]bool{start: true}
	queue := []NodeID{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range ch.Neighbors(cur) {
			if !seen[nb.ID] {
				seen[nb.ID] = true
				queue = append(queue, nb.ID)
			}
		}
	}
	return seen
}
