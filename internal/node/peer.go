package node

import (
	"math/rand"
	"slices"

	"precinct/internal/cache"
	"precinct/internal/radio"
	"precinct/internal/region"
	"precinct/internal/trace"
	"precinct/internal/workload"
)

// Peer is one mobile node's protocol state.
type Peer struct {
	id  radio.NodeID
	net *Network

	// cache is the dynamic cache space (nil when disabled).
	cache *cache.Cache
	// store is the static space: authoritative copies of keys whose home
	// (or replica) region this peer serves.
	store *cache.Store

	// regionID is the peer's region as of its last mobility check.
	regionID region.ID

	rng *rand.Rand

	// Outstanding requests by ID. Requester state lives with the
	// requester (not the network) so a sharded run touches it only on
	// the peer's own shard. A peer has a handful at most: linear search,
	// swap delete (see layout.go).
	pending []*pendingReq
	// nextID feeds newID; per-peer so ID assignment is independent of
	// cross-peer event interleaving.
	nextID uint64

	// settled records the state in which a re-homing pass last found
	// every stored copy where it belongs (see rehomeKeys).
	settled rehomeMark
}

// rehomeMark covers everything a non-evacuating re-homing pass reads
// about its own peer. The pass walks the store's keys and, for each copy,
// compares the peer's region with the copy's proper region, which is a
// function of the copy's key and its replica rank (the table never
// changes). So the mark is the store's identity (Revive swaps in a fresh
// one), its custody generation (which (key, rank) pairs it holds) and the
// peer's region. A copy's Version, TTR, UpdatedAt and Size are not in
// it: the pass only copies them into a handoff, and a pass that builds a
// handoff is not clean. Whether another region has a
// custodian to offer is the one input that belongs to other peers; a pass
// that found none leaves the zero mark, which matches nothing.
type rehomeMark struct {
	store    *cache.Store // nil: no clean pass yet, or a copy is waiting for a custodian
	gen      uint64
	regionID region.ID
}

func (p *Peer) rehomeMarkNow() rehomeMark {
	return rehomeMark{store: p.store, gen: p.store.CustodyGen(), regionID: p.regionID}
}

// newID hands out a fresh message/flood/request identifier, unique
// network-wide: the peer index tags the top bits, a per-peer counter the
// low 40. Each peer draws only from its own sequence, so a sharded run
// hands out exactly the IDs the sequential run does.
func (p *Peer) newID() uint64 {
	p.nextID++
	return uint64(p.id+1)<<40 | p.nextID
}

// reqOrigin decodes the issuing peer from a request ID.
func reqOrigin(id uint64) int { return int(id>>40) - 1 }

// seenRetention is how long flood IDs are remembered, in seconds. Flood
// waves (TTL-bounded broadcasts plus retries) die out well within this.
const seenRetention = 120

// ID returns the peer's node ID.
func (p *Peer) ID() radio.NodeID { return p.id }

// Alive reports liveness.
func (p *Peer) Alive() bool { return p.net.live[p.id] }

// RegionID returns the peer's region as of its last mobility check.
func (p *Peer) RegionID() region.ID { return p.regionID }

// Cache exposes the dynamic cache (nil when disabled).
func (p *Peer) Cache() *cache.Cache { return p.cache }

// Store exposes the static store.
func (p *Peer) Store() *cache.Store { return p.store }

// dedupID returns the duplicate-suppression ID a delivered message of
// this kind is checked against as its handler's first action, and
// whether the kind dedups at all. It powers the duplicate fast path in
// handleFrame, so it must list exactly the kinds whose handlers open
// with `if p.markSeen(m) { return }` and do nothing else on the
// duplicate path.
func dedupID(m *message) (uint64, bool) {
	switch m.Kind {
	case kindRegionalSearch:
		return m.ID, true
	case kindSearchFlood, kindHomeFlood, kindUpdateFlood,
		kindInvalidate, kindPollFlood:
		return m.FloodID, true
	default:
		return 0, false
	}
}

// markSeen records that the peer has heard m's flood, reporting whether
// it already had within seenRetention. The flood's record is found
// through m's reference, else by dedup ID, else opened here; m is left
// referencing it for every copy it is broadcast as.
func (p *Peer) markSeen(m *message) bool {
	f := &p.net.floods
	now := p.net.sched.Now()
	id, _ := dedupID(m)
	r := f.find(m, id)
	if r == nil {
		r = f.open(m, id, now)
	}
	return r.mark(int32(p.id), now)
}

// srcCtx builds the workload context for a draw happening now. It is a
// stack value — the interface fields are copies of per-network state —
// so the hot request/update path allocates nothing for it.
func (p *Peer) srcCtx() workload.Ctx {
	return workload.Ctx{Peer: int(p.id), Now: p.net.sched.Now(), RNG: p.rng, Loc: p.net.loc}
}

// scheduleNextRequest arms the peer's request process one drawn gap from
// now, pinned to the peer's own execution context so a sharded run fires
// it on the peer's shard.
func (p *Peer) scheduleNextRequest() {
	gap := p.net.arr.NextRequestGap(p.rng)
	p.net.sched.AtAs(p.net.sched.Now()+gap, func() {
		if p.Alive() {
			k := p.net.src.PickKey(p.srcCtx())
			p.net.RequestFrom(p.id, k)
		}
		p.scheduleNextRequest()
	}, int(p.id))
}

// scheduleNextUpdate arms the peer's update process. Updates are
// network-global work (execAs -1): an update bumps the shared ground
// truth, so a sharded run executes it at a barrier while every shard
// worker is parked.
func (p *Peer) scheduleNextUpdate() {
	gap := p.net.arr.NextUpdateGap(p.rng)
	p.net.sched.AtAs(p.net.sched.Now()+gap, func() {
		if p.Alive() {
			k := p.net.src.PickUpdateKey(p.srcCtx())
			p.net.UpdateFrom(p.id, k)
		}
		p.scheduleNextUpdate()
	}, -1)
}

// scheduleMobilityCheck arms the periodic inter-region mobility detector
// (Section 2.3: "peers check their positions periodically"), pinned to
// the peer's own execution context.
func (p *Peer) scheduleMobilityCheck() {
	p.net.sched.AtCtxAs(p.net.sched.Now()+mobilityCheckInterval, mobilityTick, p, int(p.id))
}

// mobilityTick is the mobility check's timer callback, with the *Peer as
// its context: a plain function, so arming the timer allocates nothing.
func mobilityTick(ctx any) {
	p := ctx.(*Peer)
	if p.Alive() {
		p.checkMobility()
	}
	p.scheduleMobilityCheck()
}

// checkMobility detects a region crossing and re-homes any stored keys
// that no longer belong with this peer.
func (p *Peer) checkMobility() {
	r, ok := p.net.table.Locate(p.net.ch.Position(p.id))
	if ok && r.ID != p.regionID {
		p.regionID = r.ID
		p.net.emit(trace.Event{Kind: trace.RegionChange, Node: int(p.id), Region: int(r.ID)})
	}
	// Re-homing runs on every check, not only on crossings: it also
	// repairs keys adopted after failed handoffs.
	if p.store.Len() > 0 {
		p.rehomeKeys(false)
	}
}

// properRegion returns the region a stored copy belongs to: the key's
// home region for primary copies (rank 0), the rank-r replica region for
// rank-r replica copies.
func (p *Peer) properRegion(it *cache.StoredItem) (region.Region, bool) {
	return p.net.table.ReplicaRegionAt(it.Key, it.ReplicaRank)
}

// rehomeKeys transfers every stored copy whose proper region is not the
// peer's current region to the best custodian of that region: alive,
// inside it, nearest its center (the paper's criteria; peers near the
// center are least likely to leave soon). Copies with no reachable
// custodian stay here and are retried at the next mobility check. When
// evacuate is true (graceful quit), copies belonging to the peer's own
// region are transferred too. A pass that moves nothing and leaves
// nothing waiting records the state it saw (settled); until that state
// changes, later non-evacuating passes return at once.
func (p *Peer) rehomeKeys(evacuate bool) {
	if !evacuate && p.settled == p.rehomeMarkNow() {
		// Nothing the last clean pass looked at has changed: it would draw
		// no message ID, emit nothing and send nothing.
		p.net.rehomeSkips++
		if p.net.probe != nil {
			p.net.probe.AfterRehome(p, evacuate)
		}
		return
	}
	p.net.rehomePasses++
	type group struct {
		target *Peer
		region region.ID
		items  []handoffItem
	}
	// groups and order are allocated at the first misplaced copy: most
	// passes find none.
	var groups map[region.ID]*group
	var order []region.ID
	waiting := false // a copy stayed behind for want of a custodian
	for _, k := range p.store.Keys() {
		it, _ := p.store.Get(k)
		proper, ok := p.properRegion(it)
		if !ok {
			continue
		}
		if proper.ID == p.regionID && !evacuate {
			continue // the copy is where it belongs
		}
		g := groups[proper.ID]
		if g == nil {
			target := p.net.peerNearestCenterExcluding(proper.ID, p)
			if target == nil {
				if evacuate {
					// Nobody can take these: they die with us.
					p.net.stats.LostKeys++
					p.store.Remove(k)
				}
				waiting = true
				continue
			}
			if groups == nil {
				groups = make(map[region.ID]*group)
			}
			g = &group{target: target, region: proper.ID}
			groups[proper.ID] = g
			order = append(order, proper.ID)
		}
		g.items = append(g.items, handoffItem{
			Key: it.Key, Size: it.Size, Version: it.Version,
			UpdatedAt: it.UpdatedAt, TTR: it.TTR, ReplicaRank: it.ReplicaRank,
		})
		p.store.Remove(k)
	}
	// Send in ascending region order (the order every recorded trace
	// has), not in the order the keys happened to name their regions.
	slices.Sort(order)
	for _, id := range order {
		g := groups[id]
		m := p.net.newMsg(message{
			Kind: kindHandoff, ID: p.newID(),
			Origin: p.id, OriginPos: p.net.ch.Position(p.id),
			TargetRegion: g.region, TargetPos: p.net.ch.Position(g.target.id),
			TargetNode: g.target.id, HasTargetNode: true,
			Items: g.items,
		})
		p.net.stats.Handoffs++
		p.net.emit(trace.Event{
			Kind: trace.Handoff, Node: int(p.id), Region: int(g.region), Count: len(g.items),
		})
		if p.id == g.target.id {
			p.onHandoff(m)
			continue
		}
		p.net.forwardWithRetry(p, m)
	}
	p.settled = rehomeMark{}
	if !waiting {
		p.settled = p.rehomeMarkNow()
	}
	if p.net.probe != nil {
		p.net.probe.AfterRehome(p, evacuate)
	}
}

// onHandoff receives a key transfer: the addressee installs the items,
// intermediate nodes forward.
func (p *Peer) onHandoff(m *message) {
	if !m.HasTargetNode || m.TargetNode != p.id {
		p.net.forwardWithRetry(p, m)
		return
	}
	p.adoptItems(m.Items)
	p.net.releaseMsg(m)
}

// adoptItems installs transferred copies, keeping fresher local versions.
func (p *Peer) adoptItems(items []handoffItem) {
	for _, it := range items {
		if cur, ok := p.store.Get(it.Key); ok && cur.Version >= it.Version {
			continue // already holds a copy at least as fresh
		}
		p.store.Put(cache.StoredItem{
			Key: it.Key, Size: it.Size, Version: it.Version,
			UpdatedAt: it.UpdatedAt, TTR: it.TTR, ReplicaRank: it.ReplicaRank,
		})
	}
}
