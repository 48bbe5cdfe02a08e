package node

import (
	"math"

	"precinct/internal/cache"
	"precinct/internal/consistency"
	"precinct/internal/metrics"
	"precinct/internal/radio"
	"precinct/internal/sim"
	"precinct/internal/trace"
	"precinct/internal/workload"
)

// reqPhase tracks where a pending request is in its lifecycle.
type reqPhase int

const (
	phaseRegional reqPhase = iota // waiting on the requester-region flood
	phaseRemote                   // waiting on a routed attempt at a rank of the key's ladder
	phasePoll                     // waiting on a validation poll
	phaseRing                     // waiting on an expanding-ring round
	phaseFlood                    // waiting on a network-wide flood
)

// pendingReq is the requester-side state of one outstanding request.
type pendingReq struct {
	id       uint64
	origin   radio.NodeID
	key      workload.Key
	size     int
	issuedAt float64
	record   bool
	phase    reqPhase
	timeout  sim.Handle

	// ringTTL is the current expanding-ring radius.
	ringTTL int
	// nextRank is the first rank of the key's ladder (0 = home) a
	// routed attempt has not been forwarded to yet; startRemote walks
	// upward from it.
	nextRank int
	// cachedVersion is the local copy's version during a poll.
	cachedVersion uint64
	// truthAtIssue is the authoritative version when the request was
	// issued; answers older than this are false hits. Comparing against
	// issue time (not completion time) keeps updates that race with an
	// in-flight request from being miscounted as staleness.
	truthAtIssue uint64
	// pendingReply stashes a cache-served answer that Pull-Every-time
	// must validate with the home region before serving.
	pendingReply *message
}

// armReqTimeout schedules (or re-schedules) a pending request's timeout
// at an absolute time, to run under the requester's execution context.
func (n *Network) armReqTimeout(req *pendingReq, at float64) {
	// The closure captures the request ID by value, never the box: the
	// box recycles through the freelist when the request closes, and a
	// canceled-then-stale fire must miss the pending lookup, not read a
	// reused box.
	id := req.id
	req.timeout = n.sched.AtAs(at, func() { n.onTimeout(id) }, int(req.origin))
}

// RequestFrom runs the full search process for key k issued by the given
// peer at the current simulation time (Figure 1's Search procedure).
func (n *Network) RequestFrom(origin radio.NodeID, k workload.Key) {
	p := n.peers[origin]
	if !p.Alive() {
		return
	}
	n.requestsIssued++
	now := n.sched.Now()
	size := n.catalog.Size(k)
	req := n.acquireReq()
	*req = pendingReq{
		id:           p.newID(),
		origin:       origin,
		key:          k,
		size:         size,
		issuedAt:     now,
		record:       n.recording(),
		truthAtIssue: n.truth[k],
	}

	n.emit(trace.Event{Kind: trace.RequestIssued, Node: int(origin), Key: uint32(k)})

	// Authoritative local copy (static space).
	if it, ok := p.store.Get(k); ok {
		n.finish(req, metrics.LocalHit, 0, it.Version < req.truthAtIssue)
		return
	}

	// Dynamic cache.
	if e, ok := p.cache.Get(k, now); ok {
		if consistency.Fresh(n.cfg.Consistency.Scheme, e, now) {
			n.finish(req, metrics.LocalHit, 0, e.Version < req.truthAtIssue)
			return
		}
		// Stale-suspect copy: validate with the home region.
		p.pending = append(p.pending, req)
		req.phase = phasePoll
		req.cachedVersion = e.Version
		if n.sendPoll(p, req) {
			n.armReqTimeout(req, n.sched.Now()+remoteTimeout)
			return
		}
		// No route to the home region: fall through to a search.
		p.pendingDelete(req.id)
	}

	p.pending = append(p.pending, req)
	switch n.cfg.Retrieval {
	case PReCinCt:
		// Without cooperative caching there is nothing to find in the
		// requester's region (Section 5.2.2's analysis setup), so the
		// request goes straight to the home region.
		if n.cfg.CacheBytes <= 0 {
			if n.startRemote(p, req) {
				return
			}
			// The home region is the local region: fall back to the
			// regional flood to find the holder.
			n.startRegionalPhase(p, req)
			return
		}
		n.startRegionalPhase(p, req)
	case Flooding:
		req.phase = phaseFlood
		n.floodSearch(p, req, networkTTL)
		n.armReqTimeout(req, n.sched.Now()+remoteTimeout)
	case ExpandingRing:
		req.phase = phaseRing
		req.ringTTL = 1
		n.floodSearch(p, req, req.ringTTL)
		n.armReqTimeout(req, n.sched.Now()+n.ringWait(req.ringTTL))
	}
}

// ringWait scales the per-round timeout with the ring radius. The
// product is rounded here, so no target fuses it into the caller's
// now+wait.
func (n *Network) ringWait(ttl int) float64 {
	return float64(ringTimeout * float64(ttl))
}

// startRegionalPhase broadcasts the request inside the requester's region.
func (n *Network) startRegionalPhase(p *Peer, req *pendingReq) {
	req.phase = phaseRegional
	m := n.newMsg(message{
		Kind: kindRegionalSearch, ID: req.id, Key: req.key,
		Origin: p.id, OriginPos: n.ch.Position(p.id), OriginRegion: p.regionID,
		TargetRegion: p.regionID, TTL: regionTTL,
	})
	p.markSeen(m) // the origin must not re-flood its own request
	n.broadcast(p.id, m)
	n.armReqTimeout(req, n.sched.Now()+regionalTimeout)
}

// startRemote routes the request toward the next rank of the key's
// ladder, from req.nextRank: rank 0 is the home region, rank r >= 1 the
// rank-r replica region (fault tolerance, Section 2.4), so a request
// walks its k replica regions in rank order after the home region
// before failing. It reports whether a routed attempt left the
// requester. Ranks whose region is the requester's own (already covered
// by a flood) or that cannot be routed to are skipped; only a forwarded
// rank moves the cursor, so an unreachable rank is retried when a later
// phase starts the walk again from the same cursor.
func (n *Network) startRemote(p *Peer, req *pendingReq) bool {
	for r := req.nextRank; r <= n.cfg.Replicas; r++ {
		target, ok := n.table.ReplicaRegionAt(req.key, r)
		if !ok || target.ID == p.regionID {
			continue
		}
		m := n.newMsg(message{
			Kind: kindRoutedSearch, ID: req.id, Key: req.key,
			Origin: p.id, OriginPos: n.ch.Position(p.id), OriginRegion: p.regionID,
			TargetRegion: target.ID, TargetPos: target.Center(),
		})
		if !n.forwardRouted(p, m) {
			n.releaseMsg(m)
			continue
		}
		req.phase = phaseRemote
		req.nextRank = r + 1
		n.armReqTimeout(req, n.sched.Now()+remoteTimeout)
		return true
	}
	return false
}

// floodSearch broadcasts a network-wide search (flooding / ring round).
// Each round uses a fresh flood ID so ring rounds are not deduplicated
// against each other.
func (n *Network) floodSearch(p *Peer, req *pendingReq, ttl int) {
	m := n.newMsg(message{
		Kind: kindSearchFlood, ID: req.id, Key: req.key,
		Origin: p.id, OriginPos: n.ch.Position(p.id), OriginRegion: p.regionID,
		TTL: ttl, FloodID: p.newID(),
	})
	p.markSeen(m)
	n.broadcast(p.id, m)
}

// onTimeout advances a pending request to its next phase, or fails it.
func (n *Network) onTimeout(id uint64) {
	p := n.peers[reqOrigin(id)]
	req, ok := p.pendingGet(id)
	if !ok {
		return
	}
	if !p.Alive() {
		n.fail(req)
		return
	}
	switch {
	case req.pendingReply != nil:
		// A cache-served answer was waiting on a validation poll that
		// never came back (the home region may have lost the key).
		// Serve it optimistically rather than looping between cache
		// answers and unanswerable polls.
		m := req.pendingReply
		req.pendingReply = nil
		now := n.sched.Now()
		n.finish(req, n.classify(p, m), now-req.issuedAt, m.Version < req.truthAtIssue)
		n.admitToCache(p, m, now)
		n.releaseMsg(m)
	case req.phase == phaseRing:
		next := req.ringTTL * 2
		if next > maxRingTTL {
			n.fail(req)
			return
		}
		req.ringTTL = next
		n.floodSearch(p, req, next)
		n.armReqTimeout(req, n.sched.Now()+n.ringWait(next))
	case req.phase == phaseFlood:
		n.fail(req)
	default:
		// The regional flood, a routed rank or the validation of a
		// local copy went unanswered: try the next rank of the ladder.
		if !n.startRemote(p, req) {
			n.fail(req)
		}
	}
}

// fail closes a request unanswered. The box is dead afterwards (it
// returns to the freelist); callers must not touch req again.
func (n *Network) fail(req *pendingReq) {
	n.requestsClosed++
	n.peers[req.origin].pendingDelete(req.id)
	if req.record {
		n.coll.Request(0, req.size, metrics.Failure, false)
	}
	n.emit(trace.Event{Kind: trace.RequestFailed, Node: int(req.origin), Key: uint32(req.key)})
	n.releaseReq(req)
}

// finish closes a request successfully. The box is dead afterwards (it
// returns to the freelist); callers must not touch req again.
func (n *Network) finish(req *pendingReq, class metrics.HitClass, latency float64, stale bool) {
	if req.timeout != 0 {
		n.sched.Cancel(req.timeout)
	}
	n.requestsClosed++
	n.peers[req.origin].pendingDelete(req.id)
	if req.record {
		n.coll.Request(latency, req.size, class, stale)
	}
	n.emit(trace.Event{
		Kind: trace.RequestCompleted, Node: int(req.origin), Key: uint32(req.key),
		Class: class.String(), Latency: latency, Stale: stale,
	})
	n.releaseReq(req)
}

// keyBit is k's bit in a held mask.
func keyBit(k workload.Key) uint64 { return 1 << (k & 63) }

// mayHold reports whether the peer can hold k in its store or its cache.
// false is exact; true may be stale, because a removal or an eviction
// leaves the key's bit set (recomputing the bit would cost a pass over
// both maps, and re-homing empties a custodian's store one key at a
// time). Only Revive, which empties both, clears a peer's bits.
//
// The mask lives on the peer's replica, which allocates it at its first
// lookup and fills it from the stores and caches of the peers it owns;
// from then on putStored and admitToCache set the bit of every key they
// insert.
func (p *Peer) mayHold(k workload.Key) bool {
	n := p.net
	if n.held == nil {
		n.fillHeld()
	}
	return n.held[p.id]&keyBit(k) != 0
}

// noteHeld records that the peer now holds k.
func (p *Peer) noteHeld(k workload.Key) {
	if held := p.net.held; held != nil {
		held[p.id] |= keyBit(k)
	}
}

// fillHeld allocates the replica's held masks and sets, for every peer
// it owns, the bit of each key in that peer's store and cache. Another
// replica's peers are left alone: their replica keeps their bits, and
// their maps may be changing on its shard meanwhile.
func (n *Network) fillHeld() {
	n.held = make([]uint64, len(n.peers))
	for _, p := range n.peers {
		if p.net != n {
			continue
		}
		for _, k := range p.store.Keys() {
			n.held[p.id] |= keyBit(k)
		}
		for _, k := range p.cache.Keys() {
			n.held[p.id] |= keyBit(k)
		}
	}
}

// lookupForAnswer checks whether the peer can answer a request for k:
// first its static store (authoritative), then a dynamic-cache copy.
// Cached copies are always serveable; the advertised TTR tells the
// requester how to treat them. Under Pull-Every-time the requester
// validates every cache-served answer; under Push-with-Adaptive-Pull it
// validates only answers whose remaining TTR is zero (expired copies).
// fromStore marks authoritative answers that never need validation.
func (p *Peer) lookupForAnswer(k workload.Key) (version uint64, ttr float64, fromStore, ok bool) {
	if !p.mayHold(k) {
		return 0, 0, false, false
	}
	if it, found := p.store.Get(k); found {
		return it.Version, it.TTR, true, true
	}
	e, found := p.cache.Peek(k)
	if !found {
		return 0, 0, false, false
	}
	now := p.net.sched.Now()
	remaining := e.TTRExpiry - now
	switch {
	case math.IsInf(remaining, 1):
		remaining = p.net.cfg.Consistency.InitialTTR
	case remaining < 0:
		remaining = 0 // expired: the requester must validate under adaptive pull
	}
	// Serving from cache counts as a regional access for GD-LD.
	p.cache.Get(k, now)
	return e.Version, remaining, false, true
}

// answer sends a data reply for request m back to its origin (onReply
// routes it unless this peer is the origin). The caller keeps ownership
// of m.
func (p *Peer) answer(m *message, version uint64, ttr float64, fromStore, enRoute bool) {
	reply := p.net.newMsg(message{
		Kind: kindReply, ID: m.ID, Key: m.Key,
		Origin: m.Origin, OriginPos: m.OriginPos, OriginRegion: m.OriginRegion,
		Version: version, TTR: ttr,
		Size:         p.net.catalog.Size(m.Key),
		ServerRegion: p.regionID,
		EnRoute:      enRoute,
		FromStore:    fromStore,
	})
	p.onReply(reply)
}

// onFlood handles every flood kind (the kinds dedupID lists): a peer
// hears a flood once, serves it when it is inside the flood's scope, and
// relays it while TTL lasts. A duplicate stops at markSeen before the
// scope is read (handleFrame's fast path drops most of them earlier).
func (p *Peer) onFlood(m *message) {
	if p.markSeen(m) || !p.inScope(m) || p.serve(m) || m.TTL <= 1 {
		p.net.releaseMsg(m)
		return
	}
	m.TTL--
	p.net.broadcast(p.id, m)
}

// inScope reports whether the peer is inside the area a flood covers:
// the whole network for a network-wide search or invalidation, the
// peer's own region (as of its last mobility check) for the
// requester-region search, and otherwise the target region at the
// peer's true position.
func (p *Peer) inScope(m *message) bool {
	switch m.Kind {
	case kindSearchFlood, kindInvalidate:
		return true
	case kindRegionalSearch:
		return p.regionID == m.TargetRegion
	default:
		return p.net.table.Contains(m.TargetRegion, p.net.ch.Position(p.id))
	}
}

// serve does what a flood asks of a peer in its scope and reports
// whether the peer answered it, which ends the peer's part in the flood:
// a search is answered from the store or a cached copy, a poll by a
// holder; an update or invalidation is applied and the flood goes on.
func (p *Peer) serve(m *message) bool {
	switch m.Kind {
	case kindUpdateFlood, kindInvalidate:
		p.applyPush(m)
		return false
	case kindPollFlood:
		return p.answerPoll(m)
	default:
		v, ttr, fromStore, ok := p.lookupForAnswer(m.Key)
		if ok {
			p.answer(m, v, ttr, fromStore, false)
		}
		return ok
	}
}

// onRouted advances a region-routed search, update or poll one GPSR hop
// toward its target region. The first peer inside the region by true
// position becomes the point of broadcast: it turns the message into the
// region's localized flood, serves it and starts the flood. Outside the
// region a search may be answered en route.
func (p *Peer) onRouted(m *message) {
	n := p.net
	if n.table.Contains(m.TargetRegion, n.ch.Position(p.id)) {
		p.floodRegion(m)
		if p.serve(m) {
			n.releaseMsg(m)
			return
		}
		n.broadcast(p.id, m)
		return
	}
	if m.Kind == kindUpdateRoute {
		// An update has no end-to-end timeout to recover it.
		n.forwardWithRetry(p, m)
		return
	}
	if m.Kind == kindRoutedSearch && n.cfg.EnRoute {
		if v, ttr, fromStore, ok := p.lookupForAnswer(m.Key); ok {
			p.answer(m, v, ttr, fromStore, true)
			n.releaseMsg(m)
			return
		}
	}
	n.routeOwned(p, m)
}

// floodRegion rewrites a region-routed message in place into its target
// region's localized flood, started by p: the point of broadcast, or an
// origin already inside the region. The flood ID is drawn and marked
// before the point of broadcast serves the flood, so the ID sequence does
// not depend on whether it holds the key.
func (p *Peer) floodRegion(m *message) {
	switch m.Kind {
	case kindRoutedSearch:
		m.Kind = kindHomeFlood
	case kindUpdateRoute:
		m.Kind = kindUpdateFlood
	case kindPollRoute:
		m.Kind = kindPollFlood
	}
	m.TTL = regionTTL
	m.FloodID = p.newID()
	p.markSeen(m)
}

// onReply routes a response back to the requester and completes the
// pending request on arrival.
func (p *Peer) onReply(m *message) {
	if p.id != m.Origin {
		p.net.routeOwned(p, m)
		return
	}
	n := p.net
	req, ok := p.pendingGet(m.ID)
	if !ok {
		n.releaseMsg(m) // duplicate answer; first one won
		return
	}
	now := n.sched.Now()

	// Cache-served answers may need validation with the home region
	// before they are consumed: always under Pull-Every-time ("peers
	// are required to poll the home regions for every data request"),
	// and only for TTR-expired copies under Push-with-Adaptive-Pull.
	scheme := n.cfg.Consistency.Scheme
	needsValidation := !m.FromStore &&
		(scheme == consistency.PullEveryTime ||
			(scheme == consistency.PushAdaptivePull && m.TTR <= 0))
	if needsValidation {
		if req.phase == phasePoll {
			// Duplicate cache answers while a validation is in
			// flight must not bypass it.
			n.releaseMsg(m)
			return
		}
		if req.timeout != 0 {
			n.sched.Cancel(req.timeout)
		}
		req.pendingReply = m // ownership moves to the stash
		req.phase = phasePoll
		req.cachedVersion = m.Version
		if n.sendPoll(p, req) {
			n.armReqTimeout(req, n.sched.Now()+remoteTimeout)
			return
		}
		// The home region is unreachable for validation; fall through
		// and serve the answer optimistically.
		req.pendingReply = nil
	}

	latency := now - req.issuedAt
	stale := m.Version < req.truthAtIssue
	n.finish(req, n.classify(p, m), latency, stale)
	n.admitToCache(p, m, now)
	n.releaseMsg(m)
}

// classify buckets a reply by where it was served from, seen from the
// requester.
func (n *Network) classify(p *Peer, m *message) metrics.HitClass {
	switch {
	case m.ServerRegion == p.regionID:
		return metrics.RegionalHit
	case m.EnRoute:
		return metrics.EnRouteHit
	default:
		return metrics.RemoteHit
	}
}

// admitToCache applies the paper's cache admission control: items whose
// responder lives in the requester's own region are not cached (they stay
// reachable through the cumulative cache); everything else enters the
// dynamic cache under the replacement policy.
func (n *Network) admitToCache(p *Peer, m *message, now float64) {
	if n.cfg.CacheBytes <= 0 || m.ServerRegion == p.regionID {
		return
	}
	var regDist float64
	if home, ok := p.net.table.HomeRegion(m.Key); ok {
		regDist = p.net.table.RegionDistance(p.regionID, home.ID)
	}
	expiry := cache.NeverExpires
	if n.cfg.Consistency.Scheme == consistency.PushAdaptivePull {
		// An expired relayed copy (TTR <= 0) is admitted already stale:
		// its next use will validate.
		if m.TTR < 0 {
			m.TTR = 0
		}
		expiry = now + m.TTR
	}
	if n.probe != nil {
		n.probe.OnCacheAdmit(p.id, p.regionID, m.ServerRegion, m.Key)
	}
	if p.cache == nil {
		p.cache = n.newCache()
	}
	p.cache.Put(cache.Entry{
		Key: m.Key, Size: m.Size, Version: m.Version,
		RegionDist: regDist, TTRExpiry: expiry,
	}, now)
	p.noteHeld(m.Key)
}
