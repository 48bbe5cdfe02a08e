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
	phaseHome                     // waiting on the home region
	phaseReplica                  // waiting on the replica region
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
	// replicaRank is the highest replica rank a routed attempt was
	// successfully forwarded to (0 = none yet); the replica phase walks
	// ranks upward until the configured replica count is exhausted.
	replicaRank int
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
	if p.cache != nil {
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
	}

	p.pending = append(p.pending, req)
	switch n.cfg.Retrieval {
	case PReCinCt:
		// Without cooperative caching there is nothing to find in the
		// requester's region (Section 5.2.2's analysis setup), so the
		// request goes straight to the home region.
		if p.cache == nil {
			if n.startHomePhase(p, req) || n.startReplicaPhase(p, req) {
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

// ringWait scales the per-round timeout with the ring radius.
func (n *Network) ringWait(ttl int) float64 {
	return ringTimeout * float64(ttl)
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

// startHomePhase routes the request toward the key's home region. It
// reports whether the request could leave the requester.
func (n *Network) startHomePhase(p *Peer, req *pendingReq) bool {
	home, ok := p.net.table.HomeRegion(req.key)
	if !ok {
		return false
	}
	if home.ID == p.regionID {
		// The regional flood already covered the home region.
		return false
	}
	req.phase = phaseHome
	m := n.newMsg(message{
		Kind: kindRoutedSearch, ID: req.id, Key: req.key,
		Origin: p.id, OriginPos: n.ch.Position(p.id), OriginRegion: p.regionID,
		TargetRegion: home.ID, TargetPos: home.Center(),
	})
	if !n.forwardRouted(p, m) {
		n.releaseMsg(m)
		return false
	}
	n.armReqTimeout(req, n.sched.Now()+remoteTimeout)
	return true
}

// startReplicaPhase retries against the next untried replica region
// (fault tolerance, Section 2.4). With the paper's single replica region
// there is exactly one attempt; with Replicas > 1 each call advances to
// the next rank, so a request walks the k replica regions in rank order
// before failing. It reports whether a routed attempt left the
// requester. Ranks whose region is the requester's own (already covered
// by a flood) or that cannot be routed to are skipped; only a
// successfully forwarded rank is recorded, so an unreachable rank is
// retried if a later phase falls back here again.
func (n *Network) startReplicaPhase(p *Peer, req *pendingReq) bool {
	for r := req.replicaRank + 1; r <= n.cfg.Replicas; r++ {
		rep, ok := p.net.table.ReplicaRegionAt(req.key, r)
		if !ok || rep.ID == p.regionID {
			continue
		}
		req.phase = phaseReplica
		m := n.newMsg(message{
			Kind: kindRoutedSearch, ID: req.id, Key: req.key,
			Origin: p.id, OriginPos: n.ch.Position(p.id), OriginRegion: p.regionID,
			TargetRegion: rep.ID, TargetPos: rep.Center(),
		})
		if !n.forwardRouted(p, m) {
			n.releaseMsg(m)
			continue
		}
		req.replicaRank = r
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
	switch req.phase {
	case phaseRegional:
		if n.startHomePhase(p, req) {
			return
		}
		if n.startReplicaPhase(p, req) {
			return
		}
		n.fail(req)
	case phaseHome:
		if n.startReplicaPhase(p, req) {
			return
		}
		n.fail(req)
	case phasePoll:
		if req.pendingReply != nil {
			// A cache-served answer was waiting on a validation that
			// never came back (the home region may have lost the key).
			// Serve it optimistically rather than looping between
			// cache answers and unanswerable polls.
			m := req.pendingReply
			req.pendingReply = nil
			now := n.sched.Now()
			n.finish(req, n.classify(p, m), now-req.issuedAt, m.Version < req.truthAtIssue)
			n.admitToCache(p, m, now)
			n.releaseMsg(m)
			return
		}
		// Validation of a local copy went unanswered: fetch fresh data
		// remotely.
		if n.startHomePhase(p, req) {
			return
		}
		if n.startReplicaPhase(p, req) {
			return
		}
		n.fail(req)
	case phaseRing:
		next := req.ringTTL * 2
		if next > maxRingTTL {
			n.fail(req)
			return
		}
		req.ringTTL = next
		n.floodSearch(p, req, next)
		n.armReqTimeout(req, n.sched.Now()+n.ringWait(next))
	case phaseReplica:
		// Walk the remaining replica ranks before giving up (only one
		// rank exists under the paper's scheme, so this falls straight
		// through to the failure).
		if n.startReplicaPhase(p, req) {
			return
		}
		n.fail(req)
	case phaseFlood:
		n.fail(req)
	}
}

// fail closes a request unanswered. The box is dead afterwards (it
// returns to the freelist); callers must not touch req again.
func (n *Network) fail(req *pendingReq) {
	n.peers[req.origin].pendingDelete(req.id)
	if req.pendingReply != nil {
		// A stashed answer dies with the request (dead-origin timeout).
		n.releaseMsg(req.pendingReply)
		req.pendingReply = nil
	}
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

// lookupForAnswer checks whether the peer can answer a request for k:
// first its static store (authoritative), then a dynamic-cache copy.
// Cached copies are always serveable; the advertised TTR tells the
// requester how to treat them. Under Pull-Every-time the requester
// validates every cache-served answer; under Push-with-Adaptive-Pull it
// validates only answers whose remaining TTR is zero (expired copies).
// fromStore marks authoritative answers that never need validation.
func (p *Peer) lookupForAnswer(k workload.Key) (version uint64, ttr float64, fromStore, ok bool) {
	if it, found := p.store.Get(k); found {
		return it.Version, it.TTR, true, true
	}
	if p.cache == nil {
		return 0, 0, false, false
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

// answer sends a data reply for request m back to its origin. The
// caller keeps ownership of m.
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
	if p.id == m.Origin {
		p.onReply(reply)
		return
	}
	p.net.routeOwned(p, reply)
}

// onSearchFlood handles the flooding / expanding-ring request.
func (p *Peer) onSearchFlood(m *message) {
	if p.markSeen(m) {
		p.net.releaseMsg(m)
		return
	}
	if v, ttr, fromStore, ok := p.lookupForAnswer(m.Key); ok {
		p.answer(m, v, ttr, fromStore, false)
		p.net.releaseMsg(m)
		return
	}
	if m.TTL > 1 {
		m.TTL--
		p.net.broadcast(p.id, m)
		return
	}
	p.net.releaseMsg(m)
}

// onRegionalSearch handles the intra-region broadcast phase of PReCinCt:
// peers outside the region drop the message; peers inside answer from
// store or fresh cache, or keep flooding within the region.
func (p *Peer) onRegionalSearch(m *message) {
	if p.markSeen(m) {
		p.net.releaseMsg(m)
		return
	}
	if p.regionID != m.TargetRegion {
		p.net.releaseMsg(m)
		return
	}
	if v, ttr, fromStore, ok := p.lookupForAnswer(m.Key); ok {
		p.answer(m, v, ttr, fromStore, false)
		p.net.releaseMsg(m)
		return
	}
	if m.TTL > 1 {
		m.TTL--
		p.net.broadcast(p.id, m)
		return
	}
	p.net.releaseMsg(m)
}

// onRoutedSearch advances a request toward the home/replica region. The
// first node inside the target region becomes the point of broadcast and
// floods the request locally. En-route peers with a fresh copy answer
// directly when enabled.
func (p *Peer) onRoutedSearch(m *message) {
	if p.net.table.Contains(m.TargetRegion, p.net.ch.Position(p.id)) {
		// Rewrite the routed request into the localized flood in place.
		// The flood ID is drawn (and marked) before the local lookup so
		// the deterministic ID sequence matches the reference path,
		// which built the flood before checking its own holdings.
		m.Kind = kindHomeFlood
		m.TTL = regionTTL
		m.FloodID = p.newID()
		p.markSeen(m)
		// The point of broadcast also checks its own holdings. answer
		// reads only fields the rewrite above left untouched.
		if v, ttr, fromStore, found := p.lookupForAnswer(m.Key); found {
			p.answer(m, v, ttr, fromStore, false)
			p.net.releaseMsg(m)
			return
		}
		p.net.broadcast(p.id, m)
		return
	}
	if p.net.cfg.EnRoute {
		if v, ttr, fromStore, found := p.lookupForAnswer(m.Key); found {
			p.answer(m, v, ttr, fromStore, true)
			p.net.releaseMsg(m)
			return
		}
	}
	p.net.routeOwned(p, m)
}

// onHomeFlood handles the localized flood inside the destination region.
func (p *Peer) onHomeFlood(m *message) {
	if p.markSeen(m) {
		p.net.releaseMsg(m)
		return
	}
	if !p.net.table.Contains(m.TargetRegion, p.net.ch.Position(p.id)) {
		p.net.releaseMsg(m)
		return
	}
	if v, ttr, fromStore, found := p.lookupForAnswer(m.Key); found {
		p.answer(m, v, ttr, fromStore, false)
		p.net.releaseMsg(m)
		return
	}
	if m.TTL > 1 {
		m.TTL--
		p.net.broadcast(p.id, m)
		return
	}
	p.net.releaseMsg(m)
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
	if p.cache == nil {
		return
	}
	if m.ServerRegion == p.regionID {
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
	p.cache.Put(cache.Entry{
		Key: m.Key, Size: m.Size, Version: m.Version,
		RegionDist: regDist, TTRExpiry: expiry,
	}, now)
}
