package node

import (
	"precinct/internal/cache"
	"precinct/internal/consistency"
	"precinct/internal/metrics"
	"precinct/internal/radio"
	"precinct/internal/trace"
	"precinct/internal/workload"
)

// UpdateFrom runs the update path for key k initiated by the given peer:
// the authoritative version is bumped, then propagated according to the
// configured consistency scheme.
func (n *Network) UpdateFrom(origin radio.NodeID, k workload.Key) {
	p := n.peers[origin]
	if !p.Alive() {
		return
	}
	n.truth[k]++
	newVersion := n.truth[k]
	if n.recording() {
		n.coll.UpdateIssued()
	}
	n.emit(trace.Event{Kind: trace.UpdateIssued, Node: int(origin), Key: uint32(k)})
	now := n.sched.Now()

	// The initiator's own copies are freshened immediately.
	if _, ok := p.store.Get(k); ok {
		n.applyStoredUpdate(p, k, newVersion, now)
	}
	if p.cache != nil {
		p.cache.Update(k, newVersion, now+n.cfg.Consistency.InitialTTR)
	}

	switch n.cfg.Consistency.Scheme {
	case consistency.PlainPush:
		// Flood the update (which doubles as the invalidation) through
		// the entire network.
		m := n.newMsg(message{
			Kind: kindInvalidate, ID: p.newID(), FloodID: p.newID(), Key: k,
			Origin: origin, OriginPos: n.ch.Position(origin), OriginRegion: p.regionID,
			Version: newVersion, TTL: networkTTL,
			Size: n.catalog.Size(k),
		})
		p.markSeen(m)
		n.broadcast(origin, m)
	default:
		// None, PullEveryTime, PushAdaptivePull: the update travels to
		// the home region (and each replica region when replication is
		// on); caches elsewhere converge by pulling.
		n.pushUpdateToRegion(p, k, newVersion, 0)
		for r := 1; r <= n.cfg.Replicas; r++ {
			n.pushUpdateToRegion(p, k, newVersion, r)
		}
	}
}

// pushUpdateToRegion routes an update toward the key's home region
// (rank 0) or its rank-r replica region, and floods it there.
func (n *Network) pushUpdateToRegion(p *Peer, k workload.Key, version uint64, rank int) {
	target, ok := p.net.table.ReplicaRegionAt(k, rank)
	if !ok {
		return
	}
	m := n.newMsg(message{
		Kind: kindUpdateRoute, ID: p.newID(), Key: k,
		Origin: p.id, OriginPos: n.ch.Position(p.id), OriginRegion: p.regionID,
		TargetRegion: target.ID, TargetPos: target.Center(),
		Version: version, Size: n.catalog.Size(k),
	})
	if target.ID == p.regionID {
		// Already inside the target region: flood directly.
		m.Kind = kindUpdateFlood
		m.TTL = regionTTL
		m.FloodID = p.newID()
		p.markSeen(m)
		n.broadcast(p.id, m)
		return
	}
	n.forwardWithRetry(p, m)
}

// onUpdateRoute advances an update toward its target region; the first
// node inside becomes the point of broadcast.
func (p *Peer) onUpdateRoute(m *message) {
	if p.net.table.Contains(m.TargetRegion, p.net.ch.Position(p.id)) {
		// Rewrite the routed update into the localized flood in place.
		m.Kind = kindUpdateFlood
		m.TTL = regionTTL
		m.FloodID = p.newID()
		p.markSeen(m)
		p.applyUpdateMessage(m)
		p.net.broadcast(p.id, m)
		return
	}
	p.net.forwardWithRetry(p, m)
}

// onUpdateFlood applies an update inside the target region and keeps the
// localized flood going.
func (p *Peer) onUpdateFlood(m *message) {
	if p.markSeen(m) {
		p.net.releaseMsg(m)
		return
	}
	if !p.net.table.Contains(m.TargetRegion, p.net.ch.Position(p.id)) {
		p.net.releaseMsg(m)
		return
	}
	p.applyUpdateMessage(m)
	if m.TTL > 1 {
		m.TTL--
		p.net.broadcast(p.id, m)
		return
	}
	p.net.releaseMsg(m)
}

// applyUpdateMessage installs a pushed update into this peer's store (if
// it is a holder) and freshens any cached copy.
func (p *Peer) applyUpdateMessage(m *message) {
	now := p.net.sched.Now()
	if _, ok := p.store.Get(m.Key); ok {
		p.net.applyStoredUpdate(p, m.Key, m.Version, now)
	}
	if p.cache != nil {
		if e, ok := p.cache.Peek(m.Key); ok && e.Version < m.Version {
			ttr := p.net.holderTTR(p, m.Key)
			p.cache.Update(m.Key, m.Version, now+ttr)
		}
	}
}

// applyStoredUpdate records an accepted update on a stored item, updating
// its TTR estimate per Equation 2 and counting it.
func (n *Network) applyStoredUpdate(p *Peer, k workload.Key, version uint64, now float64) {
	it, ok := p.store.Get(k)
	if !ok || version <= it.Version {
		return
	}
	interval := now - it.UpdatedAt
	if interval < 0 {
		interval = 0
	}
	prev := it.TTR
	if prev <= 0 {
		prev = n.cfg.Consistency.InitialTTR
	}
	updated := *it
	updated.TTR = consistency.SmoothTTR(n.cfg.Consistency.Alpha, prev, interval)
	updated.Version = version
	updated.UpdatedAt = now
	p.store.Put(updated)
	n.stats.UpdatesApplied++
	if n.probe != nil {
		n.probe.OnTTRSmoothed(p.id, k, n.cfg.Consistency.Alpha, prev, interval, updated.TTR)
	}
}

// holderTTR returns the TTR to advertise for a key from this peer's
// perspective (store TTR when it is a holder, the seed otherwise).
func (n *Network) holderTTR(p *Peer, k workload.Key) float64 {
	if it, ok := p.store.Get(k); ok && it.TTR > 0 {
		return it.TTR
	}
	return n.cfg.Consistency.InitialTTR
}

// onInvalidate handles the Plain-Push network-wide update flood: every
// peer processes it — holders apply the new version, caches drop or
// freshen their copy — and keeps flooding.
func (p *Peer) onInvalidate(m *message) {
	if p.markSeen(m) {
		p.net.releaseMsg(m)
		return
	}
	now := p.net.sched.Now()
	if _, ok := p.store.Get(m.Key); ok {
		p.net.applyStoredUpdate(p, m.Key, m.Version, now)
	}
	if p.cache != nil {
		if e, ok := p.cache.Peek(m.Key); ok && e.Version < m.Version {
			// Plain-Push carries the new data, so the cached copy can
			// be refreshed in place rather than dropped.
			p.cache.Update(m.Key, m.Version, cache.NeverExpires)
		}
	}
	if m.TTL > 1 {
		m.TTL--
		p.net.broadcast(p.id, m)
		return
	}
	p.net.releaseMsg(m)
}

// sendPoll routes a validation poll toward the key's home region. It
// reports whether the poll left the requester.
func (n *Network) sendPoll(p *Peer, req *pendingReq) bool {
	home, ok := p.net.table.HomeRegion(req.key)
	if !ok {
		return false
	}
	if n.recording() {
		n.coll.PollIssued()
	}
	n.emit(trace.Event{Kind: trace.PollIssued, Node: int(p.id), Key: uint32(req.key)})
	m := n.newMsg(message{
		Kind: kindPollRoute, ID: req.id, Key: req.key,
		Origin: p.id, OriginPos: n.ch.Position(p.id), OriginRegion: p.regionID,
		TargetRegion: home.ID, TargetPos: home.Center(),
		CachedVersion: req.cachedVersion,
	})
	if home.ID == p.regionID {
		// The home region is the local region: flood the poll locally.
		m.Kind = kindPollFlood
		m.TTL = regionTTL
		m.FloodID = p.newID()
		p.markSeen(m)
		n.broadcast(p.id, m)
		return true
	}
	if n.forwardRouted(p, m) {
		return true
	}
	n.releaseMsg(m)
	return false
}

// onPollRoute advances a poll toward the home region.
func (p *Peer) onPollRoute(m *message) {
	if p.net.table.Contains(m.TargetRegion, p.net.ch.Position(p.id)) {
		// Rewrite the routed poll into the localized flood in place.
		m.Kind = kindPollFlood
		m.TTL = regionTTL
		m.FloodID = p.newID()
		p.markSeen(m)
		if p.answerPoll(m) {
			p.net.releaseMsg(m)
			return
		}
		p.net.broadcast(p.id, m)
		return
	}
	p.net.routeOwned(p, m)
}

// onPollFlood lets holders inside the home region answer the poll.
func (p *Peer) onPollFlood(m *message) {
	if p.markSeen(m) {
		p.net.releaseMsg(m)
		return
	}
	if !p.net.table.Contains(m.TargetRegion, p.net.ch.Position(p.id)) {
		p.net.releaseMsg(m)
		return
	}
	if p.answerPoll(m) {
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

// answerPoll responds to a validation poll when this peer holds the
// authoritative copy: a small "still valid" answer when the requester's
// version is current, or the full data when it is stale (conditional-GET
// semantics, saving the second round trip). Reports whether it answered.
func (p *Peer) answerPoll(m *message) bool {
	it, ok := p.store.Get(m.Key)
	if !ok {
		return false
	}
	p.net.stats.PollsAnswered++
	if m.CachedVersion >= it.Version {
		reply := p.net.newMsg(message{
			Kind: kindPollReply, ID: m.ID, Key: m.Key,
			Origin: m.Origin, OriginPos: m.OriginPos,
			Version: it.Version, TTR: it.TTR,
		})
		if p.id == m.Origin {
			p.onPollReply(reply)
			return true
		}
		p.net.routeOwned(p, reply)
		return true
	}
	p.answer(m, it.Version, it.TTR, true, false)
	return true
}

// onPollReply routes a "still valid" answer back and completes the poll.
func (p *Peer) onPollReply(m *message) {
	if p.id != m.Origin {
		p.net.routeOwned(p, m)
		return
	}
	n := p.net
	req, ok := p.pendingGet(m.ID)
	if !ok {
		n.releaseMsg(m)
		return
	}
	now := n.sched.Now()
	if p.cache != nil {
		p.cache.Update(m.Key, m.Version, now+m.TTR)
	}
	stale := m.Version < req.truthAtIssue
	if req.pendingReply != nil {
		// A cache-served answer was waiting on this validation.
		reply := req.pendingReply
		req.pendingReply = nil
		stale = reply.Version < req.truthAtIssue
		n.finish(req, n.classify(p, reply), now-req.issuedAt, stale)
		n.admitToCache(p, reply, now)
		n.releaseMsg(reply)
		n.releaseMsg(m)
		return
	}
	n.finish(req, metrics.LocalHit, now-req.issuedAt, stale)
	n.releaseMsg(m)
}
