package node

// Checkpoint support: the serializable state of the network and its
// peers. A snapshot is only taken at a quiescent boundary — every
// pending scheduler event is re-armable, so no frame is on the air and
// no forwarding retry is outstanding. Requests that are merely waiting
// on their (tagged) timeout events may be outstanding; their
// requester-side state is captured here and their timeouts are re-armed
// from the scheduler snapshot.

import (
	"fmt"
	"sort"

	"precinct/internal/cache"
	"precinct/internal/radio"
	"precinct/internal/region"
	"precinct/internal/sim"
	"precinct/internal/workload"
)

// SeenEntry is one flood-dedup record: flood ID and expiry time.
type SeenEntry struct {
	ID     uint64
	Expiry float64
}

// PeerState is the serializable state of one peer.
type PeerState struct {
	ID        int
	RegionID  region.ID
	TableIdx  int
	Alive     bool
	NextPrune float64
	NextID    uint64
	Seen      []SeenEntry // sorted by ID
	HasCache  bool
	Cache     cache.CacheState
	Store     []cache.StoredItem
}

// PendingReqState is the serializable requester-side state of one
// outstanding request. Its timeout event is not stored here: the
// scheduler snapshot carries it as a tagged proc, and Rearm reattaches
// it to the deserialized request.
type PendingReqState struct {
	ID            uint64
	Origin        int
	Key           workload.Key
	Size          int
	IssuedAt      float64
	Record        bool
	Phase         int
	RingTTL       int
	ReplicaRank   int
	CachedVersion uint64
	TruthAtIssue  uint64
	HasReply      bool
	Reply         message
}

// NetworkState is the serializable state of the protocol layer: the
// region-table version history, key ground truth, outstanding requests,
// and every peer. Message-ID counters live in each PeerState.
type NetworkState struct {
	Tables   []region.TableState
	Truth    []uint64
	Stats    Stats
	Adaptive AdaptiveStats
	Pending  []PendingReqState // sorted by ID
	Peers    []PeerState
}

// StateSnapshot captures the network at a quiescent boundary. Requests
// waiting on their timeouts are captured; anything else in flight
// (frames, forwarding retries) makes the scheduler non-quiescent, so the
// caller never gets here with one outstanding.
func (n *Network) StateSnapshot() (NetworkState, error) {
	st := NetworkState{
		Tables:   make([]region.TableState, len(n.tables)),
		Truth:    append([]uint64(nil), n.truth...),
		Stats:    n.stats,
		Adaptive: n.adaptive,
		Pending:  make([]PendingReqState, 0, n.PendingRequests()),
		Peers:    make([]PeerState, len(n.peers)),
	}
	for _, req := range n.allPending() {
		ps := PendingReqState{
			ID:            req.id,
			Origin:        int(req.origin),
			Key:           req.key,
			Size:          req.size,
			IssuedAt:      req.issuedAt,
			Record:        req.record,
			Phase:         int(req.phase),
			RingTTL:       req.ringTTL,
			ReplicaRank:   req.replicaRank,
			CachedVersion: req.cachedVersion,
			TruthAtIssue:  req.truthAtIssue,
		}
		if req.pendingReply != nil {
			ps.HasReply = true
			ps.Reply = *req.pendingReply
		}
		st.Pending = append(st.Pending, ps)
	}
	sort.Slice(st.Pending, func(a, b int) bool { return st.Pending[a].ID < st.Pending[b].ID })
	for i, t := range n.tables {
		st.Tables[i] = t.State()
	}
	for i, p := range n.peers {
		ps := PeerState{
			ID:        int(p.id),
			RegionID:  p.regionID,
			TableIdx:  p.tableIdx,
			Alive:     p.Alive(),
			NextPrune: p.nextPrune,
			NextID:    p.nextID,
			Seen:      make([]SeenEntry, 0, p.seenTab.used),
			Store:     p.store.StateSnapshot(),
		}
		p.seenTab.each(func(id uint64, exp float64) {
			ps.Seen = append(ps.Seen, SeenEntry{ID: id, Expiry: exp})
		})
		sort.Slice(ps.Seen, func(a, b int) bool { return ps.Seen[a].ID < ps.Seen[b].ID })
		if p.cache != nil {
			ps.HasCache = true
			ps.Cache = p.cache.StateSnapshot()
		}
		st.Peers[i] = ps
	}
	return st, nil
}

// RestoreState overwrites the network's protocol state from a snapshot.
// The network must be freshly built from the same Scenario (same peer
// count, same cache configuration); the region-table history is rebuilt
// from the snapshot since Separate/Merge may have diverged it arbitrarily
// from the initial partition. It also marks the network started, so a
// later Run does not re-start the drivers — the caller re-arms them from
// the scheduler snapshot via Rearm.
func (n *Network) RestoreState(st NetworkState) error {
	if len(st.Peers) != len(n.peers) {
		return fmt.Errorf("node: snapshot has %d peers, network has %d", len(st.Peers), len(n.peers))
	}
	if len(st.Truth) != len(n.truth) {
		return fmt.Errorf("node: snapshot has %d keys, catalog has %d", len(st.Truth), len(n.truth))
	}
	if len(st.Tables) == 0 {
		return fmt.Errorf("node: snapshot has no region tables")
	}
	tables := make([]*region.Table, len(st.Tables))
	for i, ts := range st.Tables {
		t, err := region.FromState(ts)
		if err != nil {
			return fmt.Errorf("node: table version %d: %w", i, err)
		}
		tables[i] = t
	}
	for i, ps := range st.Peers {
		p := n.peers[i]
		if ps.ID != int(p.id) {
			return fmt.Errorf("node: snapshot peer %d carries ID %d", i, ps.ID)
		}
		if ps.HasCache != (p.cache != nil) {
			return fmt.Errorf("node: snapshot peer %d cache presence (%v) does not match config (%v)",
				i, ps.HasCache, p.cache != nil)
		}
		if ps.TableIdx < 0 || ps.TableIdx >= len(tables) {
			return fmt.Errorf("node: snapshot peer %d references table version %d of %d", i, ps.TableIdx, len(tables))
		}
		for j, se := range ps.Seen {
			// Flood IDs are never zero (newID ORs a counter starting at
			// one), and the snapshot writes them sorted; the SoA seen
			// table additionally relies on the nonzero invariant for its
			// empty-slot sentinel.
			if se.ID == 0 {
				return fmt.Errorf("node: snapshot peer %d carries a zero seen ID", i)
			}
			if j > 0 && ps.Seen[j-1].ID >= se.ID {
				return fmt.Errorf("node: snapshot peer %d seen entries are not sorted by ID", i)
			}
		}
	}
	// All validation passed; now mutate. Nothing below can fail except the
	// per-component restores, which validate before mutating themselves —
	// but to keep "never restore partial state" airtight the caller
	// (internal/checkpoint) discards the whole network on any error.
	n.tables = tables
	n.table = tables[len(tables)-1]
	copy(n.truth, st.Truth)
	n.stats = st.Stats
	n.adaptive = st.Adaptive
	for i, ps := range st.Peers {
		p := n.peers[i]
		p.regionID = ps.RegionID
		p.tableIdx = ps.TableIdx
		n.setAlive(p, ps.Alive)
		p.nextPrune = ps.NextPrune
		p.nextID = ps.NextID
		p.seenTab.init(len(ps.Seen))
		for _, se := range ps.Seen {
			p.seenTab.store(se.ID, se.Expiry)
		}
		if err := p.store.RestoreState(ps.Store); err != nil {
			return fmt.Errorf("node: peer %d store: %w", i, err)
		}
		if p.cache != nil {
			if err := p.cache.RestoreState(ps.Cache); err != nil {
				return fmt.Errorf("node: peer %d cache: %w", i, err)
			}
		}
	}
	for _, p := range n.peers {
		clear(p.pending)
		p.pending = p.pending[:0]
	}
	for i, ps := range st.Pending {
		if ps.Origin < 0 || ps.Origin >= len(n.peers) {
			return fmt.Errorf("node: snapshot pending request %d has unknown origin %d", ps.ID, ps.Origin)
		}
		if ps.Origin != reqOrigin(ps.ID) {
			return fmt.Errorf("node: snapshot pending request %d carries origin %d, ID encodes %d",
				ps.ID, ps.Origin, reqOrigin(ps.ID))
		}
		if ps.Phase < int(phaseRegional) || ps.Phase > int(phaseFlood) {
			return fmt.Errorf("node: snapshot pending request %d has unknown phase %d", ps.ID, ps.Phase)
		}
		if ps.ReplicaRank < 0 || ps.ReplicaRank > region.MaxReplicaRank {
			return fmt.Errorf("node: snapshot pending request %d has replica rank %d outside [0, %d]",
				ps.ID, ps.ReplicaRank, region.MaxReplicaRank)
		}
		if _, dup := n.peers[ps.Origin].pendingGet(ps.ID); dup {
			return fmt.Errorf("node: snapshot carries pending request %d twice", ps.ID)
		}
		if i > 0 && st.Pending[i-1].ID >= ps.ID {
			return fmt.Errorf("node: snapshot pending requests are not sorted by ID")
		}
		req := &pendingReq{
			id:            ps.ID,
			origin:        radio.NodeID(ps.Origin),
			key:           ps.Key,
			size:          ps.Size,
			issuedAt:      ps.IssuedAt,
			record:        ps.Record,
			phase:         reqPhase(ps.Phase),
			ringTTL:       ps.RingTTL,
			replicaRank:   ps.ReplicaRank,
			cachedVersion: ps.CachedVersion,
			truthAtIssue:  ps.TruthAtIssue,
		}
		if ps.HasReply {
			reply := ps.Reply
			// Checkpoints never serialize pool state (refs/released are
			// unexported); restore the stash's single owned reference.
			reply.refs = 1
			reply.released = false
			req.pendingReply = &reply
		}
		origin := n.peers[ps.Origin]
		origin.pending = append(origin.pending, req)
	}
	n.started = true
	return nil
}

// allPending returns every peer's outstanding requests (unordered; the
// snapshot sorts them by ID afterwards).
func (n *Network) allPending() []*pendingReq {
	out := make([]*pendingReq, 0, n.PendingRequests())
	for _, p := range n.peers {
		out = append(out, p.pending...)
	}
	return out
}

// Rearm re-registers one node-layer recurring process from a scheduler
// snapshot. Unknown kinds (or kinds whose prerequisites this build lacks,
// e.g. a request process without a workload generator) are errors: the
// restored run would silently diverge from the captured one.
func (n *Network) Rearm(p sim.Proc, at float64) error {
	switch p.Kind {
	case procRequest:
		if n.src == nil {
			return fmt.Errorf("node: snapshot arms a request process but no workload source is configured")
		}
		if p.Owner < 0 || p.Owner >= len(n.peers) {
			return fmt.Errorf("node: request process for unknown peer %d", p.Owner)
		}
		n.peers[p.Owner].armRequest(at)
	case procUpdate:
		if n.src == nil || !n.src.UpdatesEnabled() {
			return fmt.Errorf("node: snapshot arms an update process but updates are not configured")
		}
		if p.Owner < 0 || p.Owner >= len(n.peers) {
			return fmt.Errorf("node: update process for unknown peer %d", p.Owner)
		}
		n.peers[p.Owner].armUpdate(at)
	case procMobility:
		if p.Owner < 0 || p.Owner >= len(n.peers) {
			return fmt.Errorf("node: mobility process for unknown peer %d", p.Owner)
		}
		n.peers[p.Owner].armMobilityCheck(at)
	case procAdaptive:
		if !n.cfg.Adaptive.Enabled {
			return fmt.Errorf("node: snapshot arms the adaptive controller but it is not configured")
		}
		n.armAdaptive(at)
	case procMeterReset:
		if n.meter == nil {
			return fmt.Errorf("node: snapshot arms a meter reset but no meter is configured")
		}
		n.armMeterReset(at)
	case procReqTimeout:
		id := uint64(p.Owner)
		origin := reqOrigin(id)
		if origin < 0 || origin >= len(n.peers) {
			return fmt.Errorf("node: snapshot arms a timeout for request %d with unknown origin %d", p.Owner, origin)
		}
		req, ok := n.peers[origin].pendingGet(id)
		if !ok {
			return fmt.Errorf("node: snapshot arms a timeout for unknown pending request %d", p.Owner)
		}
		n.armReqTimeout(req, at)
	default:
		return fmt.Errorf("node: unknown process kind %q", p.Kind)
	}
	return nil
}
