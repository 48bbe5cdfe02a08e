package node

// Struct-of-arrays peer containers (DESIGN.md section 14): flood dedup
// lives in one record per flood wave (not one table per peer),
// outstanding requests live in a small slice searched linearly (a peer
// rarely has more than a handful), and request boxes recycle through a
// per-network freelist.

// floodRec is one flood wave's duplicate suppression in one Network
// replica: which of the replica's peers have marked the wave's dedup ID,
// and until when. Every dedup ID is a fresh newID that exactly one birth
// site marks, through the message it starts; every copy of that message
// carries a reference to the record, so a receiver finds it without a
// lookup. A mark counts while its expiry is strictly later than now;
// marking again after expiry appends a newer mark.
//
// The expiries are run-length encoded: a broadcast's receivers all mark
// at one instant, so a record of some 26 marks holds three or four
// distinct expiries. The replica's clock never runs backwards, so the
// expiries never decrease in marking order, and each group covers the
// marks from the previous group's end up to its own.
type floodRec struct {
	id  uint64
	gen uint32 // bumped on recycling: a reference of an older generation is stale
	// latest is the last mark's expiry: once now reaches it, no mark
	// counts and the record may be recycled.
	latest float64
	nodes  []int32 // marking peers, in marking order
	groups []markGroup
}

// markGroup is a run of marks made at one instant: nodes[prev.end:end]
// of its record, all expiring at exp.
type markGroup struct {
	exp float64
	end int32
}

// seen reports whether node holds a mark that has not expired.
func (r *floodRec) seen(node int32, now float64) bool {
	if r.latest <= now {
		return false
	}
	// Newest first: a node's newest mark is its latest, and a duplicate
	// arrives soon after its receiver marked.
	for i := len(r.nodes) - 1; i >= 0; i-- {
		if r.nodes[i] == node {
			// Before the first group's expiry every mark counts.
			return r.groups[0].exp > now || r.expOf(int32(i)) > now
		}
	}
	return false
}

// expOf returns the expiry of mark i. seen asks only in the window where
// a record's oldest marks have expired and its newest have not.
func (r *floodRec) expOf(i int32) float64 {
	g := 0
	for r.groups[g].end <= i {
		g++
	}
	return r.groups[g].exp
}

// mark records node's mark, reporting whether it already held one that
// has not expired (then nothing changes).
func (r *floodRec) mark(node int32, now float64) bool {
	if r.seen(node, now) {
		return true
	}
	exp := now + seenRetention
	r.nodes = append(r.nodes, node)
	if last := len(r.groups) - 1; last >= 0 && r.groups[last].exp == exp {
		r.groups[last].end++
	} else {
		r.groups = append(r.groups, markGroup{exp: exp, end: int32(len(r.nodes))})
	}
	r.latest = exp
	return false
}

// floodIndex holds one replica's flood records: by dedup ID, for copies
// that arrive without a valid reference (a payload cloned across shards,
// a reference outlived by its record), and in birth order for recycling.
type floodIndex struct {
	byID  map[uint64]*floodRec
	order []*floodRec // oldest first
}

// find returns the record of m's dedup ID, or nil when this replica has
// none, and leaves m referencing what it found.
func (f *floodIndex) find(m *message, id uint64) *floodRec {
	if r := m.rec; r != nil && r.gen == m.recGen {
		return r
	}
	r := f.byID[id]
	if r != nil {
		m.rec, m.recGen = r, r.gen
	}
	return r
}

// heard reports whether node holds a mark of m's flood that has not
// expired: the read half of markSeen, for the duplicate fast path.
func (f *floodIndex) heard(m *message, id uint64, node int32, now float64) bool {
	r := f.find(m, id)
	return r != nil && r.seen(node, now)
}

// open starts the record of a dedup ID that has none and points m at it.
// It recycles the oldest record once every mark in it has expired: that
// record answered "not seen" for every peer, and so does the empty one
// that replaces it if its ID comes round again.
func (f *floodIndex) open(m *message, id uint64, now float64) *floodRec {
	var r *floodRec
	if len(f.order) > 0 && f.order[0].latest <= now {
		r = f.order[0]
		f.order[0] = nil
		f.order = f.order[1:]
		delete(f.byID, r.id)
		*r = floodRec{gen: r.gen + 1, nodes: r.nodes[:0], groups: r.groups[:0]}
	} else {
		r = &floodRec{}
	}
	r.id = id
	if f.byID == nil {
		f.byID = make(map[uint64]*floodRec)
	}
	f.byID[id] = r
	f.order = append(f.order, r)
	m.rec, m.recGen = r, r.gen
	return r
}

// pendingGet returns the outstanding request with the given ID.
func (p *Peer) pendingGet(id uint64) (*pendingReq, bool) {
	for _, req := range p.pending {
		if req.id == id {
			return req, true
		}
	}
	return nil, false
}

// pendingDelete removes an outstanding request by ID (no-op when
// absent) by swap-delete.
func (p *Peer) pendingDelete(id uint64) {
	for i, req := range p.pending {
		if req.id == id {
			last := len(p.pending) - 1
			p.pending[i] = p.pending[last]
			p.pending[last] = nil
			p.pending = p.pending[:last]
			return
		}
	}
}

// acquireReq takes a request box for RequestFrom, recycled through the
// network's freelist.
func (n *Network) acquireReq() *pendingReq {
	if last := len(n.reqFree) - 1; last >= 0 {
		req := n.reqFree[last]
		n.reqFree[last] = nil
		n.reqFree = n.reqFree[:last]
		return req
	}
	return &pendingReq{}
}

// releaseReq returns a finished request's box to the freelist. Safe at
// the end of finish/fail only: finish cancels any armed timeout, fail
// runs from the timeout itself, and the timeout closure captures the
// request ID by value — a stale fire after recycling misses the pending
// lookup and no-ops.
func (n *Network) releaseReq(req *pendingReq) {
	if req.pendingReply != nil {
		// A stashed answer dies with its request: a dead origin's
		// timeout, or an answer that needed no validation finishing the
		// request while the stash waited on its poll.
		n.releaseMsg(req.pendingReply)
	}
	*req = pendingReq{}
	n.reqFree = append(n.reqFree, req)
}
