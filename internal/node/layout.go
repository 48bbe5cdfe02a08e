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
// lookup.
//
// The record has one expiry, latest: seenRetention after its newest
// mark. Its marks count while latest is strictly later than now, and the
// first mark at or after latest empties the record before it appends,
// so a wave heard again after that starts afresh. A per-mark expiry
// would answer differently only where one wave's copies arrive more
// than seenRetention apart, and a TTL-bounded broadcast dies out within
// seconds.
type floodRec struct {
	id  uint64
	gen uint32 // bumped on recycling: a reference of an older generation is stale
	// refs counts the message boxes that reference the record, in a
	// counted index (see floodIndex).
	refs   int32
	latest float64
	nodes  []int32 // marking peers, in marking order
}

// seen reports whether node has marked the wave and latest is still
// ahead of now.
func (r *floodRec) seen(node int32, now float64) bool {
	if r.latest <= now {
		return false
	}
	// Newest first: a duplicate arrives soon after its receiver marked.
	for i := len(r.nodes) - 1; i >= 0; i-- {
		if r.nodes[i] == node {
			return true
		}
	}
	return false
}

// mark records node's mark, reporting whether it had already seen the
// wave (then nothing changes).
func (r *floodRec) mark(node int32, now float64) bool {
	if r.seen(node, now) {
		return true
	}
	if r.latest <= now {
		r.nodes = r.nodes[:0]
	}
	r.nodes = append(r.nodes, node)
	r.latest = now + seenRetention
	return false
}

// recycle empties r for a new dedup ID, keeping its slice, and bumps its
// generation so that references to the old wave go stale.
func (r *floodRec) recycle() {
	*r = floodRec{gen: r.gen + 1, nodes: r.nodes[:0]}
}

// floodIndex holds one replica's flood records. A sequential Network's
// index is counted: a record's refs are the message boxes that point at
// it, and it goes on the freelist when the last of them is released, for
// then no message can consult it again (its ID was drawn at one birth
// site, and every copy of the birth message carries the reference). A
// shard replica's index is timed, because a payload cloned across shards
// carries no reference: it finds records by dedup ID (byID) and recycles
// the oldest, in birth order, once its latest has passed.
type floodIndex struct {
	timed bool
	// free holds the counted index's released records, newest last.
	free []*floodRec
	// built counts the records the index has allocated. A counted index
	// takes its freelist first, so this is also its peak number in use.
	built int

	byID  map[uint64]*floodRec
	order []*floodRec // oldest first
}

// find returns the record of m's dedup ID, or nil when this replica has
// none, and leaves m referencing what it found. In a counted index a
// message without a reference is at its birth site, and one whose
// reference is stale is a lifecycle bug.
func (f *floodIndex) find(m *message, id uint64) *floodRec {
	r := m.rec
	if r != nil && r.gen == m.recGen {
		return r
	}
	if !f.timed {
		if r != nil {
			panic("node: message references a recycled flood record")
		}
		return nil
	}
	r = f.byID[id]
	if r != nil {
		m.rec, m.recGen = r, r.gen
	}
	return r
}

// heard reports whether node has seen m's flood: the read half of
// markSeen, for the duplicate fast path.
func (f *floodIndex) heard(m *message, id uint64, node int32, now float64) bool {
	r := f.find(m, id)
	return r != nil && r.seen(node, now)
}

// open starts the record of a dedup ID that has none and points m at it,
// which holds the record's first reference in a counted index.
func (f *floodIndex) open(m *message, id uint64, now float64) *floodRec {
	if f.timed {
		return f.openTimed(m, id, now)
	}
	var r *floodRec
	if last := len(f.free) - 1; last >= 0 {
		r = f.free[last]
		f.free[last] = nil
		f.free = f.free[:last]
	} else {
		r = &floodRec{}
		f.built++
	}
	r.id, r.refs = id, 1
	m.rec, m.recGen = r, r.gen
	return r
}

// openTimed is open for a timed index. It recycles the oldest record
// once its latest has passed: that record answered "not seen" for every
// peer, and so does the empty one that replaces it if its ID comes round
// again.
func (f *floodIndex) openTimed(m *message, id uint64, now float64) *floodRec {
	var r *floodRec
	if len(f.order) > 0 && f.order[0].latest <= now {
		r = f.order[0]
		f.order[0] = nil
		f.order = f.order[1:]
		delete(f.byID, r.id)
		r.recycle()
	} else {
		r = &floodRec{}
		f.built++
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

// retain counts a new box's reference to r: a broadcast receiver's
// header copy of the shared payload.
func (f *floodIndex) retain(r *floodRec) {
	if r != nil && !f.timed {
		r.refs++
	}
}

// release drops the reference of a box that held r at generation gen
// and was just freed, recycling r onto the freelist with its last
// reference. A stale reference or one too many is a lifecycle bug, as a
// double release of the box is.
func (f *floodIndex) release(r *floodRec, gen uint32) {
	if f.timed {
		return
	}
	if r.gen != gen || r.refs < 1 {
		panic("node: flood record released with no outstanding reference")
	}
	r.refs--
	if r.refs == 0 {
		r.recycle()
		f.free = append(f.free, r)
	}
}

// inUse returns the number of records the index holds off its freelist:
// in a timed index, every record it has built.
func (f *floodIndex) inUse() int { return f.built - len(f.free) }

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
