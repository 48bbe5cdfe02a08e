package node

// Struct-of-arrays peer containers (DESIGN.md section 14): flood dedup
// lives in an open-addressed linear-probing table (two flat slices, no
// per-entry boxes), outstanding requests live in a small slice searched
// linearly (a peer rarely has more than a handful), and request boxes
// recycle through a per-network freelist.

// seenTable is an open-addressed linear-probing hash table from flood
// ID to expiry time. Message IDs are never zero (newID ORs a counter
// that starts at one), so zero keys mark empty slots and the table
// needs no tombstones — entries are only removed wholesale at prune
// time by rehashing the survivors.
type seenTable struct {
	keys []uint64
	exps []float64
	used int
	// shift maps a mixed 64-bit hash to a slot index: the table size is
	// a power of two, and the top bits of the multiplicative hash are
	// the well-mixed ones.
	shift uint
}

// seenMinSlots is the smallest table allocation (slots, power of two).
const seenMinSlots = 16

// hashID mixes a flood ID multiplicatively (Fibonacci hashing); the
// high bits of the product index the table.
func hashID(id uint64) uint64 { return id * 0x9E3779B97F4A7C15 }

// init sizes the table for about n entries (load factor <= 0.5 at n).
func (t *seenTable) init(n int) {
	size := seenMinSlots
	for size < n*2 {
		size *= 2
	}
	t.keys = make([]uint64, size)
	t.exps = make([]float64, size)
	t.used = 0
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
}

// lookup returns the expiry recorded for id.
func (t *seenTable) lookup(id uint64) (float64, bool) {
	if t.used == 0 {
		return 0, false
	}
	mask := uint64(len(t.keys) - 1)
	for i := hashID(id) >> t.shift; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case id:
			return t.exps[i], true
		case 0:
			return 0, false
		}
	}
}

// store inserts or overwrites the expiry for id (id must be nonzero).
func (t *seenTable) store(id uint64, exp float64) {
	if len(t.keys) == 0 || t.used*4 >= len(t.keys)*3 {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	for i := hashID(id) >> t.shift; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case id:
			t.exps[i] = exp
			return
		case 0:
			t.keys[i] = id
			t.exps[i] = exp
			t.used++
			return
		}
	}
}

// grow doubles the table and rehashes every entry.
func (t *seenTable) grow() {
	old := *t
	t.init(len(old.keys))
	for i, k := range old.keys {
		if k != 0 {
			t.store(k, old.exps[i])
		}
	}
}

// prune drops every entry whose expiry is at or before now, rehashing
// the survivors into a right-sized table: strictly-later expiries
// survive.
func (t *seenTable) prune(now float64) {
	live := 0
	for i, k := range t.keys {
		if k != 0 && t.exps[i] > now {
			live++
		}
	}
	old := *t
	t.init(live)
	for i, k := range old.keys {
		if k != 0 && old.exps[i] > now {
			t.store(k, old.exps[i])
		}
	}
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
	*req = pendingReq{}
	n.reqFree = append(n.reqFree, req)
}
