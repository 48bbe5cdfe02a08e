// Spatial neighbor index and position epoch cache.
//
// Every GPSR hop, regional flood and broadcast funnels through
// Channel.Neighbors, which the seed implementation served with a full
// O(N) scan that recomputed every node's mobility position per call — a
// single regional flood was O(N²) position math. This file replaces the
// scan with three cooperating structures:
//
//   - A position epoch cache: a node's position is computed at most once
//     per (node, event-time) pair and reused by every Neighbors /
//     Broadcast / Unicast / routing call that fires at the same
//     simulation instant. Invalidation is lazy — bumping a single epoch
//     counter when the clock advances — so it costs nothing per event.
//
//   - A uniform grid over node positions in CSR layout: cell occupants
//     live grouped in one flat array (grid.nodes) delimited by
//     grid.cellStart, indexed densely by cell coordinate — no per-cell
//     allocations, no map lookups. Beside each slot of that array sits a
//     64-byte record (grid.recs) holding what a query needs to know of
//     the node in it: its snapshot position in float32 and the mobility
//     leg it is on (mobility.Leg), from which its position at any later
//     instant of that leg is one multiply-add per axis.
//
//   - A candidate list per node (grid.lists, over one arena reused across
//     rebuilds): on a node's first query after a rebuild, the cell rows
//     around it are walked once and every slot that could come within
//     range of it before the next rebuild is listed, sorted by NodeID.
//     Every later query of that node reads its list, one record per
//     candidate, and emits in list order: no row arithmetic, no sort.
//
// Mobility makes the grid stale the moment it is built. Rather than
// rebuilding per event, the index exploits the mobility model's speed
// bound (mobility.Model.MaxSpeed): a node can have drifted at most
// maxSpeed·age meters since the snapshot. The grid is rebuilt once that
// drift would exceed a slack of Range/16 (slackDivisor), so until then
// every node — querier and candidate alike — is within slack of where it
// was. A list holds the slots within Range + 2·(slack + snapGuard +
// snapSlack) of its node when it was built, which therefore contains
// every node that can be in range of it before the next rebuild. A query
// first tests a candidate's snapshot position against Range + drift
// (plus snapGuard and snapSlack, which cover the rounding): one further
// than that cannot be in range now and costs one compare. The few that
// remain get their exact position from the record's leg while it lasts —
// bit for bit what the model would answer, since the model computes it
// with the same mobility.Leg.At — and from the epoch cache or the model
// once it has ended; range and liveness decide.
//
// The grid indexes true positions only. Beacon (observed) positions are
// not indexed: the time-driven beacon refresh is an O(N) pass over every
// node anyway, so a beaconed query tests each observed position inside
// that pass (Channel.appendObserved).
//
// The same snapshot answers rectangle queries (AppendInRect: which nodes
// are inside this region's bounds right now), which is how the node
// layer finds a region's custodian without testing every peer.
//
// Determinism contract: Neighbors returns exactly the nodes a test of
// every node against the range returns, in ascending NodeID order
// (order_test.go holds it to that scan). The index asks the mobility
// model only about candidates whose leg has ended, which is sound
// because positions are anchored (mobility.Model): what a node's
// position is at t does not depend on who was asked before.
package radio

import (
	"math"
	"math/bits"

	"precinct/internal/geo"
	"precinct/internal/mobility"
)

// maxGridCells bounds the dense cell array. When node spread would need
// more cells, the index cell size doubles until it fits — coarser cells
// only add candidates, never lose them.
const maxGridCells = 1 << 20

// grid is the uniform spatial index in CSR layout.
type grid struct {
	cell     float64 // index cell side; starts at Range/2, doubles if spread demands
	invCell  float64
	rng      float64 // radio range, meters
	slack    float64 // rebuild once drift exceeds this (Range/slackDivisor)
	maxSpeed float64 // the mobility model's speed bound, m/s

	// Dense cell addressing: cell (cx, cy) maps to row-major index
	// (cy-minCy)*w + (cx-minCx); cells outside the [min, min+w/h) box
	// are empty by construction.
	minCx, minCy int32
	w, h         int32

	// CSR storage: nodes holds all node indices grouped by cell;
	// cell k's occupants are nodes[cellStart[k]:cellStart[k+1]].
	// Cell membership is implicitly addressed: a node's cell is always
	// computed from its epoch-cached position (posCache), never stored
	// per node — the rebuild's counting sort recomputes it.
	cellStart []int32
	nodes     []int32
	// recs is slot-parallel to nodes: recs[s] describes node nodes[s]
	// from builtAt on. Nil until the first neighbor query (see
	// allocRecords): building a scenario asks only rectangle queries,
	// which read positions through the epoch cache.
	recs []slotRec
	// snapSlack bounds how far a record's float32 position can lie from
	// the position it rounds, for the coordinates of the current build.
	snapSlack float64

	// lists[i] names node i's candidate list, a run of slots in arena;
	// it is current iff its gen equals gen, which every rebuild advances.
	// The arena is emptied (not freed) at each rebuild.
	lists []nodeList
	arena []int32
	gen   uint32
	// keys and deal are the scratch a list is sorted in (see byNode),
	// sized by the longest list built.
	keys, deal []uint64

	builtAt float64
	built   bool
	drift   float64 // staleness bound of the current snapshot's records, meters
}

// slotRec is one slot's record: exactly one 64-byte cache line, all a
// query reads of a candidate.
type slotRec struct {
	snap snapPos      // position at builtAt, rounded to float32
	leg  mobility.Leg // the trajectory from builtAt on, while leg.Until lasts
}

// snapPos is a snapshot position rounded to float32.
type snapPos struct{ x, y float32 }

// nodeList locates one node's candidate list in the arena.
type nodeList struct {
	start, n int32
	gen      uint32
}

func newGrid(n int, rng, maxSpeed float64) *grid {
	// Half-range cells keep the candidate-to-neighbor overcount low: the
	// cells intersecting the query disk hug it much tighter than
	// full-range cells would, at the price of a few more (dense, cheap)
	// cell inspections.
	cell := rng / 2
	return &grid{
		cell:     cell,
		invCell:  1 / cell,
		rng:      rng,
		slack:    rng / slackDivisor,
		maxSpeed: maxSpeed,
		nodes:    make([]int32, n),
	}
}

// slackDivisor sets the snapshot slack, Range/slackDivisor. A list covers
// a disk of radius Range + 2·slack, (1 + 2/slackDivisor)² times the
// neighbor disk: 1.27 here, 2.25 at Range/4. A smaller slack makes every
// query read fewer candidates and the grid rebuild more often (an O(N)
// pass that allocates nothing); Range/16 was the fastest of Range/{4, 6,
// 8, 12, 16} on every bench/ workload (DESIGN.md §8).
const slackDivisor = 16

// snapGuard widens every bound on snapshot positions — the candidate
// lists and the per-query pre-filter — by an absolute margin, in meters.
// The drift bound is exact in real arithmetic; positions are computed in
// float64, whose rounding, at any coordinate a run uses, is many orders
// of magnitude below this, so no bound can drop a node the exact test
// would accept. (The rounding of records to float32 is not that small,
// and has its own margin: grid.snapSlack.)
const snapGuard = 1e-6

// syncEpoch advances the position epoch when the simulation clock has
// moved since the last position query, invalidating every cached
// position in O(1).
func (ch *Channel) syncEpoch() {
	if now := ch.sched.Now(); now != ch.epochAt {
		ch.advanceEpoch()
		ch.epochAt = now
	}
}

// advanceEpoch moves to a fresh position epoch, orphaning every cached
// position. Entries are stamped with the low half of their epoch (half
// the bytes per node); when that wraps, every stamp is forgotten, and the
// value 0, which marks "never computed", is skipped.
func (ch *Channel) advanceEpoch() {
	ch.epoch++
	if uint32(ch.epoch) == 0 {
		clear(ch.posEpoch)
		ch.epoch++
	}
}

// position returns node i's location at the current simulation instant
// through the epoch cache: the mobility model is consulted at most once
// per (node, event-time).
func (ch *Channel) position(i int) geo.Point {
	ch.syncEpoch()
	if ch.posEpoch[i] != uint32(ch.epoch) {
		ch.posCache[i] = ch.mob.Position(i, ch.epochAt)
		ch.posEpoch[i] = uint32(ch.epoch)
	}
	return ch.posCache[i]
}

// allocRecords gives the grid its records, lists and arena, on the first
// neighbor query, and rebuilds the snapshot to fill them. The arena is
// sized for the density that snapshot shows — half as many candidates
// again as a uniform spread would list, which covers the random
// waypoint model's pull toward the center (at paper density a list
// holds 13.2–13.6 candidates, BenchmarkNeighborsScale's candidates/op,
// against the 13.8 of a uniform spread) — so that steady state,
// where the count wanders from one snapshot to the next, does not have
// to grow it; the sort scratch takes twice that share. Past maxPresize
// per node (a crowd where every list holds hundreds) the arena grows as
// lists need it instead of reserving the square of the node count.
func (ch *Channel) allocRecords() {
	g := ch.grid
	n := len(g.nodes)
	g.recs = make([]slotRec, n)
	g.lists = make([]nodeList, n)
	ch.rebuildGrid(ch.sched.Now())
	area := float64(g.w) * float64(g.h) * g.cell * g.cell
	r := g.listRadius()
	per := min(float64(n-1), 1.5*float64(n)*math.Pi*r*r/area, maxPresize)
	g.arena = make([]int32, 0, int(per)*n+64)
	g.keys = make([]uint64, 0, 2*int(per)+64)
	g.deal = make([]uint64, cap(g.keys))
}

// maxPresize caps the candidates per node allocRecords reserves room for.
const maxPresize = 256

// ensureGrid guarantees the snapshot can serve a query: fresh enough
// under the drift bound, rebuilt otherwise. It also records the current
// drift so the query knows its pre-filter radius.
func (ch *Channel) ensureGrid() {
	g := ch.grid
	now := ch.sched.Now()
	if g.built {
		if now == g.builtAt {
			return
		}
		if d := g.maxSpeed * (now - g.builtAt); d <= g.slack {
			g.drift = d
			return
		}
	}
	ch.rebuildGrid(now)
}

// rebuildGrid snapshots every node's position into the CSR arrays and
// the records. All storage is reused, so steady-state rebuilds allocate
// nothing.
func (ch *Channel) rebuildGrid(now float64) {
	g := ch.grid
	n := ch.mob.Len()

	// Pass 1: current positions and bounds. Positions land in the epoch
	// cache; cells are never stored per node — pass 2 recomputes them
	// from the cached positions with identical float ops (implicit
	// addressing). Coarsen the cell size until the dense array
	// fits (pathological spreads only; one iteration in practice).
	for {
		minCx, minCy := int32(math.MaxInt32), int32(math.MaxInt32)
		maxCx, maxCy := int32(math.MinInt32), int32(math.MinInt32)
		for i := 0; i < n; i++ {
			p := ch.position(i)
			cx := int32(math.Floor(p.X * g.invCell))
			cy := int32(math.Floor(p.Y * g.invCell))
			minCx, maxCx = min(minCx, cx), max(maxCx, cx)
			minCy, maxCy = min(minCy, cy), max(maxCy, cy)
		}
		w := int64(maxCx) - int64(minCx) + 1
		h := int64(maxCy) - int64(minCy) + 1
		if w*h <= maxGridCells {
			g.minCx, g.minCy = minCx, minCy
			g.w, g.h = int32(w), int32(h)
			// float32 keeps 24 bits: each axis rounds by at most 2^-24
			// of its magnitude, the two together by less than 2^-23 of
			// the largest coordinate in the occupied box.
			far := max(-float64(minCx), float64(maxCx)+1, -float64(minCy), float64(maxCy)+1)
			g.snapSlack = far * g.cell * 0x1p-23
			break
		}
		g.cell *= 2
		g.invCell = 1 / g.cell
	}

	// Pass 2: counting sort into CSR. cellStart[k+1] counts cell k, then
	// prefix sums turn counts into starts. The scatter advances each
	// cell's start as it files a node, leaving cellStart[k] at the cell's
	// end — the next cell's start — so shifting the array up by one slot
	// restores it without a second cursor array.
	cells := int(g.w) * int(g.h)
	if cap(g.cellStart) < cells+1 {
		g.cellStart = make([]int32, cells+1)
	} else {
		g.cellStart = g.cellStart[:cells+1]
		clear(g.cellStart)
	}
	for i := 0; i < n; i++ {
		g.cellStart[g.linIdxAt(ch.posCache[i])+1]++
	}
	for k := 1; k <= cells; k++ {
		g.cellStart[k] += g.cellStart[k-1]
	}
	for i := 0; i < n; i++ {
		p := ch.posCache[i]
		k := g.linIdxAt(p)
		slot := g.cellStart[k]
		g.nodes[slot] = int32(i)
		if g.recs != nil {
			// Pass 1 asked the model about node i at now, so its leg is
			// the one now lies on.
			g.recs[slot] = slotRec{snap: snapPos{float32(p.X), float32(p.Y)}, leg: ch.mob.Leg(i)}
		}
		g.cellStart[k] = slot + 1
	}
	copy(g.cellStart[1:], g.cellStart)
	g.cellStart[0] = 0

	g.arena = g.arena[:0]
	if g.gen++; g.gen == 0 {
		clear(g.lists)
		g.gen = 1
	}
	g.builtAt = now
	g.built = true
	g.drift = 0
}

// linIdxAt maps a position to its cell's dense row-major index —
// implicit addressing: the cell is recomputed from the cached position
// with the same float ops as the bounds pass, never stored per node.
// Only valid for positions inside the current bounds, which holds for
// every snapshot position by construction.
func (g *grid) linIdxAt(p geo.Point) int {
	cx := int32(math.Floor(p.X * g.invCell))
	cy := int32(math.Floor(p.Y * g.invCell))
	return int(cy-g.minCy)*int(g.w) + int(cx-g.minCx)
}

// listRadius is the radius of the disk a candidate list covers around
// its node's position at the list's build: a node in range of the
// querier at a later instant of the snapshot is within Range of it then;
// the querier has moved at most slack since the list was built and the
// candidate at most slack since the snapshot its record holds, which is
// within snapSlack of its float32 position.
func (g *grid) listRadius() float64 {
	return g.rng + 2*(g.slack+snapGuard+g.snapSlack)
}

// candidates returns node id's candidate list, building it first if the
// node has not asked since the last rebuild. self is the node's current
// position.
//
// The list's disk cuts each cell row in one interval (one sqrt per row
// gives its half-width), and a row's cells are adjacent in CSR order,
// so a row is one run of slots. A slot is listed only if its snapshot
// position lies in the disk. Slots are put in node order through keys
// that carry both (see byNode).
func (g *grid) candidates(id NodeID, self geo.Point) []int32 {
	l := &g.lists[id]
	if l.gen == g.gen {
		return g.arena[l.start : l.start+l.n]
	}
	r := g.listRadius()
	r2 := float64(r * r)
	cy0 := max(int32(math.Floor((self.Y-r)*g.invCell)), g.minCy)
	cy1 := min(int32(math.Floor((self.Y+r)*g.invCell)), g.minCy+g.h-1)
	keys, recs, nodes, selfI := g.keys[:0], g.recs, g.nodes, int32(id)
	for cy := cy0; cy <= cy1; cy++ {
		// Half-width of the disk across this row, measured on the row's
		// horizontal line nearest to self. Each product is rounded on
		// its own, here, in r2 and in the range tests, so no target
		// fuses it into a sum.
		dy := self.Y - clamp(self.Y, float64(cy)*g.cell, float64(cy+1)*g.cell)
		hx := math.Sqrt(max(r2-float64(dy*dy), 0))
		cx0 := max(int32(math.Floor((self.X-hx)*g.invCell)), g.minCx)
		cx1 := min(int32(math.Floor((self.X+hx)*g.invCell)), g.minCx+g.w-1)
		if cx0 > cx1 {
			continue
		}
		rowBase := int(cy-g.minCy)*int(g.w) - int(g.minCx)
		end := g.cellStart[rowBase+int(cx1)+1]
		for slot := g.cellStart[rowBase+int(cx0)]; slot < end; slot++ {
			sx, sy := self.X-float64(recs[slot].snap.x), self.Y-float64(recs[slot].snap.y)
			if float64(sx*sx)+float64(sy*sy) > r2 {
				continue
			}
			if i := nodes[slot]; i != selfI {
				keys = append(keys, nodeKey(i, slot))
			}
		}
	}
	g.keys = keys
	g.byNode(keys)
	start := len(g.arena)
	for _, k := range keys {
		g.arena = append(g.arena, int32(uint32(k)))
	}
	*l = nodeList{start: int32(start), n: int32(len(keys)), gen: g.gen}
	return g.arena[start:]
}

// appendNeighbors appends all live nodes within radio range of self
// (excluding id) to buf, sorted by NodeID — the same set, in the same
// order, as the linear reference scan.
//
// A candidate is first tested on its record's snapshot position: only
// one within Range+drift (plus the rounding margins) of the querier can
// be in range now. Its position now is the record's leg while that
// lasts, the epoch cache or the model after.
func (ch *Channel) appendNeighbors(buf []Neighbor, id NodeID, self geo.Point) []Neighbor {
	g := ch.grid
	list := g.candidates(id, self)
	r := ch.cfg.Range + g.drift + snapGuard + g.snapSlack
	r2cand := r * r
	r2 := ch.cfg.Range * ch.cfg.Range

	// Hoisted epoch state: position() would re-check the clock per
	// candidate; one sync up front covers the whole query.
	ch.syncEpoch()
	epoch, now := uint32(ch.epoch), ch.epochAt
	live, recs, nodes := ch.live, g.recs, g.nodes
	for _, slot := range list {
		rec := &recs[slot]
		sx, sy := self.X-float64(rec.snap.x), self.Y-float64(rec.snap.y)
		if float64(sx*sx)+float64(sy*sy) > r2cand {
			continue
		}
		i := nodes[slot]
		var p geo.Point
		if now < rec.leg.Until {
			p = rec.leg.At(now)
		} else {
			if ch.posEpoch[i] != epoch {
				ch.posCache[i] = ch.mob.Position(int(i), now)
				ch.posEpoch[i] = epoch
			}
			p = ch.posCache[i]
		}
		if self.Dist2(p) > r2 || !live[i] {
			continue
		}
		buf = append(buf, Neighbor{ID: NodeID(i), Pos: p})
	}
	return buf
}

// nodeKey packs a node and its slot into one key that sorts by node.
func nodeKey(node, slot int32) uint64 { return uint64(node)<<32 | uint64(uint32(slot)) }

// insertionMax is the most keys byNode hands to insertion sort as they
// are.
const insertionMax = 24

// byNode sorts nodeKeys, that is, ascending by node. The cost depends on
// their number only, never on N.
//
// Keys arrive as a few sorted runs (cells list their occupants in
// ascending order), so an insertion sort moves little. Many more — a list holds twice the neighbors and
// more, and a dense topology lists a hundred or more — cost insertion
// (and any comparison sort: one mispredicted branch per compare) more
// than the rest of the build, so they are first dealt, stably, into 64
// buckets by the high bits of their node. That leaves every entry within
// a bucket's width of its place, and the insertion pass has next to
// nothing left to do.
func (g *grid) byNode(s []uint64) {
	if len(s) > insertionMax {
		shift := 32 + max(bits.Len(uint(len(g.nodes)-1))-6, 0)
		var start [65]int32
		for _, k := range s {
			start[k>>shift+1]++
		}
		for b := 1; b < len(start); b++ {
			start[b] += start[b-1]
		}
		if cap(g.deal) < len(s) {
			g.deal = make([]uint64, 2*len(s))
		}
		dealt := g.deal[:len(s)]
		for _, k := range s {
			dealt[start[k>>shift]] = k
			start[k>>shift]++
		}
		copy(s, dealt)
	}
	for i := 1; i < len(s); i++ {
		k := s[i]
		j := i
		for ; j > 0 && s[j-1] > k; j-- {
			s[j] = s[j-1]
		}
		s[j] = k
	}
}

// AppendInRect appends to buf, in ascending NodeID order, every node —
// live or not — whose current position lies inside the closed rectangle
// r.
//
// Candidates come from the cells intersecting r grown by the snapshot's
// drift bound (a node inside r now was within drift of it at the
// snapshot); membership is decided on current epoch-cached positions, so
// the result is exactly what testing every node would give, in the same
// order (byNode, as for a candidate list).
func (ch *Channel) AppendInRect(buf []NodeID, r geo.Rect) []NodeID {
	ch.ensureGrid()
	g := ch.grid
	// Clamp to the occupied box in float: r comes from a region table and
	// may lie far outside anything an int32 cell coordinate can hold.
	cx0 := math.Max(math.Floor((r.Min.X-g.drift)*g.invCell), float64(g.minCx))
	cx1 := math.Min(math.Floor((r.Max.X+g.drift)*g.invCell), float64(g.minCx+g.w-1))
	cy0 := math.Max(math.Floor((r.Min.Y-g.drift)*g.invCell), float64(g.minCy))
	cy1 := math.Min(math.Floor((r.Max.Y+g.drift)*g.invCell), float64(g.minCy+g.h-1))
	if !(cx0 <= cx1 && cy0 <= cy1) {
		return buf
	}

	ids := ch.rectBuf[:0]
	for cy := int32(cy0); cy <= int32(cy1); cy++ {
		rowBase := int(cy-g.minCy) * int(g.w)
		first := g.cellStart[rowBase+int(int32(cx0)-g.minCx)]
		last := g.cellStart[rowBase+int(int32(cx1)-g.minCx)+1]
		// A row's cells are adjacent in CSR order: one run of occupants.
		for _, i := range g.nodes[first:last] {
			if r.Contains(ch.position(int(i))) {
				ids = append(ids, nodeKey(i, 0))
			}
		}
	}
	ch.rectBuf = ids
	g.byNode(ids)
	for _, k := range ids {
		buf = append(buf, NodeID(k>>32))
	}
	return buf
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
