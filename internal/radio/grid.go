// Spatial neighbor index and position epoch cache.
//
// Every GPSR hop, regional flood and broadcast funnels through
// Channel.Neighbors, which the seed implementation served with a full
// O(N) scan that recomputed every node's mobility position per call — a
// single regional flood was O(N²) position math. This file replaces the
// scan with two cooperating structures:
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
//     allocations, no map lookups in the hot loop. A neighbor query
//     inspects only the cells intersecting the query disk instead of all
//     N nodes, one run of slots per cell row.
//
// Mobility makes the grid stale the moment it is built. Rather than
// rebuilding per event, the index exploits the mobility model's speed
// bound (mobility.Model.MaxSpeed): a node can have drifted at most
// maxSpeed·age meters since the snapshot, so a query with radius
// Range+drift over snapshot positions provably includes every true
// neighbor. The rebuild keeps each node's snapshot position next to its
// slot (grid.snap, in float32), so the query applies that radius per
// candidate, not just per cell, before it looks at anything else: a
// candidate further than Range+drift (plus snapGuard and snapSlack,
// which cover the rounding) from the querier at the snapshot cannot be
// in range now and costs one load and a compare. Exact membership is
// then decided with current (epoch-cached) positions of the few that
// remain. The grid is rebuilt only when drift exceeds a slack of
// Range/4. With beaconing enabled the grid indexes *observed* (beacon)
// positions, which change only at beacon refreshes; a refresh that moves
// a node across a cell boundary invalidates the snapshot, so the next
// query rebuilds — batched beacon refreshes cost one rebuild. A refresh
// that stays inside the cell moves the node with no bound the snapshot
// knows of, so beaconed grids keep no snapshot positions and skip the
// per-candidate pre-filter.
//
// Matches are node indices collected in a scratch list and put in
// ascending order by sortMatches — an insertion sort for the dozen a
// query finds at paper density — so the emit costs what the match set
// holds and nothing in a query is sized by N.
//
// The same snapshot answers rectangle queries (AppendInRect: which nodes
// are inside this region's bounds right now), which is how the node
// layer finds a region's custodian without testing every peer.
//
// Determinism contract: Neighbors returns exactly the nodes a test of
// every node against the range returns, in ascending NodeID order
// (order_test.go holds it to that scan). The index asks the mobility
// model only about candidates that pass the pre-filter, which is sound
// because positions are anchored (mobility.Model): what a node's
// position is at t does not depend on who was asked before.
package radio

import (
	"math"
	"math/bits"

	"precinct/internal/geo"
)

// cellKey packs a cell's integer coordinates into one comparable value
// (used to detect cell crossings on beacon refreshes).
type cellKey int64

func keyOf(cx, cy int32) cellKey { return cellKey(int64(cx)<<32 | int64(uint32(cy))) }

// maxGridCells bounds the dense cell array. When node spread would need
// more cells, the index cell size doubles until it fits — coarser cells
// only add candidates, never lose them.
const maxGridCells = 1 << 20

// grid is the uniform spatial index in CSR layout.
type grid struct {
	cell     float64 // index cell side; starts at Range/2, doubles if spread demands
	invCell  float64
	slack    float64 // rebuild once drift exceeds this (Range/4)
	maxSpeed float64 // the mobility model's speed bound, m/s

	// Dense cell addressing: cell (cx, cy) maps to row-major index
	// (cy-minCy)*w + (cx-minCx); cells outside the [min, min+w/h) box
	// are empty by construction.
	minCx, minCy int32
	w, h         int32

	// CSR storage: nodes holds all node indices grouped by cell;
	// cell k's occupants are nodes[cellStart[k]:cellStart[k+1]].
	// Cell membership is implicitly addressed: a node's cell is always
	// computed from its cached indexed position (beaconPos or posCache),
	// never stored per node — the rebuild's counting sort recomputes it,
	// so the index carries no per-node bookkeeping array at all.
	cellStart []int32
	nodes     []int32
	// snap is slot-parallel to nodes: snap[s] is the position nodes[s]
	// was filed under at builtAt. A node has moved at most drift meters
	// since, so the cell walk rejects far candidates on this array alone,
	// without touching the epoch cache or the mobility model. It only
	// ever rejects, so float32 will do — half the bytes to stream through
	// — as long as the rounding is allowed for: snapSlack bounds how far
	// an entry can lie from the position it rounds, for the coordinates
	// of the current build. Nil under beaconing, where observed
	// positions move inside a cell between rebuilds with no drift bound.
	snap      []snapPos
	snapSlack float64

	builtAt float64
	built   bool
	drift   float64 // staleness bound of the current snapshot, meters
}

func newGrid(n int, rng, maxSpeed float64, beacon bool) *grid {
	// Half-range cells keep the candidate-to-neighbor overcount low: the
	// cells intersecting the query disk hug it much tighter than
	// full-range cells would, at the price of a few more (dense, cheap)
	// cell inspections.
	cell := rng / 2
	g := &grid{
		cell:     cell,
		invCell:  1 / cell,
		slack:    rng / 4,
		maxSpeed: maxSpeed,
		nodes:    make([]int32, n),
	}
	if !beacon {
		g.snap = make([]snapPos, n)
	}
	return g
}

// snapPos is a snapshot position rounded to float32.
type snapPos struct{ x, y float32 }

// snapGuard widens the candidate radius — the cell rows a query walks
// and the snapshot pre-filter — by an absolute margin, in meters. The
// drift bound is exact in real arithmetic; positions are computed in
// float64, whose rounding, at any coordinate a run uses, is many orders
// of magnitude below this, so the pre-filter can never reject a node the
// exact test would accept. (The rounding of grid.snap to float32 is not
// that small, and has its own margin: grid.snapSlack.)
const snapGuard = 1e-6

func (g *grid) cellAt(p geo.Point) cellKey {
	return keyOf(int32(math.Floor(p.X*g.invCell)), int32(math.Floor(p.Y*g.invCell)))
}

// noteMove records that a node's indexed (observed) position changed
// from old to new. Crossing a cell boundary invalidates the snapshot;
// the next query rebuilds. The old cell is computed from the old
// position rather than looked up — while the snapshot is valid, a
// node's indexed position has only ever changed through noteMove, so
// cellAt(old) is exactly the cell the snapshot filed the node under.
// Beacon refreshes arrive in batches, so a crossing costs one rebuild
// per batch, not per node.
func (g *grid) noteMove(old, new geo.Point) {
	if !g.built {
		return
	}
	if g.cellAt(new) != g.cellAt(old) {
		g.built = false
	}
}

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

// ensureGrid guarantees the snapshot can serve a query: fresh enough
// under the drift bound, rebuilt otherwise. It also records the current
// drift so the query knows its search radius.
func (ch *Channel) ensureGrid() {
	g := ch.grid
	now := ch.sched.Now()
	if g.built {
		if now == g.builtAt {
			return
		}
		if ch.beaconAt != nil {
			// Observed positions change only through refreshBeacon,
			// which invalidates on cell crossings: never silently stale.
			g.drift = 0
			return
		}
		if d := g.maxSpeed * (now - g.builtAt); d <= g.slack {
			g.drift = d
			return
		}
	}
	ch.rebuildGrid(now)
}

// rebuildGrid snapshots every node's indexed position into the CSR
// arrays. All storage is reused, so steady-state rebuilds allocate
// nothing.
func (ch *Channel) rebuildGrid(now float64) {
	g := ch.grid
	n := ch.mob.Len()
	beacon := ch.beaconAt != nil

	// Pass 1: current indexed positions and bounds. Positions land in the
	// epoch/beacon caches; cells are never stored per node — pass 2
	// recomputes them from the cached positions with identical float ops
	// (implicit addressing). Coarsen the cell size until the dense array
	// fits (pathological spreads only; one iteration in practice).
	for {
		minCx, minCy := int32(math.MaxInt32), int32(math.MaxInt32)
		maxCx, maxCy := int32(math.MinInt32), int32(math.MinInt32)
		for i := 0; i < n; i++ {
			var p geo.Point
			if beacon {
				p = ch.beaconPos[i]
			} else {
				p = ch.position(i)
			}
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
			if g.snap != nil {
				// float32 keeps 24 bits: each axis rounds by at most
				// 2^-24 of its magnitude, the two together by less than
				// 2^-23 of the largest coordinate in the occupied box.
				far := max(-float64(minCx), float64(maxCx)+1, -float64(minCy), float64(maxCy)+1)
				g.snapSlack = far * g.cell * 0x1p-23
			}
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
		g.cellStart[g.linIdxAt(ch.indexedPos(i, beacon))+1]++
	}
	for k := 1; k <= cells; k++ {
		g.cellStart[k] += g.cellStart[k-1]
	}
	for i := 0; i < n; i++ {
		p := ch.indexedPos(i, beacon)
		k := g.linIdxAt(p)
		slot := g.cellStart[k]
		g.nodes[slot] = int32(i)
		if g.snap != nil {
			g.snap[slot] = snapPos{float32(p.X), float32(p.Y)}
		}
		g.cellStart[k] = slot + 1
	}
	copy(g.cellStart[1:], g.cellStart)
	g.cellStart[0] = 0

	g.builtAt = now
	g.built = true
	g.drift = 0
}

// indexedPos returns node i's already-cached indexed position: the
// beacon estimate when beaconing is on, the epoch-cached true position
// otherwise (pass 1 of the rebuild has just populated it at this
// instant).
func (ch *Channel) indexedPos(i int, beacon bool) geo.Point {
	if beacon {
		return ch.beaconPos[i]
	}
	return ch.posCache[i]
}

// linIdxAt maps a position to its cell's dense row-major index —
// implicit addressing: the cell is recomputed from the cached position
// with the same float ops as the bounds pass, never stored per node.
// Only valid for positions inside the current bounds, which holds for
// every indexed position by construction.
func (g *grid) linIdxAt(p geo.Point) int {
	cx := int32(math.Floor(p.X * g.invCell))
	cy := int32(math.Floor(p.Y * g.invCell))
	return int(cy-g.minCy)*int(g.w) + int(cx-g.minCx)
}

// appendGridNeighbors appends all live nodes within radio range of self
// (excluding id) to buf, sorted by NodeID — the same set, in the same
// order, as the linear reference scan.
//
// A node in range now was within Range+drift of self at the snapshot, so
// candidates come from the cells intersecting the disk of that radius
// (widened by snapGuard and snapSlack) around self. The disk cuts each
// cell row in one interval, and a row's cells are adjacent in CSR order,
// so a row is one run of slots. A candidate is first tested on its snapshot position
// (see grid.snap): only those inside the disk can be in range now, and
// only they pay for a current position; exact membership uses that.
//
// Matches are collected as node indices, ordered by sortMatches and then
// emitted with their (by now cached) positions, so the emit costs what
// the match set holds, whatever N is.
func (ch *Channel) appendGridNeighbors(buf []Neighbor, id NodeID, self geo.Point) []Neighbor {
	g := ch.grid
	r := ch.cfg.Range + g.drift + snapGuard + g.snapSlack
	r2cand := r * r
	r2 := ch.cfg.Range * ch.cfg.Range
	cy0 := max(int32(math.Floor((self.Y-r)*g.invCell)), g.minCy)
	cy1 := min(int32(math.Floor((self.Y+r)*g.invCell)), g.minCy+g.h-1)

	// Hoisted epoch state: position() would re-check the clock per
	// candidate; one sync up front covers the whole query.
	ch.syncEpoch()
	epoch, now := uint32(ch.epoch), ch.epochAt
	beacon := ch.beaconAt != nil
	live, snap, nodes := ch.live, g.snap, g.nodes
	selfI := int32(id)
	ids := ch.matchBuf[:0]

	for cy := cy0; cy <= cy1; cy++ {
		// Half-width of the disk across this row, measured on the row's
		// horizontal line nearest to self.
		dy := self.Y - clamp(self.Y, float64(cy)*g.cell, float64(cy+1)*g.cell)
		hx := math.Sqrt(max(r2cand-dy*dy, 0))
		cx0 := max(int32(math.Floor((self.X-hx)*g.invCell)), g.minCx)
		cx1 := min(int32(math.Floor((self.X+hx)*g.invCell)), g.minCx+g.w-1)
		if cx0 > cx1 {
			continue
		}
		rowBase := int(cy-g.minCy)*int(g.w) - int(g.minCx)
		end := g.cellStart[rowBase+int(cx1)+1]
		for slot := g.cellStart[rowBase+int(cx0)]; slot < end; slot++ {
			if snap != nil {
				sx, sy := self.X-float64(snap[slot].x), self.Y-float64(snap[slot].y)
				if sx*sx+sy*sy > r2cand {
					continue
				}
			}
			i := nodes[slot]
			if i == selfI {
				continue
			}
			var p geo.Point
			if beacon {
				p = ch.beaconPos[i]
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
			ids = append(ids, i)
		}
	}
	ch.matchBuf = ids
	ch.sortMatches(ids)
	for _, i := range ids {
		if beacon {
			buf = append(buf, Neighbor{ID: NodeID(i), Pos: ch.beaconPos[i]})
		} else {
			buf = append(buf, Neighbor{ID: NodeID(i), Pos: ch.posCache[i]})
		}
	}
	return buf
}

// insertionMax is the most matches sortMatches hands to insertion sort
// as they are. Every query at paper density (a dozen neighbors, a dozen
// peers in a region) is well below it.
const insertionMax = 24

// sortMatches orders one query's matches — node indices — ascending.
// The cost depends on the number of matches only, never on N.
//
// Cells list their occupants in ascending order, so a query's matches
// arrive as a few sorted runs and an insertion sort moves little. A
// dense topology matches a hundred nodes and more; there insertion (and
// any comparison sort: one mispredicted branch per compare) costs more
// than the rest of the query, so the matches are first dealt, stably,
// into 64 buckets by their high bits. That leaves every index within a
// bucket's width of its place, and the insertion pass has next to
// nothing left to do.
func (ch *Channel) sortMatches(s []int32) {
	if len(s) > insertionMax {
		shift := max(bits.Len(uint(len(ch.live)-1))-6, 0)
		var start [65]int32
		for _, v := range s {
			start[v>>shift+1]++
		}
		for b := 1; b < len(start); b++ {
			start[b] += start[b-1]
		}
		if cap(ch.dealBuf) < len(s) {
			ch.dealBuf = make([]int32, len(s), 2*len(s))
		}
		dealt := ch.dealBuf[:len(s)]
		for _, v := range s {
			dealt[start[v>>shift]] = v
			start[v>>shift]++
		}
		copy(s, dealt)
	}
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i
		for ; j > 0 && s[j-1] > v; j-- {
			s[j] = s[j-1]
		}
		s[j] = v
	}
}

// AppendInRect appends to buf, in ascending NodeID order, every node —
// live or not — whose current position lies inside the closed rectangle
// r. It reports false, appending nothing, when the channel keeps no index
// of true positions to answer from: with beaconing the grid files nodes
// under their last beacon. The caller then scans all nodes itself.
//
// Candidates come from the cells intersecting r grown by the snapshot's
// drift bound (a node inside r now was within drift of it at the
// snapshot); membership is decided on current epoch-cached positions, so
// the result is exactly what testing every node would give, in the same
// order (sortMatches, as for a neighbor query).
func (ch *Channel) AppendInRect(buf []NodeID, r geo.Rect) ([]NodeID, bool) {
	if ch.beaconAt != nil {
		return buf, false
	}
	ch.ensureGrid()
	g := ch.grid
	// Clamp to the occupied box in float: r comes from a region table and
	// may lie far outside anything an int32 cell coordinate can hold.
	cx0 := math.Max(math.Floor((r.Min.X-g.drift)*g.invCell), float64(g.minCx))
	cx1 := math.Min(math.Floor((r.Max.X+g.drift)*g.invCell), float64(g.minCx+g.w-1))
	cy0 := math.Max(math.Floor((r.Min.Y-g.drift)*g.invCell), float64(g.minCy))
	cy1 := math.Min(math.Floor((r.Max.Y+g.drift)*g.invCell), float64(g.minCy+g.h-1))
	if !(cx0 <= cx1 && cy0 <= cy1) {
		return buf, true
	}

	ids := ch.matchBuf[:0]
	for cy := int32(cy0); cy <= int32(cy1); cy++ {
		rowBase := int(cy-g.minCy) * int(g.w)
		first := g.cellStart[rowBase+int(int32(cx0)-g.minCx)]
		last := g.cellStart[rowBase+int(int32(cx1)-g.minCx)+1]
		// A row's cells are adjacent in CSR order: one run of occupants.
		for _, i := range g.nodes[first:last] {
			if r.Contains(ch.position(int(i))) {
				ids = append(ids, i)
			}
		}
	}
	ch.matchBuf = ids
	ch.sortMatches(ids)
	for _, i := range ids {
		buf = append(buf, NodeID(i))
	}
	return buf, true
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
