// Package routing implements GPSR (Greedy Perimeter Stateless Routing,
// Karp & Kung, MobiCom 2000), the geographic routing protocol the paper
// runs underneath PReCinCt. Forwarding is stateless at nodes: all routing
// state travels inside the packet (the State struct), and each hop decides
// using only its own position, its neighbors' positions, and the
// destination location.
//
// Two modes:
//
//   - Greedy: forward to the neighbor geographically closest to the
//     destination, provided it is strictly closer than the current node.
//   - Perimeter: when greedy fails (a local maximum / void), forward along
//     the faces of the Gabriel-graph planarization of the connectivity
//     graph using the right-hand rule, switching faces where they cross
//     the line from the point the packet entered perimeter mode to the
//     destination. Greedy resumes as soon as a node closer to the
//     destination than that entry point is reached.
//
// PReCinCt's modification — routing to regions rather than points — lives
// in the node layer: the "destination" handed to this package is the
// region's center, and delivery happens at the first node found inside the
// region.
package routing

import (
	"fmt"
	"math"

	"precinct/internal/geo"
	"precinct/internal/radio"
)

// Mode is the GPSR forwarding mode carried in the packet.
type Mode int

// Forwarding modes.
const (
	Greedy Mode = iota
	Perimeter
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Greedy:
		return "greedy"
	case Perimeter:
		return "perimeter"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// State is the per-packet routing state GPSR carries in the header.
// The zero value is a fresh greedy-mode packet.
type State struct {
	Mode Mode
	// EntryPos (Lp in the paper) is the location where the packet
	// entered perimeter mode; greedy resumes at any node closer to the
	// destination than this point.
	EntryPos geo.Point
	// FaceEntry (Lf) is the point where the packet entered the face it
	// is currently traversing; face changes require crossings closer to
	// the destination than this.
	FaceEntry geo.Point
	// FirstEdgeFrom/To (e0) record the first directed edge of the
	// current perimeter walk; traversing it a second time proves the
	// destination unreachable.
	FirstEdgeFrom radio.NodeID
	FirstEdgeTo   radio.NodeID
	HasFirstEdge  bool
	// PrevHop is the node the packet arrived from, used as the
	// right-hand rule reference direction.
	PrevHop    radio.NodeID
	HasPrev    bool
	PrevHopPos geo.Point
}

// AppendGabrielNeighbors filters the neighbor set down to the edges of
// the Gabriel graph, appends them to dst and returns the extended slice:
// the edge self–n survives iff no other neighbor lies strictly inside the
// circle whose diameter is that edge. The Gabriel graph is planar and
// connected whenever the unit-disk graph is, which is what perimeter
// traversal requires. Passing a reused scratch slice (as Router does)
// makes planarization allocation-free in steady state.
func AppendGabrielNeighbors(dst []radio.Neighbor, self geo.Point, nbrs []radio.Neighbor) []radio.Neighbor {
	// The neighbor nearest to self is the most effective witness: a long
	// edge's diameter circle almost always contains it, so testing it
	// first turns the common "edge eliminated" case into O(1) instead of
	// O(k). Which witness refutes an edge cannot affect the output —
	// keep/eliminate is a property of the whole set — so the result is
	// identical to the plain scan.
	nearest := -1
	var nearestD2 float64
	for i := range nbrs {
		if d2 := self.Dist2(nbrs[i].Pos); nearest < 0 || d2 < nearestD2 {
			nearest, nearestD2 = i, d2
		}
	}
	for _, n := range nbrs {
		mid := self.Midpoint(n.Pos)
		r2 := float64(self.Dist2(n.Pos) / 4)
		keep := true
		if w := nbrs[nearest]; w.ID != n.ID && w.Pos.Dist2(mid) < r2-1e-12 {
			keep = false
		} else {
			for _, w := range nbrs {
				if w.ID == n.ID {
					continue
				}
				if w.Pos.Dist2(mid) < r2-1e-12 {
					keep = false
					break
				}
			}
		}
		if keep {
			dst = append(dst, n)
		}
	}
	return dst
}

// greedyHop returns the neighbor strictly closest to dest, when one is
// strictly closer than self.
func greedyHop(self geo.Point, nbrs []radio.Neighbor, dest geo.Point) (radio.Neighbor, bool) {
	best := radio.Neighbor{}
	bestD := self.Dist2(dest)
	found := false
	for _, n := range nbrs {
		if d := n.Pos.Dist2(dest); d < bestD {
			best, bestD, found = n, d, true
		}
	}
	return best, found
}

// rightHand returns the first planar neighbor counterclockwise about self
// from the reference direction refAngle. The previous hop (when known) is
// always the last resort — choosing it means walking back out of a dead
// end, which is correct face traversal.
func rightHand(self geo.Point, planar []radio.Neighbor, refAngle float64, prev radio.NodeID, hasPrev bool) (radio.Neighbor, bool) {
	const eps = 1e-12
	best := radio.Neighbor{}
	bestSweep := math.Inf(1)
	found := false
	for _, n := range planar {
		sweep := geo.CCWAngleFrom(refAngle, self.Angle(n.Pos))
		if sweep < eps {
			sweep += 2 * math.Pi // exactly on the reference ray: last
		}
		if hasPrev && n.ID == prev {
			// Returning along the incoming edge only when nothing
			// else is available.
			sweep += 2 * math.Pi
		}
		if sweep < bestSweep {
			best, bestSweep, found = n, sweep, true
		}
	}
	return best, found
}

// Router carries reusable scratch for NextHop so steady-state forwarding
// is allocation-free. The zero value is ready to use. A Router serves one
// simulation run; it is not safe for concurrent use.
//
// With EnablePlanarCache, the Router additionally memoizes each node's
// Gabriel planarization keyed on the channel's PlanarKey (position epoch
// + topology generation): perimeter forwards through the same node at
// the same key reuse the planar set instead of re-filtering. Because the
// key pins both positions and liveness, the cached set is provably what
// a re-filter would compute; the whole-run recordings in
// testdata/workload_golden.json were reproduced without the cache.
type Router struct {
	planar []radio.Neighbor

	cache []planarEntry   // per-node planar cache; nil unless enabled
	key   radio.PlanarKey // current validity key (SetPlanarKey)
}

// planarEntry is one node's cached planarization.
type planarEntry struct {
	key   radio.PlanarKey
	valid bool
	set   []radio.Neighbor
}

// EnablePlanarCache switches on per-node planar-set caching for a
// network of n nodes. Call SetPlanarKey with the channel's current
// PlanarKey before each NextHop batch; stale entries refresh lazily.
func (r *Router) EnablePlanarCache(n int) {
	r.cache = make([]planarEntry, n)
}

// SetPlanarKey updates the validity key cached planarizations are
// checked against. Cheap; call before every NextHop.
func (r *Router) SetPlanarKey(k radio.PlanarKey) { r.key = k }

// NextHop computes the GPSR forwarding decision at the node selfID located
// at self, holding the given neighbor table, for a packet addressed to
// dest carrying routing state st. It mutates st in place (the updated
// state must travel with the packet) and returns the chosen next hop.
//
// ok == false means the packet cannot be forwarded: either the node has no
// neighbors, or the perimeter walk returned to its first edge, proving
// dest unreachable in the current topology.
func (r *Router) NextHop(selfID radio.NodeID, self geo.Point, nbrs []radio.Neighbor, dest geo.Point, st *State) (radio.Neighbor, bool) {
	if len(nbrs) == 0 {
		return radio.Neighbor{}, false
	}

	// Resume greedy as soon as we are closer to the destination than
	// where we entered perimeter mode.
	if st.Mode == Perimeter && self.Dist2(dest) < st.EntryPos.Dist2(dest) {
		st.Mode = Greedy
		st.HasFirstEdge = false
	}

	if st.Mode == Greedy {
		if hop, ok := greedyHop(self, nbrs, dest); ok {
			st.HasPrev = true
			st.PrevHop = selfID
			st.PrevHopPos = self
			return hop, true
		}
		// Local maximum: enter perimeter mode.
		st.Mode = Perimeter
		st.EntryPos = self
		st.FaceEntry = self
		st.HasFirstEdge = false
		st.HasPrev = false
	}

	var planar []radio.Neighbor
	if r.cache != nil && int(selfID) < len(r.cache) {
		e := &r.cache[selfID]
		if !e.valid || e.key != r.key {
			e.set = AppendGabrielNeighbors(e.set[:0], self, nbrs)
			e.key = r.key
			e.valid = true
		}
		planar = e.set
	} else {
		r.planar = AppendGabrielNeighbors(r.planar[:0], self, nbrs)
		planar = r.planar
	}
	if len(planar) == 0 {
		return radio.Neighbor{}, false
	}

	// Reference direction: the incoming edge when there is one, the
	// line toward the destination when entering perimeter mode here.
	var ref float64
	if st.HasPrev {
		ref = self.Angle(st.PrevHopPos)
	} else {
		ref = self.Angle(dest)
	}

	hop, ok := rightHand(self, planar, ref, st.PrevHop, st.HasPrev)
	if !ok {
		return radio.Neighbor{}, false
	}

	// Face changes: if the chosen edge crosses the Lp→dest line at a
	// point closer to dest than the current face entry, hop onto the
	// new face instead of crossing the line.
	for i := 0; i < len(planar)+1; i++ {
		x, crosses := geo.SegmentIntersection(self, hop.Pos, st.EntryPos, dest)
		if !crosses || x.Dist2(dest) >= st.FaceEntry.Dist2(dest)-1e-12 {
			break
		}
		st.FaceEntry = x
		st.HasFirstEdge = false // new face, new walk
		next, ok2 := rightHand(self, planar, self.Angle(hop.Pos), hop.ID, true)
		if !ok2 {
			break
		}
		if next.ID == hop.ID {
			break // single usable edge; take it regardless
		}
		hop = next
	}

	// Unreachability: completing a full tour of the face.
	if st.HasFirstEdge && st.FirstEdgeFrom == selfID && st.FirstEdgeTo == hop.ID {
		return radio.Neighbor{}, false
	}
	if !st.HasFirstEdge {
		st.HasFirstEdge = true
		st.FirstEdgeFrom = selfID
		st.FirstEdgeTo = hop.ID
	}

	st.HasPrev = true
	st.PrevHop = selfID
	st.PrevHopPos = self
	return hop, true
}
