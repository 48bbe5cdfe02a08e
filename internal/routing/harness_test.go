package routing

import (
	"precinct/internal/geo"
	"precinct/internal/radio"
)

// The routing tests drive GPSR without a radio channel: a frozen snapshot
// of positions stands in for the neighbor query, and a fresh Router per
// hop stands in for the scratch a simulation run reuses.

// NextHop is one forwarding decision with a fresh Router: the reference
// the scratch-reusing Router.NextHop is compared with.
func NextHop(selfID radio.NodeID, self geo.Point, nbrs []radio.Neighbor, dest geo.Point, st *State) (radio.Neighbor, bool) {
	var r Router
	return r.NextHop(selfID, self, nbrs, dest, st)
}

// GabrielNeighbors is AppendGabrielNeighbors into a fresh slice.
func GabrielNeighbors(self geo.Point, nbrs []radio.Neighbor) []radio.Neighbor {
	return AppendGabrielNeighbors(make([]radio.Neighbor, 0, len(nbrs)), self, nbrs)
}

// Table walks a packet hop by hop over a frozen topology snapshot.
type Table struct {
	// Positions of all nodes at the snapshot instant.
	Positions []geo.Point
	// Range is the radio range defining connectivity.
	Range float64
}

// NeighborsOf returns the unit-disk neighbor set of node id in the frozen
// snapshot.
func (t *Table) NeighborsOf(id radio.NodeID) []radio.Neighbor {
	var out []radio.Neighbor
	self := t.Positions[id]
	r2 := t.Range * t.Range
	for i, p := range t.Positions {
		if radio.NodeID(i) == id {
			continue
		}
		if self.Dist2(p) <= r2 {
			out = append(out, radio.Neighbor{ID: radio.NodeID(i), Pos: p})
		}
	}
	return out
}

// Route walks a packet from src toward the point dest, stopping when the
// current node is within `deliver` meters of dest or when arrived()
// returns true for the current node. It returns the sequence of nodes
// visited (starting with src) and whether delivery succeeded. maxHops
// bounds the walk.
func (t *Table) Route(src radio.NodeID, dest geo.Point, deliver float64, arrived func(radio.NodeID) bool, maxHops int) ([]radio.NodeID, bool) {
	var st State
	path := []radio.NodeID{src}
	cur := src
	for hop := 0; hop < maxHops; hop++ {
		pos := t.Positions[cur]
		if pos.Dist(dest) <= deliver || (arrived != nil && arrived(cur)) {
			return path, true
		}
		next, ok := NextHop(cur, pos, t.NeighborsOf(cur), dest, &st)
		if !ok {
			return path, false
		}
		cur = next.ID
		path = append(path, cur)
	}
	return path, false
}
