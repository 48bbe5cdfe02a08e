// Package region implements PReCinCt's region layer: the partition of the
// service area into geographic regions, the region table every peer
// carries, the geographic hash mapping each data key to a location — and
// through it to a home region (nearest region center) and a replica
// region (second nearest). The partition is the paper's: the area
// "divided into equal sized regions", fixed for the whole run. The
// paper's table-maintenance operations (Add, Delete, Merge, Separate)
// are not modelled.
package region

import (
	"fmt"
	"math"

	"precinct/internal/geo"
	"precinct/internal/workload"
)

// ID identifies a region: its row-major index in the grid.
type ID int

// Invalid is the zero-ish sentinel for "no region".
const Invalid ID = -1

// Region is one geographic region: its identity and bounds. The paper
// represents a region by its center and perimeter vertices; axis-aligned
// rectangles carry the same information for grid partitions.
type Region struct {
	ID     ID
	Bounds geo.Rect
}

// Center returns the region's center point — the target of region-routed
// messages and the reference for the nearest-center hash.
func (r Region) Center() geo.Point { return r.Bounds.Center() }

// String implements fmt.Stringer.
func (r Region) String() string {
	return fmt.Sprintf("R%d%v", int(r.ID), r.Bounds)
}

// Table is the region table each peer keeps. A run builds one table and
// every peer and every shard shares it read-only: the partition never
// changes, so there is nothing to disseminate.
type Table struct {
	area    geo.Rect
	regions []Region // region i has ID i

	// grid is the lookup index, zero when the grid's float error is too
	// large for it and lookups scan (see index).
	grid gridIndex
}

// gridIndex is the geometry of a uniform rows×cols grid: enough to name
// the cell a point falls in by arithmetic, and with it the handful of
// regions Locate and the nearest-center hash have to examine. cols is 0
// when the table has no index and lookups scan.
type gridIndex struct {
	rows, cols int
	cw, ch     float64 // cell width and height, as NewGrid derives them
}

// gridBounds is the rectangle NewGrid gives the cell in row r, column c.
func gridBounds(area geo.Rect, cw, ch float64, r, c int) geo.Rect {
	lo := geo.Pt(area.Min.X+float64(float64(c)*cw), area.Min.Y+float64(float64(r)*ch))
	hi := geo.Pt(area.Min.X+float64(float64(c+1)*cw), area.Min.Y+float64(float64(r+1)*ch))
	return geo.NewRect(lo, hi)
}

// index builds the grid index of a rows×cols table whose cells are cw×ch,
// or leaves it zero when the grid's float error is more than the 3×3
// lookup tolerates: it needs cells within a millionth of their nominal
// size (so the arithmetic cell is off by at most one and neighbouring
// centers are evenly spaced) and spans whose squares neither overflow
// nor vanish.
func (t *Table) index(rows, cols int, cw, ch float64) {
	const tiny, huge = 1e-100, 1e100
	if !(cw >= tiny && ch >= tiny && t.area.Width() <= huge && t.area.Height() <= huge) {
		return
	}
	for _, r := range t.regions {
		b := r.Bounds
		if !(math.Abs(b.Width()-cw) <= 1e-6*cw && math.Abs(b.Height()-ch) <= 1e-6*ch) {
			return
		}
	}
	t.grid = gridIndex{rows: rows, cols: cols, cw: cw, ch: ch}
}

// block returns the regions a lookup at p has to examine, as rows
// r0..r1 of t.regions[r*stride+c0 : r*stride+c1+1], in ascending ID. On
// an indexed table, for a point inside the area, that is the (at most)
// 3×3 block of cells centred on p's arithmetic cell: it holds every
// region whose closed bounds contain p, and the nearest and
// second-nearest region centers to p. Otherwise it is the whole table
// as a single row.
func (t *Table) block(p geo.Point) (r0, r1, c0, c1, stride int) {
	g := &t.grid
	if g.cols == 0 || !t.area.Contains(p) {
		return 0, 0, 0, len(t.regions) - 1, 0
	}
	c := min(int((p.X-t.area.Min.X)/g.cw), g.cols-1)
	r := min(int((p.Y-t.area.Min.Y)/g.ch), g.rows-1)
	return max(r-1, 0), min(r+1, g.rows-1), max(c-1, 0), min(c+1, g.cols-1), g.cols
}

// NewGrid partitions the area into rows×cols equal regions — the paper's
// default layout ("divided into equal sized regions", default 9 regions =
// 3×3).
func NewGrid(area geo.Rect, rows, cols int) (*Table, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("region: grid must be at least 1x1, got %dx%d", rows, cols)
	}
	if area.Width() <= 0 || area.Height() <= 0 {
		return nil, fmt.Errorf("region: degenerate area %v", area)
	}
	t := &Table{area: area, regions: make([]Region, 0, rows*cols)}
	cw := area.Width() / float64(cols)
	ch := area.Height() / float64(rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			t.regions = append(t.regions, Region{ID: ID(len(t.regions)), Bounds: gridBounds(area, cw, ch, r, c)})
		}
	}
	t.index(rows, cols, cw, ch)
	return t, nil
}

// Contains reports whether the point lies inside the region's bounds.
func (t *Table) Contains(id ID, p geo.Point) bool {
	r, ok := t.Region(id)
	return ok && r.Bounds.Contains(p)
}

// NewGridN partitions the area into exactly n equal regions whenever n
// factors: a √n×√n grid for a perfect square, otherwise rows×(n/rows)
// with rows the largest divisor of n not above ⌈√n⌉ — which is 1 for a
// prime, giving a single row of n strips. Scenario code that sweeps
// "number of regions" (Figure 9b) passes perfect squares.
func NewGridN(area geo.Rect, n int) (*Table, error) {
	if n <= 0 {
		return nil, fmt.Errorf("region: need at least one region, got %d", n)
	}
	side := 1
	for side*side < n {
		side++
	}
	if side*side != n {
		// Try a rectangular factorization first.
		for r := side; r >= 1; r-- {
			if n%r == 0 {
				return NewGrid(area, r, n/r)
			}
		}
	}
	return NewGrid(area, side, side)
}

// Area returns the full service area.
func (t *Table) Area() geo.Rect { return t.area }

// Len returns the number of active regions.
func (t *Table) Len() int { return len(t.regions) }

// Regions returns a copy of the active regions, sorted by ID.
func (t *Table) Regions() []Region {
	out := make([]Region, len(t.regions))
	copy(out, t.regions)
	return out
}

// Region looks a region up by ID.
func (t *Table) Region(id ID) (Region, bool) {
	if id < 0 || int(id) >= len(t.regions) {
		return Region{}, false
	}
	return t.regions[id], true
}

// Locate returns the region containing the point. The boundary rule is
// fixed: rectangles are closed, so a point on a shared edge or corner
// lies in every region touching it, and the lowest ID among them wins.
// Points outside every region fall back to the nearest center so that
// nodes that wander off the partition still have a home. On an indexed
// table only the 3×3 block of cells around the point is examined, in the
// same ascending-ID order with the same containment test.
func (t *Table) Locate(p geo.Point) (Region, bool) {
	if len(t.regions) == 0 {
		return Region{}, false
	}
	r0, r1, c0, c1, stride := t.block(p)
	for r := r0; r <= r1; r++ {
		for _, reg := range t.regions[r*stride+c0 : r*stride+c1+1] {
			if reg.Bounds.Contains(p) {
				return reg, true
			}
		}
	}
	return t.nearestCenter(p, Invalid), true
}

// nearestCenter returns the region whose center is closest to p,
// excluding the given ID (pass Invalid to exclude none). Ties break to
// the lower ID. On an indexed table, for a point inside the area, the
// candidates are the 3×3 block of cells around the point, visited in
// ascending ID like the full scan.
func (t *Table) nearestCenter(p geo.Point, exclude ID) Region {
	best := Region{ID: Invalid}
	bestD := 0.0
	r0, r1, c0, c1, stride := t.block(p)
	for r := r0; r <= r1; r++ {
		for _, reg := range t.regions[r*stride+c0 : r*stride+c1+1] {
			if reg.ID == exclude {
				continue
			}
			d := reg.Center().Dist2(p)
			if best.ID == Invalid || d < bestD {
				best, bestD = reg, d
			}
		}
	}
	return best
}

// HashLocation maps a key to its geographic hash location inside the
// service area. The mapping is uniform, deterministic and independent of
// the partition, exactly as a geographic hash table requires.
func (t *Table) HashLocation(k workload.Key) geo.Point {
	h := workload.KeyHash(k)
	fx := float64(uint32(h)) / float64(1<<32)
	fy := float64(uint32(h>>32)) / float64(1<<32)
	return geo.Pt(t.area.Min.X+float64(fx*t.area.Width()), t.area.Min.Y+float64(fy*t.area.Height()))
}

// HomeRegion returns the region responsible for the key: the one whose
// center is closest to the key's hash location.
func (t *Table) HomeRegion(k workload.Key) (Region, bool) {
	if len(t.regions) == 0 {
		return Region{}, false
	}
	return t.nearestCenter(t.HashLocation(k), Invalid), true
}

// MaxReplicaRank bounds the replica rank ReplicaRegionAt serves. It
// exists to keep the rank-selection scratch allocation-free; the node
// layer caps Config.Replicas to it.
const MaxReplicaRank = 8

// ReplicaRegionAt returns the key's rank-r region: rank 0 is the home
// region (nearest center to the hash location), rank r ≥ 1 the (r+1)-th
// nearest center, so rank 1 is the paper's replica region (Section 2.4).
// Ties order by ID, exactly like the home lookup. The ranking is a pure
// function of the table and the key, so custody of a rank-r copy is
// recomputable anywhere exactly like the home region. ok is
// false for negative ranks, ranks above MaxReplicaRank, and ranks the
// table is too small for.
func (t *Table) ReplicaRegionAt(k workload.Key, rank int) (Region, bool) {
	if rank < 0 || rank > MaxReplicaRank || rank >= len(t.regions) {
		return Region{}, false
	}
	p := t.HashLocation(k)
	if rank == 0 {
		return t.nearestCenter(p, Invalid), true
	}
	var excl [MaxReplicaRank]ID
	var cur Region
	for i := 0; i <= rank; i++ {
		cur = t.nearestCenterExcluding(p, excl[:i])
		if i < MaxReplicaRank {
			excl[i] = cur.ID
		}
	}
	return cur, true
}

// nearestCenterExcluding is nearestCenter over an exclusion set: the
// region whose center is closest to p among those not listed. Ties break
// to the lower ID. The caller guarantees at least one region remains.
func (t *Table) nearestCenterExcluding(p geo.Point, exclude []ID) Region {
	switch len(exclude) {
	case 0:
		return t.nearestCenter(p, Invalid)
	case 1:
		return t.nearestCenter(p, exclude[0])
	}
	best := Region{ID: Invalid}
	bestD := 0.0
	for _, r := range t.regions {
		skip := false
		for _, id := range exclude {
			if r.ID == id {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		d := r.Center().Dist2(p)
		if best.ID == Invalid || d < bestD {
			best, bestD = r, d
		}
	}
	return best
}

// CheckInvariants verifies the table's structural invariants: at least
// one region, region i carrying ID i, region bounds lying inside the
// service area, and positive region area. The invariant runner calls
// this on every sweep.
func (t *Table) CheckInvariants() error {
	if len(t.regions) == 0 {
		return fmt.Errorf("region: table has no regions")
	}
	if t.area.Width() <= 0 || t.area.Height() <= 0 {
		return fmt.Errorf("region: degenerate service area %v", t.area)
	}
	for i, r := range t.regions {
		if r.ID != ID(i) {
			return fmt.Errorf("region: region %d at index %d", int(r.ID), i)
		}
		if r.Bounds.Width() <= 0 || r.Bounds.Height() <= 0 {
			return fmt.Errorf("region: %v has degenerate bounds", r)
		}
		u := t.area.Union(r.Bounds)
		if u != t.area {
			return fmt.Errorf("region: %v extends outside the service area %v", r, t.area)
		}
	}
	return nil
}

// RegionDistance returns the distance between the centers of two regions,
// the "region distance" term of the GD-LD utility function. Unknown IDs
// yield 0.
func (t *Table) RegionDistance(a, b ID) float64 {
	ra, oka := t.Region(a)
	rb, okb := t.Region(b)
	if !oka || !okb {
		return 0
	}
	return ra.Center().Dist(rb.Center())
}
