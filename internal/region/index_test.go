package region

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"precinct/internal/geo"
	"precinct/internal/workload"
)

// The linear scans the grid index replaced, kept as oracles: every lookup
// an indexed table answers must be the one these give, bit for bit —
// same region, same tie-breaks.

func refRegion(t *Table, id ID) (Region, bool) {
	for _, r := range t.regions {
		if r.ID == id {
			return r, true
		}
	}
	return Region{}, false
}

func refNearestCenter(t *Table, p geo.Point, exclude []ID) Region {
	best := Region{ID: Invalid}
	bestD := 0.0
scan:
	for _, r := range t.regions {
		for _, id := range exclude {
			if r.ID == id {
				continue scan
			}
		}
		d := r.Center().Dist2(p)
		if best.ID == Invalid || d < bestD {
			best, bestD = r, d
		}
	}
	return best
}

func refLocate(t *Table, p geo.Point) (Region, bool) {
	if len(t.regions) == 0 {
		return Region{}, false
	}
	for _, r := range t.regions {
		if r.Bounds.Contains(p) {
			return r, true
		}
	}
	return refNearestCenter(t, p, nil), true
}

// probePoints returns the points a table is checked at: every region
// edge coordinate and its two floating-point neighbours, crossed in x
// and y (so every cell boundary, every corner and the area's rim, from
// both sides), points well outside the area, and random interior points.
func probePoints(t *Table, rng *rand.Rand) []geo.Point {
	nudged := func(vals map[float64]bool) []float64 {
		var out []float64
		for v := range vals {
			out = append(out, math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1)))
		}
		return out
	}
	xs, ys := map[float64]bool{}, map[float64]bool{}
	for _, r := range t.regions {
		xs[r.Bounds.Min.X], xs[r.Bounds.Max.X] = true, true
		ys[r.Bounds.Min.Y], ys[r.Bounds.Max.Y] = true, true
	}
	a := t.area
	xs[a.Min.X], xs[a.Max.X], ys[a.Min.Y], ys[a.Max.Y] = true, true, true, true
	var pts []geo.Point
	ex, ey := nudged(xs), nudged(ys)
	// The full cross product is 10^4 points on a 34×34 grid; thin it to
	// every edge in one axis against a rotating sample of the other.
	for i, x := range ex {
		for j, y := range ey {
			if len(ex)*len(ey) <= 4096 || (i+j)%7 == 0 {
				pts = append(pts, geo.Pt(x, y))
			}
		}
	}
	w, h := a.Width(), a.Height()
	for _, d := range []float64{1e-9, 1, 0.5 * w, 10 * w, 1e12} {
		pts = append(pts,
			geo.Pt(a.Min.X-d, a.Min.Y+0.3*h), geo.Pt(a.Max.X+d, a.Min.Y+0.7*h),
			geo.Pt(a.Min.X+0.3*w, a.Min.Y-d), geo.Pt(a.Min.X+0.7*w, a.Max.Y+d),
			geo.Pt(a.Min.X-d, a.Min.Y-d), geo.Pt(a.Max.X+d, a.Max.Y+d))
	}
	for i := 0; i < 2000; i++ {
		pts = append(pts, geo.Pt(a.Min.X+rng.Float64()*w, a.Min.Y+rng.Float64()*h))
	}
	return pts
}

// checkAgainstScans holds every indexed lookup of the table to the
// linear references.
func checkAgainstScans(t *testing.T, name string, tab *Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(tab.regions))*7919 + 1))
	for _, p := range probePoints(tab, rng) {
		got, ok := tab.Locate(p)
		want, wok := refLocate(tab, p)
		if ok != wok || got != want {
			t.Fatalf("%s: Locate(%v, %v) = %v, scan says %v", name, p.X, p.Y, got, want)
		}
		near := tab.nearestCenter(p, Invalid)
		if want := refNearestCenter(tab, p, nil); near != want {
			t.Fatalf("%s: nearestCenter(%v, %v) = %v, scan says %v", name, p.X, p.Y, near, want)
		}
		second := tab.nearestCenter(p, near.ID)
		if want := refNearestCenter(tab, p, []ID{near.ID}); second != want {
			t.Fatalf("%s: nearestCenter(%v, %v) excluding %d = %v, scan says %v",
				name, p.X, p.Y, int(near.ID), second, want)
		}
		// An exclusion that is not the nearest must not disturb it.
		if other := tab.regions[rng.Intn(len(tab.regions))].ID; other != near.ID {
			if got := tab.nearestCenter(p, other); got != near {
				t.Fatalf("%s: nearestCenter(%v, %v) excluding far region %d = %v, want %v",
					name, p.X, p.Y, int(other), got, near)
			}
		}
		for _, r := range []Region{near, second} {
			if r.ID == Invalid {
				continue
			}
			if got, want := tab.Contains(r.ID, p), refContains(tab, r.ID, p); got != want {
				t.Fatalf("%s: Contains(%d, (%v, %v)) = %v, scan says %v", name, int(r.ID), p.X, p.Y, got, want)
			}
		}
	}
	for k := workload.Key(0); k < 3000; k++ {
		p := tab.HashLocation(k)
		home, _ := tab.HomeRegion(k)
		if want := refNearestCenter(tab, p, nil); home != want {
			t.Fatalf("%s: HomeRegion(%d) = %v, scan says %v", name, k, home, want)
		}
		var excl []ID
		for rank := 0; rank <= 3 && rank < len(tab.regions); rank++ {
			got, ok := tab.ReplicaRegionAt(k, rank)
			want := refNearestCenter(tab, p, excl)
			if !ok || got != want {
				t.Fatalf("%s: ReplicaRegionAt(%d, %d) = %v,%v, scan says %v", name, k, rank, got, ok, want)
			}
			excl = append(excl, got.ID)
		}
	}
	for id := ID(-2); id <= ID(len(tab.regions))+1; id++ {
		got, ok := tab.Region(id)
		want, wok := refRegion(tab, id)
		if ok != wok || got != want {
			t.Fatalf("%s: Region(%d) = %v,%v, scan says %v,%v", name, int(id), got, ok, want, wok)
		}
	}
}

func refContains(t *Table, id ID, p geo.Point) bool {
	r, ok := refRegion(t, id)
	return ok && r.Bounds.Contains(p)
}

// TestGridIndexMatchesScans checks the index on the grid shapes the
// simulator builds — down to a single region, up to the 10k tier's
// 34×34, the non-square factorizations NewGridN picks, an area that does
// not start at the origin and sides that do not divide evenly.
func TestGridIndexMatchesScans(t *testing.T) {
	origin := geo.NewRect(geo.Pt(0, 0), geo.Pt(1200, 1200))
	shifted := geo.NewRect(geo.Pt(-517.3, 1000.1), geo.Pt(682.9, 1777.7))
	for _, c := range []struct{ rows, cols int }{{1, 1}, {3, 3}, {15, 15}, {34, 34}, {1, 7}, {5, 2}} {
		for ai, area := range []geo.Rect{origin, shifted} {
			tab, err := NewGrid(area, c.rows, c.cols)
			if err != nil {
				t.Fatal(err)
			}
			if tab.grid.rows != c.rows || tab.grid.cols != c.cols {
				t.Fatalf("NewGrid(%dx%d) built index %+v", c.rows, c.cols, tab.grid)
			}
			checkAgainstScans(t, fmt.Sprintf("grid %dx%d area %d", c.rows, c.cols, ai), tab)
		}
	}
	big := geo.NewRect(geo.Pt(0, 0), geo.Pt(13416.4, 13416.4))
	for _, n := range []int{2, 7, 12, 22, 35, 121, 1156} {
		tab, err := NewGridN(big, n)
		if err != nil {
			t.Fatal(err)
		}
		if tab.Len() != n || tab.grid.rows*tab.grid.cols != n {
			t.Fatalf("NewGridN(%d): %d regions, index %+v", n, tab.Len(), tab.grid)
		}
		checkAgainstScans(t, fmt.Sprintf("NewGridN(%d) = %dx%d", n, tab.grid.rows, tab.grid.cols), tab)
	}
}

// TestDegenerateGridsHaveNoIndex: where float rounding leaves cells
// uneven or squared distances would overflow, the table must observe it
// and keep scanning.
func TestDegenerateGridsHaveNoIndex(t *testing.T) {
	for name, area := range map[string]geo.Rect{
		"coordinates swamp the cell size": geo.NewRect(geo.Pt(1e16, 1e16), geo.Pt(1e16+10, 1e16+10)),
		"squares overflow":                geo.NewRect(geo.Pt(0, 0), geo.Pt(1e200, 1e200)),
		"squares vanish":                  geo.NewRect(geo.Pt(0, 0), geo.Pt(1e-150, 1e-150)),
	} {
		tab, err := NewGrid(area, 4, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tab.grid.cols != 0 {
			t.Errorf("%s: index %+v built over %v", name, tab.grid, area)
		}
	}
}
