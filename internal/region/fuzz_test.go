package region

import (
	"math"
	"testing"

	"precinct/internal/geo"
	"precinct/internal/workload"
)

// fuzzGrid clamps fuzzer-chosen grid parameters into a valid table, so
// every input exercises the hash/locate paths instead of constructor
// validation.
func fuzzGrid(t *testing.T, rows, cols int, w, h float64) *Table {
	t.Helper()
	rows = 1 + abs(rows)%12
	cols = 1 + abs(cols)%12
	if !isFinitePos(w) {
		w = 1200
	}
	if !isFinitePos(h) {
		h = 1200
	}
	tab, err := NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(w, h)), rows, cols)
	if err != nil {
		t.Fatalf("NewGrid(%dx%d, %gx%g): %v", rows, cols, w, h, err)
	}
	return tab
}

func abs(v int) int {
	if v < 0 {
		// Guard minint, whose negation overflows.
		if v == -v {
			return 0
		}
		return -v
	}
	return v
}

func isFinitePos(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 1 && v <= 1e6
}

// FuzzGeoHash fuzzes the geographic hash: for any key and any valid
// partition, the hash location must be deterministic, inside the service
// area and independent of the partition geometry; the home region must be
// the nearest center and the replica region the second nearest, distinct
// from home whenever the table has two or more regions.
func FuzzGeoHash(f *testing.F) {
	f.Add(uint32(0), 3, 3, 1200.0, 1200.0)
	f.Add(uint32(42), 1, 1, 600.0, 900.0)
	f.Add(uint32(7_000_000), 4, 2, 350.5, 1e5)
	f.Add(uint32(math.MaxUint32), 12, 12, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, rawKey uint32, rows, cols int, w, h float64) {
		tab := fuzzGrid(t, rows, cols, w, h)
		k := workload.Key(rawKey)

		p := tab.HashLocation(k)
		if p != tab.HashLocation(k) {
			t.Fatalf("HashLocation(%d) is not deterministic", k)
		}
		area := tab.Area()
		if p.X < area.Min.X || p.X > area.Max.X || p.Y < area.Min.Y || p.Y > area.Max.Y {
			t.Fatalf("HashLocation(%d) = %v outside area %v", k, p, area)
		}
		// Partition independence: a different grid over the same area must
		// hash the key to the same location.
		other := fuzzGrid(t, rows+1, cols+2, w, h)
		if q := other.HashLocation(k); q != p {
			t.Fatalf("hash depends on the partition: %v vs %v", p, q)
		}

		home, ok := tab.HomeRegion(k)
		if !ok {
			t.Fatalf("HomeRegion(%d) failed on a non-empty table", k)
		}
		if _, ok := tab.Region(home.ID); !ok {
			t.Fatalf("home region %d is not in the table", int(home.ID))
		}
		// Nearest-center law, checked by brute force.
		homeD := home.Center().Dist2(p)
		for _, r := range tab.Regions() {
			if d := r.Center().Dist2(p); d < homeD {
				t.Fatalf("home %v (d²=%g) is not nearest for key %d: %v at d²=%g",
					home, homeD, k, r, d)
			}
		}

		rep, ok := tab.ReplicaRegionAt(k, 1)
		if tab.Len() < 2 {
			if ok {
				t.Fatalf("ReplicaRegionAt(%d, 1) ok on a %d-region table", k, tab.Len())
			}
			return
		}
		if !ok {
			t.Fatalf("ReplicaRegionAt(%d, 1) failed on a %d-region table", k, tab.Len())
		}
		if rep.ID == home.ID {
			t.Fatalf("replica region %d equals home region", int(rep.ID))
		}
		// Second-nearest law: no region other than home is closer than the
		// replica.
		repD := rep.Center().Dist2(p)
		for _, r := range tab.Regions() {
			if r.ID == home.ID {
				continue
			}
			if d := r.Center().Dist2(p); d < repD {
				t.Fatalf("replica %v (d²=%g) is not second nearest for key %d: %v at d²=%g",
					rep, repD, k, r, d)
			}
		}
	})
}

// FuzzRegionForPoint fuzzes point location: Locate must be total over a
// non-empty table (every point, even outside the area, gets a region),
// deterministic, and consistent with Contains.
func FuzzRegionForPoint(f *testing.F) {
	f.Add(0.0, 0.0, 3, 3)
	f.Add(600.0, 600.0, 3, 3)
	f.Add(-50.0, 1e7, 2, 5)
	f.Add(1199.999, 0.001, 12, 1)
	f.Fuzz(func(t *testing.T, x, y float64, rows, cols int) {
		if math.IsNaN(x) || math.IsNaN(y) {
			t.Skip("NaN coordinates are not representable positions")
		}
		tab := fuzzGrid(t, rows, cols, 1200, 1200)
		p := geo.Pt(x, y)

		r, ok := tab.Locate(p)
		if !ok {
			t.Fatalf("Locate(%v) failed on a non-empty table", p)
		}
		if _, ok := tab.Region(r.ID); !ok {
			t.Fatalf("Locate(%v) returned unknown region %d", p, int(r.ID))
		}
		if r2, _ := tab.Locate(p); r2.ID != r.ID {
			t.Fatalf("Locate(%v) is not deterministic: %d vs %d", p, int(r.ID), int(r2.ID))
		}
		// Containment consistency: a point inside the located region's
		// bounds must be reported as contained; a region that contains the
		// point must never lose it to a higher-ID region (lowest ID wins).
		if r.Bounds.Contains(p) && !tab.Contains(r.ID, p) {
			t.Fatalf("Contains(%d, %v) = false for the located region", int(r.ID), p)
		}
		for _, cand := range tab.Regions() {
			if cand.ID >= r.ID {
				break
			}
			if cand.Bounds.Contains(p) {
				t.Fatalf("Locate(%v) = %d but lower region %d contains it", p, int(r.ID), int(cand.ID))
			}
		}
	})
}
