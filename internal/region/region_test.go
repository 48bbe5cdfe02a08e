package region

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"precinct/internal/geo"
	"precinct/internal/workload"
)

var area1200 = geo.NewRect(geo.Pt(0, 0), geo.Pt(1200, 1200))

func grid3x3(t *testing.T) *Table {
	t.Helper()
	tab, err := NewGrid(area1200, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(area1200, 0, 3); err == nil {
		t.Error("0 rows accepted")
	}
	if _, err := NewGrid(area1200, 3, -1); err == nil {
		t.Error("negative cols accepted")
	}
	bad := geo.NewRect(geo.Pt(0, 0), geo.Pt(0, 10))
	if _, err := NewGrid(bad, 2, 2); err == nil {
		t.Error("degenerate area accepted")
	}
}

func TestNewGridLayout(t *testing.T) {
	tab := grid3x3(t)
	if tab.Len() != 9 {
		t.Fatalf("Len = %d, want 9", tab.Len())
	}
	// Every region is 400x400 and they tile the area.
	var total float64
	for _, r := range tab.Regions() {
		if math.Abs(r.Bounds.Width()-400) > 1e-9 || math.Abs(r.Bounds.Height()-400) > 1e-9 {
			t.Errorf("region %v not 400x400", r)
		}
		total += r.Bounds.Width() * r.Bounds.Height()
	}
	if want := area1200.Width() * area1200.Height(); math.Abs(total-want) > 1e-6 {
		t.Errorf("regions do not tile area: %v vs %v", total, want)
	}
}

func TestNewGridN(t *testing.T) {
	for _, n := range []int{1, 4, 9, 16, 25} {
		tab, err := NewGridN(area1200, n)
		if err != nil {
			t.Fatal(err)
		}
		if tab.Len() != n {
			t.Errorf("NewGridN(%d) has %d regions", n, tab.Len())
		}
	}
	// Non-square composite: 6 = 2x3.
	tab, err := NewGridN(area1200, 6)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 6 {
		t.Errorf("NewGridN(6) has %d regions", tab.Len())
	}
	if _, err := NewGridN(area1200, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestLocate(t *testing.T) {
	tab := grid3x3(t)
	r, ok := tab.Locate(geo.Pt(50, 50))
	if !ok {
		t.Fatal("Locate failed")
	}
	if !r.Bounds.Contains(geo.Pt(50, 50)) {
		t.Errorf("located region %v does not contain the point", r)
	}
	// Point outside the area falls back to the nearest center.
	r2, ok := tab.Locate(geo.Pt(-500, -500))
	if !ok {
		t.Fatal("Locate outside area failed")
	}
	if r2.Center() != geo.Pt(200, 200) {
		t.Errorf("outside point mapped to %v, want the corner region", r2)
	}
}

func TestRegionLookup(t *testing.T) {
	tab := grid3x3(t)
	r, ok := tab.Region(ID(4))
	if !ok || r.ID != 4 {
		t.Fatalf("Region(4) = %v, %v", r, ok)
	}
	if _, ok := tab.Region(ID(99)); ok {
		t.Error("unknown region found")
	}
}

func TestHashLocationInArea(t *testing.T) {
	tab := grid3x3(t)
	for k := workload.Key(0); k < 2000; k++ {
		p := tab.HashLocation(k)
		if !tab.Area().Contains(p) {
			t.Fatalf("key %d hashed outside area: %v", k, p)
		}
	}
}

func TestHashLocationUniformAcrossRegions(t *testing.T) {
	tab := grid3x3(t)
	counts := make(map[ID]int)
	const keys = 9000
	for k := workload.Key(0); k < keys; k++ {
		h, ok := tab.HomeRegion(k)
		if !ok {
			t.Fatal("HomeRegion failed")
		}
		counts[h.ID]++
	}
	for id, c := range counts {
		frac := float64(c) / keys
		if frac < 0.05 || frac > 0.20 { // expected 1/9 ≈ 0.111
			t.Errorf("region %d holds %.3f of keys; hash badly skewed", int(id), frac)
		}
	}
}

func TestHomeRegionIsNearestCenter(t *testing.T) {
	tab := grid3x3(t)
	for k := workload.Key(0); k < 500; k++ {
		loc := tab.HashLocation(k)
		home, _ := tab.HomeRegion(k)
		for _, r := range tab.Regions() {
			if r.Center().Dist2(loc) < home.Center().Dist2(loc)-1e-9 {
				t.Fatalf("key %d: region %v closer than home %v", k, r, home)
			}
		}
	}
}

func TestReplicaRegionIsSecondNearest(t *testing.T) {
	tab := grid3x3(t)
	for k := workload.Key(0); k < 500; k++ {
		loc := tab.HashLocation(k)
		home, _ := tab.HomeRegion(k)
		rep, ok := tab.ReplicaRegionAt(k, 1)
		if !ok {
			t.Fatal("ReplicaRegionAt(k, 1) failed")
		}
		if rep.ID == home.ID {
			t.Fatalf("key %d: replica equals home", k)
		}
		// dist(home) <= dist(replica) <= dist(any other region)
		if home.Center().Dist2(loc) > rep.Center().Dist2(loc)+1e-9 {
			t.Fatalf("key %d: home farther than replica", k)
		}
		for _, r := range tab.Regions() {
			if r.ID == home.ID || r.ID == rep.ID {
				continue
			}
			if r.Center().Dist2(loc) < rep.Center().Dist2(loc)-1e-9 {
				t.Fatalf("key %d: region %v closer than replica %v", k, r, rep)
			}
		}
	}
}

func TestReplicaRegionSingleRegionTable(t *testing.T) {
	tab, _ := NewGrid(area1200, 1, 1)
	if _, ok := tab.ReplicaRegionAt(workload.Key(1), 1); ok {
		t.Error("single-region table produced a replica region")
	}
}

func TestHashStableUnderPartitionChange(t *testing.T) {
	// The hash location must not depend on the partition (only the
	// home-region mapping does).
	a, _ := NewGrid(area1200, 3, 3)
	b, _ := NewGrid(area1200, 5, 5)
	for k := workload.Key(0); k < 200; k++ {
		if a.HashLocation(k) != b.HashLocation(k) {
			t.Fatalf("key %d hash location depends on partition", k)
		}
	}
}

func TestRegionDistance(t *testing.T) {
	tab := grid3x3(t)
	// Regions 0 and 2 are two cells apart horizontally: centers at
	// (200,200) and (1000,200).
	if got := tab.RegionDistance(ID(0), ID(2)); math.Abs(got-800) > 1e-9 {
		t.Errorf("RegionDistance = %v, want 800", got)
	}
	if got := tab.RegionDistance(ID(0), ID(0)); got != 0 {
		t.Errorf("self distance = %v", got)
	}
	if got := tab.RegionDistance(ID(0), ID(99)); got != 0 {
		t.Errorf("unknown region distance = %v", got)
	}
}

// Property: every key has exactly one home region, stable across calls,
// and home != replica.
func TestHomeReplicaProperty(t *testing.T) {
	tab := grid3x3(t)
	f := func(kRaw uint16) bool {
		k := workload.Key(kRaw)
		h1, ok1 := tab.HomeRegion(k)
		h2, ok2 := tab.HomeRegion(k)
		rep, ok3 := tab.ReplicaRegionAt(k, 1)
		return ok1 && ok2 && ok3 && h1.ID == h2.ID && h1.ID != rep.ID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCheckInvariantsCatchesBrokenTables: the invariant runner's region
// check must name each way a table can be malformed, and pass NewGrid's
// output.
func TestCheckInvariantsCatchesBrokenTables(t *testing.T) {
	if err := grid3x3(t).CheckInvariants(); err != nil {
		t.Fatalf("fresh grid rejected: %v", err)
	}
	for name, c := range map[string]struct {
		breakIt func(tab *Table)
		want    string
	}{
		"no regions":      {func(tab *Table) { tab.regions = nil }, "no regions"},
		"ID off its slot": {func(tab *Table) { tab.regions[4].ID = 7 }, "region 7 at index 4"},
		"degenerate": {func(tab *Table) {
			tab.regions[2].Bounds = geo.NewRect(geo.Pt(800, 0), geo.Pt(800, 400))
		}, "R2[(800.00, 0.00) - (800.00, 400.00)] has degenerate bounds"},
		"outside the area": {func(tab *Table) {
			tab.regions[8].Bounds = geo.NewRect(geo.Pt(800, 800), geo.Pt(1300, 1200))
		}, "extends outside the service area"},
	} {
		tab := grid3x3(t)
		c.breakIt(tab)
		if err := tab.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, c.want)
		}
	}
}
