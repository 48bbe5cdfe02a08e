package region

import (
	"math"
	"math/rand"
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
		total += r.Bounds.Area()
	}
	if math.Abs(total-area1200.Area()) > 1e-6 {
		t.Errorf("regions do not tile area: %v vs %v", total, area1200.Area())
	}
	if tab.Version() != 0 {
		t.Errorf("fresh table version = %d", tab.Version())
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
	if !r2.Center().Equal(geo.Pt(200, 200)) {
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
		if !a.HashLocation(k).Equal(b.HashLocation(k)) {
			t.Fatalf("key %d hash location depends on partition", k)
		}
	}
}

func TestMergeAdjacent(t *testing.T) {
	tab := grid3x3(t)
	// Regions 0 and 1 are horizontally adjacent in the bottom row.
	v := tab.Version()
	merged, err := tab.Merge(ID(0), ID(1))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 8 {
		t.Errorf("Len after Merge = %d", tab.Len())
	}
	if math.Abs(merged.Bounds.Width()-800) > 1e-9 || math.Abs(merged.Bounds.Height()-400) > 1e-9 {
		t.Errorf("merged bounds %v", merged.Bounds)
	}
	if tab.Version() != v+1 {
		t.Error("Merge did not bump version")
	}
	if _, ok := tab.Region(ID(0)); ok {
		t.Error("merged-away region still present")
	}
}

func TestMergeNonAdjacentRefused(t *testing.T) {
	tab := grid3x3(t)
	// 0 (bottom-left) and 8 (top-right) do not tile their union.
	if _, err := tab.Merge(ID(0), ID(8)); err == nil {
		t.Error("non-adjacent Merge accepted")
	}
	// Diagonal neighbors 0 and 4 likewise.
	if _, err := tab.Merge(ID(0), ID(4)); err == nil {
		t.Error("diagonal Merge accepted")
	}
	if _, err := tab.Merge(ID(0), ID(0)); err == nil {
		t.Error("self Merge accepted")
	}
	if _, err := tab.Merge(ID(0), ID(77)); err == nil {
		t.Error("Merge with unknown region accepted")
	}
}

func TestSeparate(t *testing.T) {
	tab := grid3x3(t)
	v := tab.Version()
	r1, r2, err := tab.Separate(ID(0))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 10 {
		t.Errorf("Len after Separate = %d", tab.Len())
	}
	if tab.Version() != v+1 {
		t.Error("Separate did not bump version")
	}
	// The halves tile the original region 0 (0,0)-(400,400).
	u := r1.Bounds.Union(r2.Bounds)
	if !u.Min.Equal(geo.Pt(0, 0)) || !u.Max.Equal(geo.Pt(400, 400)) {
		t.Errorf("halves %v + %v do not cover the original", r1, r2)
	}
	if math.Abs(r1.Bounds.Area()-r2.Bounds.Area()) > 1e-9 {
		t.Error("halves are not equal area")
	}
	if _, _, err := tab.Separate(ID(0)); err == nil {
		t.Error("Separate of vanished region accepted")
	}
}

func TestSeparateTallRegionSplitsVertically(t *testing.T) {
	tab, _ := NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(100, 400)), 1, 1)
	r1, r2, err := tab.Separate(tab.Regions()[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Bounds.Height() != 200 || r2.Bounds.Height() != 200 {
		t.Errorf("tall region not split along height: %v %v", r1, r2)
	}
}

func TestMergeThenSeparateRoundTrip(t *testing.T) {
	tab := grid3x3(t)
	merged, err := tab.Merge(ID(0), ID(1))
	if err != nil {
		t.Fatal(err)
	}
	r1, r2, err := tab.Separate(merged.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 9 {
		t.Errorf("Len after round trip = %d", tab.Len())
	}
	// Splitting the 800x400 merged region along its longer axis
	// restores two 400x400 cells.
	for _, r := range []Region{r1, r2} {
		if math.Abs(r.Bounds.Width()-400) > 1e-9 || math.Abs(r.Bounds.Height()-400) > 1e-9 {
			t.Errorf("round-trip region %v not 400x400", r)
		}
	}
}

func TestClone(t *testing.T) {
	tab := grid3x3(t)
	cp := tab.Clone()
	if _, _, err := cp.Separate(ID(4)); err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 9 {
		t.Error("mutating clone changed original")
	}
	if cp.Version() == tab.Version() {
		t.Error("clone version not independent")
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

// Property: after any sequence of Separate operations, active regions
// still tile the (original) service area.
func TestSeparatePreservesTiling(t *testing.T) {
	tab := grid3x3(t)
	ids := []ID{0, 5, 8}
	for _, id := range ids {
		if _, _, err := tab.Separate(id); err != nil {
			t.Fatal(err)
		}
	}
	var total float64
	for _, r := range tab.Regions() {
		total += r.Bounds.Area()
	}
	if math.Abs(total-area1200.Area()) > 1e-6 {
		t.Errorf("separated regions do not tile the area: %v", total)
	}
}

func TestNewVoronoiValidation(t *testing.T) {
	if _, err := NewVoronoi(area1200, []geo.Point{geo.Pt(1, 1)}); err == nil {
		t.Error("single seed accepted")
	}
	if _, err := NewVoronoi(area1200, []geo.Point{geo.Pt(1, 1), geo.Pt(9999, 0)}); err == nil {
		t.Error("out-of-area seed accepted")
	}
	bad := geo.NewRect(geo.Pt(0, 0), geo.Pt(0, 5))
	if _, err := NewVoronoi(bad, []geo.Point{geo.Pt(0, 1), geo.Pt(0, 2)}); err == nil {
		t.Error("degenerate area accepted")
	}
}

func TestVoronoiLocateAndContains(t *testing.T) {
	seeds := []geo.Point{geo.Pt(200, 200), geo.Pt(1000, 200), geo.Pt(600, 1000)}
	tab, err := NewVoronoi(area1200, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Voronoi() {
		t.Fatal("Voronoi() false")
	}
	if tab.Len() != 3 {
		t.Fatalf("Len = %d", tab.Len())
	}
	// A point near each seed belongs to that seed's region, exclusively.
	for i, seed := range seeds {
		r, ok := tab.Locate(seed.Add(geo.Pt(10, 10)))
		if !ok || int(r.ID) != i {
			t.Errorf("point near seed %d located in region %v", i, r.ID)
		}
		for j := range seeds {
			want := j == i
			if got := tab.Contains(ID(j), seed); got != want {
				t.Errorf("Contains(%d, seed %d) = %v", j, i, got)
			}
		}
	}
	// Centers are the seeds themselves.
	for i, seed := range seeds {
		r, _ := tab.Region(ID(i))
		if !r.Center().Equal(seed) {
			t.Errorf("region %d center %v != seed %v", i, r.Center(), seed)
		}
	}
}

func TestVoronoiEveryPointHasExactlyOneRegion(t *testing.T) {
	seeds := []geo.Point{geo.Pt(100, 100), geo.Pt(900, 300), geo.Pt(400, 1100), geo.Pt(1100, 1000)}
	tab, _ := NewVoronoi(area1200, seeds)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		p := geo.Pt(rng.Float64()*1200, rng.Float64()*1200)
		owners := 0
		for _, r := range tab.Regions() {
			if tab.Contains(r.ID, p) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("point %v has %d owners", p, owners)
		}
	}
}

func TestVoronoiRejectsGridOnlyOps(t *testing.T) {
	tab, _ := NewVoronoi(area1200, []geo.Point{geo.Pt(100, 100), geo.Pt(900, 900)})
	if _, err := tab.Merge(ID(0), ID(1)); err == nil {
		t.Error("Merge accepted on voronoi table")
	}
	if _, _, err := tab.Separate(ID(0)); err == nil {
		t.Error("Separate accepted on voronoi table")
	}
}

func TestVoronoiHomeAndReplicaRegions(t *testing.T) {
	seeds := []geo.Point{geo.Pt(100, 100), geo.Pt(900, 300), geo.Pt(400, 1100)}
	tab, _ := NewVoronoi(area1200, seeds)
	for k := workload.Key(0); k < 200; k++ {
		home, ok := tab.HomeRegion(k)
		if !ok {
			t.Fatal("no home region")
		}
		rep, ok := tab.ReplicaRegionAt(k, 1)
		if !ok || rep.ID == home.ID {
			t.Fatalf("key %d: replica %v vs home %v", k, rep.ID, home.ID)
		}
	}
}

func TestVoronoiCloneKeepsGeometry(t *testing.T) {
	tab, _ := NewVoronoi(area1200, []geo.Point{geo.Pt(100, 100), geo.Pt(900, 900)})
	cp := tab.Clone()
	if !cp.Voronoi() {
		t.Error("clone lost voronoi geometry")
	}
}
