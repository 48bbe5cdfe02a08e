package region

// Property tests for the k-replica ranking layer (DESIGN.md section 16):
// ReplicaRegionAt must agree with the home lookup at rank 0 and with the
// paper's second-nearest rule at rank 1 (including ties), produce pairwise-distinct regions across
// ranks, and rank purely by (distance to the hash location, region ID) —
// so the placement is a pure function of the table and key, invariant
// under how the table was assembled.

import (
	"math/rand"
	"sort"
	"testing"

	"precinct/internal/geo"
	"precinct/internal/workload"
)

// rankTables builds the table shapes the ranking must hold on: grids of
// several granularities and a fuzzed Voronoi partition.
func rankTables(t *testing.T) map[string]*Table {
	t.Helper()
	out := map[string]*Table{}
	for _, n := range []int{2, 4, 9, 16} {
		tab, err := NewGridN(area1200, n)
		if err != nil {
			t.Fatal(err)
		}
		out[funcName("grid", n)] = tab
	}
	rng := rand.New(rand.NewSource(99))
	seeds := make([]geo.Point, 12)
	for i := range seeds {
		seeds[i] = geo.Pt(rng.Float64()*1200, rng.Float64()*1200)
	}
	vor, err := NewVoronoi(area1200, seeds)
	if err != nil {
		t.Fatal(err)
	}
	out["voronoi12"] = vor
	return out
}

func funcName(base string, n int) string {
	return base + string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// TestReplicaRegionAtMatchesLegacyLookups pins the compatibility edge:
// rank 0 is HomeRegion and rank 1 is the paper's replica region — the
// nearest center other than the home region's, found by a full scan —
// key by key, on every table shape.
func TestReplicaRegionAtMatchesLegacyLookups(t *testing.T) {
	for name, tab := range rankTables(t) {
		for k := workload.Key(0); k < 500; k++ {
			home, ok := tab.HomeRegion(k)
			if !ok {
				t.Fatalf("%s: key %d has no home region", name, k)
			}
			r0, ok := tab.ReplicaRegionAt(k, 0)
			if !ok || r0.ID != home.ID {
				t.Fatalf("%s: key %d rank 0 = (%v, %v), home = %v", name, k, r0.ID, ok, home.ID)
			}
			rep := refNearestCenter(tab, tab.HashLocation(k), []ID{home.ID})
			r1, ok := tab.ReplicaRegionAt(k, 1)
			if !ok || r1.ID != rep.ID {
				t.Fatalf("%s: key %d rank 1 = (%v, %v), second-nearest scan = %v", name, k, r1.ID, ok, rep.ID)
			}
		}
	}
}

// TestReplicaRegionAtRanking verifies the semantics directly: rank r is
// the (r+1)-th region in the full (distance², ID) ordering of region
// centers around the key's hash location, all served ranks are pairwise
// distinct, and out-of-range ranks report !ok.
func TestReplicaRegionAtRanking(t *testing.T) {
	for name, tab := range rankTables(t) {
		for k := workload.Key(0); k < 300; k++ {
			p := tab.HashLocation(k)
			// Reference ranking: sort all regions by (distance², ID).
			ref := append([]Region(nil), tab.Regions()...)
			sort.Slice(ref, func(i, j int) bool {
				di, dj := ref[i].Center().Dist2(p), ref[j].Center().Dist2(p)
				if di != dj {
					return di < dj
				}
				return ref[i].ID < ref[j].ID
			})
			maxServed := MaxReplicaRank
			if tab.Len()-1 < maxServed {
				maxServed = tab.Len() - 1
			}
			seen := map[ID]bool{}
			for r := 0; r <= maxServed; r++ {
				got, ok := tab.ReplicaRegionAt(k, r)
				if !ok {
					t.Fatalf("%s: key %d rank %d not served on a %d-region table", name, k, r, tab.Len())
				}
				if got.ID != ref[r].ID {
					t.Fatalf("%s: key %d rank %d = region %d, reference ranking says %d",
						name, k, r, int(got.ID), int(ref[r].ID))
				}
				if seen[got.ID] {
					t.Fatalf("%s: key %d rank %d repeats region %d", name, k, r, int(got.ID))
				}
				seen[got.ID] = true
			}
			for _, bad := range []int{-1, MaxReplicaRank + 1, tab.Len()} {
				if _, ok := tab.ReplicaRegionAt(k, bad); ok && (bad < 0 || bad > MaxReplicaRank || bad >= tab.Len()) {
					t.Fatalf("%s: key %d rank %d served, want rejected", name, k, bad)
				}
			}
		}
	}
}

// TestReplicaRegionAtSeedPermutationInvariance is the metamorphic half:
// a Voronoi table built from a permutation of the same seed points
// assigns every (key, rank) pair to the same region center — region IDs
// differ, geometry does not. This proves the ranking depends only on
// the partition's geometry, not on construction order.
func TestReplicaRegionAtSeedPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seeds := make([]geo.Point, 10)
	for i := range seeds {
		seeds[i] = geo.Pt(rng.Float64()*1200, rng.Float64()*1200)
	}
	base, err := NewVoronoi(area1200, seeds)
	if err != nil {
		t.Fatal(err)
	}
	perm := make([]geo.Point, len(seeds))
	for i, j := range rng.Perm(len(seeds)) {
		perm[i] = seeds[j]
	}
	permuted, err := NewVoronoi(area1200, perm)
	if err != nil {
		t.Fatal(err)
	}
	for k := workload.Key(0); k < 400; k++ {
		for r := 0; r <= 4; r++ {
			a, okA := base.ReplicaRegionAt(k, r)
			b, okB := permuted.ReplicaRegionAt(k, r)
			if okA != okB {
				t.Fatalf("key %d rank %d: served=%v on base, %v on permuted", k, r, okA, okB)
			}
			if !okA {
				continue
			}
			if a.Center() != b.Center() {
				t.Fatalf("key %d rank %d: center %v on base, %v after seed permutation",
					k, r, a.Center(), b.Center())
			}
		}
	}
}

// TestReplicaRegionAtStableUnderClone guards custody recomputability: a
// cloned table must rank identically to its original for every key and
// rank, so rank-r custodians survive the table versioning that region
// operations (Separate/Merge/Add/Delete) go through.
func TestReplicaRegionAtStableUnderClone(t *testing.T) {
	tab, err := NewGridN(area1200, 9)
	if err != nil {
		t.Fatal(err)
	}
	clone := tab.Clone()
	for k := workload.Key(0); k < 300; k++ {
		for r := 0; r <= MaxReplicaRank; r++ {
			a, okA := tab.ReplicaRegionAt(k, r)
			b, okB := clone.ReplicaRegionAt(k, r)
			if okA != okB || (okA && a.ID != b.ID) {
				t.Fatalf("key %d rank %d: (%v,%v) on original, (%v,%v) on clone",
					k, r, a.ID, okA, b.ID, okB)
			}
		}
	}
}
