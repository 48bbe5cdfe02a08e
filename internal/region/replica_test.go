package region

// Property tests for the k-replica ranking layer (DESIGN.md section 16):
// ReplicaRegionAt must agree with the home lookup at rank 0 and with the
// paper's second-nearest rule at rank 1 (including ties), produce pairwise-distinct regions across
// ranks, and rank purely by (distance to the hash location, region ID) —
// so the placement is a pure function of the table and key.

import (
	"sort"
	"testing"

	"precinct/internal/workload"
)

// rankTables builds the table shapes the ranking must hold on: grids of
// several granularities.
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
