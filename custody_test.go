package precinct

import (
	"math"
	"testing"

	"precinct/internal/geo"
	"precinct/internal/radio"
	"precinct/internal/region"
)

// TestCustodyLoadClosedForm is the custody layer's analytic twin
// (DESIGN.md section 18). With one replica region on the static 3 × 3
// grid, key placement puts each key's home copy in the region whose
// center is nearest its hash location and its replica in the region
// whose center is second nearest. Read right after the build, the
// stores hold exactly two copies per key that has a home custodian, and
// region r holds Binomial(Items, 1/9 + P_rep(r)) copies, where P_rep(r)
// is the share of the area whose second-nearest center is r.
func TestCustodyLoadClosedForm(t *testing.T) {
	s := DefaultScenario()
	s.MobilityModel = "static"
	s.Replicas = 1
	s.Items = 10000
	b, err := s.build()
	if err != nil {
		t.Fatal(err)
	}
	table := b.network.Table()
	if table.Len() != 9 {
		t.Fatalf("%d regions, want the 3 × 3 grid", table.Len())
	}

	counts := make([]int, table.Len())
	total := 0
	for i := 0; i < b.network.Peers(); i++ {
		id := radio.NodeID(i)
		reg, _ := table.Locate(b.channel.Position(id))
		n := b.network.Peer(id).Store().Len()
		counts[reg.ID] += n
		total += n
	}
	if want := 2*s.Items - int(b.network.Stats().HomelessKeys); total != want {
		t.Fatalf("%d copies in the stores, want 2·Items − HomelessKeys = %d", total, want)
	}

	pRep := secondNearestShares(table.Regions(), table.Area(), 600)
	// The exact shares of section 18: corners 3/4, edges 5/4 and the
	// center 1 of the nine cell areas. Midpoint quadrature misses by
	// O(1/steps) along the partition's edges.
	for _, reg := range table.Regions() {
		row, col := int(reg.ID)/3, int(reg.ID)%3
		exact := 1.0 / 9
		switch {
		case row != 1 && col != 1:
			exact = 3.0 / 4 / 9
		case row != 1 || col != 1:
			exact = 5.0 / 4 / 9
		}
		if d := math.Abs(pRep[reg.ID] - exact); d > 1e-3 {
			t.Errorf("region %d: quadrature P_rep %.5f, closed form %.5f", reg.ID, pRep[reg.ID], exact)
		}
	}

	items := float64(s.Items)
	for r, got := range counts {
		p := 1.0/9 + pRep[r]
		mean := items * p
		sd := math.Sqrt(items * p * (1 - p))
		z := (float64(got) - mean) / sd
		t.Logf("region %d: %d copies, mean %.1f, sd %.1f, z %+.2f", r, got, mean, sd, z)
		if math.Abs(z) > 4 {
			t.Errorf("region %d holds %d copies, want %.1f ± 4·%.1f (z = %.2f)", r, got, mean, sd, z)
		}
	}
}

// secondNearestShares returns, for each region, the share of the area
// whose second-nearest region center it is, by the midpoint rule on a
// steps × steps lattice. Ties, a set of measure zero, go to the lower ID.
func secondNearestShares(regions []region.Region, area geo.Rect, steps int) []float64 {
	shares := make([]float64, len(regions))
	for i := 0; i < steps; i++ {
		for j := 0; j < steps; j++ {
			p := geo.Pt(area.Min.X+(float64(i)+0.5)/float64(steps)*area.Width(),
				area.Min.Y+(float64(j)+0.5)/float64(steps)*area.Height())
			first, second := -1, -1
			var d1, d2 float64
			for r, reg := range regions {
				d := reg.Center().Dist2(p)
				switch {
				case first < 0 || d < d1:
					first, second, d1, d2 = r, first, d, d1
				case second < 0 || d < d2:
					second, d2 = r, d
				}
			}
			shares[second]++
		}
	}
	for r := range shares {
		shares[r] /= float64(steps * steps)
	}
	return shares
}
