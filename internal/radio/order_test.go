package radio

import (
	"fmt"
	"math/rand"
	"testing"

	"precinct/internal/geo"
	"precinct/internal/mobility"
	"precinct/internal/sim"
)

// orderChannel builds a waypoint-mobility channel for the determinism
// tests; grid vs linear scan is the only difference between invocations.
func orderChannel(t *testing.T, n int, cfg Config, seed int64) (*Channel, *sim.Scheduler) {
	t.Helper()
	sched := sim.NewScheduler()
	mob, err := mobility.NewWaypoint(n, mobility.DefaultWaypointConfig(), sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := New(cfg, sched, mob, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ch, sched
}

// TestNeighborsDeterministicOrder is the regression test for the neighbor
// ordering contract: under the spatial grid index, Neighbors must return
// exactly the set the retained linear scan returns, sorted by ascending
// NodeID, at every query time — including with stale beacons and dead
// nodes in play.
func TestNeighborsDeterministicOrder(t *testing.T) {
	const n = 60
	configs := map[string]func(*Config){
		"perfect-knowledge": func(*Config) {},
		"beaconed":          func(c *Config) { c.BeaconInterval = 2 },
	}
	for name, mut := range configs {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			mut(&cfg)
			linCfg := cfg
			linCfg.LinearScan = true

			grid, gridSched := orderChannel(t, n, cfg, 42)
			lin, linSched := orderChannel(t, n, linCfg, 42)

			// Kill a few nodes mid-run on both channels.
			dead := map[NodeID]bool{}
			alive := func(id NodeID) bool { return !dead[id] }
			grid.SetAlive(alive)
			lin.SetAlive(alive)

			for step, at := range []float64{0, 1, 5, 5, 13.5, 30, 90} {
				gridSched.At(at, func() {})
				linSched.At(at, func() {})
				gridSched.Run(at)
				linSched.Run(at)
				if at == 5 {
					dead[7] = true
					dead[23] = true
				}
				for id := NodeID(0); id < n; id++ {
					g := grid.Neighbors(id)
					for i := 1; i < len(g); i++ {
						if g[i-1].ID >= g[i].ID {
							t.Fatalf("t=%v node %d: neighbors not strictly ascending by ID: %v", at, id, g)
						}
					}
					l := lin.Neighbors(id)
					if fmt.Sprint(g) != fmt.Sprint(l) {
						t.Fatalf("t=%v (step %d) node %d: grid %v != linear %v", at, step, id, g, l)
					}
					for _, nb := range g {
						if dead[nb.ID] {
							t.Fatalf("t=%v node %d: dead node %d listed as neighbor", at, id, nb.ID)
						}
					}
				}
			}
		})
	}
}

// TestNeighborsBufferReuse documents the ownership rule of the returned
// slice: it is valid only until the next Neighbors call on the channel.
func TestNeighborsBufferReuse(t *testing.T) {
	ch, _ := orderChannel(t, 30, DefaultConfig(), 7)
	a := ch.Neighbors(0)
	b := ch.Neighbors(0)
	if len(a) > 0 && &a[0] != &b[0] {
		t.Error("Neighbors did not reuse its buffer across calls")
	}
}

// TestAppendInRectMatchesScan holds the rectangle query to a test of
// every node, at instants spaced so the grid answers from a snapshot that
// has drifted (no rebuild between them), for rectangles inside, across
// and far outside the populated area; and checks it declines where the
// grid does not index true positions. Interleaved Neighbors calls share
// the mark bitset, so a query that left a bit behind would show up in
// the next one.
func TestAppendInRectMatchesScan(t *testing.T) {
	const n = 300
	ch, sched := orderChannel(t, n, DefaultConfig(), 11)
	rng := rand.New(rand.NewSource(3))
	rects := []geo.Rect{
		geo.NewRect(geo.Pt(0, 0), geo.Pt(1200, 1200)),              // everything
		geo.NewRect(geo.Pt(400, 400), geo.Pt(800, 800)),            // one 3×3 region
		geo.NewRect(geo.Pt(-1e12, -1e12), geo.Pt(1e12, 1e12)),      // beyond any cell coordinate
		geo.NewRect(geo.Pt(5000, 5000), geo.Pt(5400, 5400)),        // nobody there
		geo.NewRect(geo.Pt(-300, 100), geo.Pt(50, 1300)),           // straddles the rim
		geo.NewRect(geo.Pt(600, 600), geo.Pt(600, 600)),            // a point
		geo.NewRect(geo.Pt(1e300, 1e300), geo.Pt(1e301, 1e301)),    // cell arithmetic overflows int32
		geo.NewRect(geo.Pt(-1e301, -1e301), geo.Pt(-1e300, 1e300)), // likewise, other side
	}
	for i := 0; i < 40; i++ {
		a := geo.Pt(rng.Float64()*1400-100, rng.Float64()*1400-100)
		b := geo.Pt(rng.Float64()*1400-100, rng.Float64()*1400-100)
		rects = append(rects, geo.NewRect(a, b))
	}
	drifted := false
	for _, at := range []float64{0, 0.7, 1.9, 4, 4, 9.5, 40} {
		sched.Run(at)
		for _, r := range rects {
			var want []NodeID
			for i := 0; i < n; i++ {
				if r.Contains(ch.Position(NodeID(i))) {
					want = append(want, NodeID(i))
				}
			}
			got, ok := ch.AppendInRect(nil, r)
			if !ok {
				t.Fatalf("t=%v: AppendInRect declined on a grid of true positions", at)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("t=%v rect %v: AppendInRect %v, scan %v", at, r, got, want)
			}
			drifted = drifted || ch.grid.drift > 0
			ch.Neighbors(NodeID(rng.Intn(n)))
		}
	}
	if !drifted {
		t.Fatal("no query was answered from a drifted snapshot; the drift margin went untested")
	}
	for _, w := range ch.markBuf {
		if w != 0 {
			t.Fatal("the mark bitset was left dirty")
		}
	}

	// Appending keeps what the buffer already held.
	if got, _ := ch.AppendInRect([]NodeID{-7}, rects[3]); len(got) != 1 || got[0] != -7 {
		t.Fatalf("AppendInRect over an empty rectangle returned %v", got)
	}

	lin := DefaultConfig()
	lin.LinearScan = true
	beaconed := DefaultConfig()
	beaconed.BeaconInterval = 2
	for name, cfg := range map[string]Config{"linear scan": lin, "beaconing": beaconed} {
		c, _ := orderChannel(t, n, cfg, 11)
		if got, ok := c.AppendInRect(nil, rects[0]); ok || len(got) != 0 {
			t.Errorf("%s: AppendInRect answered (%d nodes, ok=%v) without an index of true positions", name, len(got), ok)
		}
	}
}
