package radio

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"precinct/internal/geo"
	"precinct/internal/mobility"
	"precinct/internal/sim"
)

// orderChannel builds a waypoint-mobility channel for the determinism
// tests.
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

// appendLinearNeighbors is the O(N) scan the grid index replaced: test
// every node's true position against the range. It reads every node's
// position, dead ones included, as a grid rebuild at the same instant
// does.
func appendLinearNeighbors(ch *Channel, buf []Neighbor, id NodeID) []Neighbor {
	self := ch.position(int(id))
	r2 := ch.cfg.Range * ch.cfg.Range
	for i := 0; i < ch.mob.Len(); i++ {
		p := ch.position(i)
		if i != int(id) && ch.live[i] && self.Dist2(p) <= r2 {
			buf = append(buf, Neighbor{ID: NodeID(i), Pos: p})
		}
	}
	return buf
}

// appendLinearObserved is the location table as a scan: test every live
// node's observed position against the range around the querier's true
// position. Observing a node refreshes its beacon where stale, the
// querier's included, as the time-driven refresh does.
func appendLinearObserved(ch *Channel, buf []Neighbor, id NodeID) []Neighbor {
	self := ch.position(int(id))
	r2 := ch.cfg.Range * ch.cfg.Range
	for i := 0; i < ch.mob.Len(); i++ {
		if !ch.live[i] {
			continue
		}
		if p := ch.ObservedPosition(NodeID(i)); i != int(id) && self.Dist2(p) <= r2 {
			buf = append(buf, Neighbor{ID: NodeID(i), Pos: p})
		}
	}
	return buf
}

// requireSameNeighbors holds grid's index to the linear scan over lin, a
// second channel in the same state, for every node at the current
// instant: same set, strictly ascending by NodeID, no dead node and never
// the querier. Under beaconing it holds the location table to the
// observed scan the same way.
func requireSameNeighbors(t *testing.T, grid, lin *Channel, n int) {
	t.Helper()
	for id := NodeID(0); int(id) < n; id++ {
		requireSameAnswer(t, "neighbors", id, grid.Neighbors(id), appendLinearNeighbors(lin, nil, id), grid)
		if grid.beaconAt != nil {
			requireSameAnswer(t, "location table", id, grid.LocationTable(id), appendLinearObserved(lin, nil, id), grid)
		}
	}
}

// requireSameAnswer checks one query's answer g against the scan's l.
func requireSameAnswer(t *testing.T, what string, id NodeID, g, l []Neighbor, grid *Channel) {
	t.Helper()
	at := grid.sched.Now()
	for i, nb := range g {
		if i > 0 && g[i-1].ID >= nb.ID {
			t.Fatalf("t=%v node %d: %s not strictly ascending by ID: %v", at, id, what, g)
		}
		if nb.ID == id || !grid.Alive(nb.ID) {
			t.Fatalf("t=%v node %d: %s lists a dead node or the querier: %v", at, id, what, g)
		}
	}
	if fmt.Sprint(g) != fmt.Sprint(l) {
		t.Fatalf("t=%v node %d: %s %v != linear %v", at, id, what, g, l)
	}
}

// TestNeighborsDeterministicOrder is the regression test for the neighbor
// ordering contract: Neighbors must return exactly the set the linear
// scan of true positions returns, sorted by ascending NodeID, at every
// query time — with stale beacons and dead nodes in play, where
// LocationTable must return exactly the observed scan's set.
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
			grid, gridSched := orderChannel(t, n, cfg, 42)
			lin, linSched := orderChannel(t, n, cfg, 42)

			stale := 0 // location tables that differ from the Neighbors answer
			for _, at := range []float64{0, 1, 5, 5, 13.5, 30, 90} {
				gridSched.Run(at)
				linSched.Run(at)
				if at == 5 {
					// Kill a few nodes mid-run on both channels.
					for _, ch := range []*Channel{grid, lin} {
						ch.SetNodeAlive(7, false)
						ch.SetNodeAlive(23, false)
					}
				}
				requireSameNeighbors(t, grid, lin, n)
				for id := NodeID(0); int(id) < n; id++ {
					if fmt.Sprint(grid.Neighbors(id)) != fmt.Sprint(grid.LocationTable(id)) {
						stale++
					}
				}
			}
			if beaconed := cfg.BeaconInterval > 0; beaconed != (stale > 0) {
				t.Fatalf("beaconing %v, yet %d location tables differ from the Neighbors answer", beaconed, stale)
			}
		})
	}

	// The snapshot pre-filter at its limit: every node moves at MaxSpeed
	// all the time, and the clock creeps up to, onto and past the instant
	// the drift bound reaches the slack and the grid rebuilds. A guard band
	// that let rounding reject a true neighbor would show here as a node
	// the linear scan lists and the grid does not.
	t.Run("full-speed-across-rebuilds", func(t *testing.T) {
		const n, speed = 240, 20.0
		wcfg := mobility.DefaultWaypointConfig()
		wcfg.MinSpeed, wcfg.MaxSpeed, wcfg.Pause = speed, speed, 0
		build := func() *Channel {
			mob, err := mobility.NewWaypoint(n, wcfg, sim.NewRNG(5))
			if err != nil {
				t.Fatal(err)
			}
			ch, err := New(DefaultConfig(), sim.NewScheduler(), mob, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return ch
		}
		grid, lin := build(), build()

		slack := grid.grid.slack
		full := slack / speed // seconds from a rebuild to drift == slack
		var justUnder, atSlack, rebuilds int
		for cycle := 0; cycle < 4; cycle++ {
			requireSameNeighbors(t, grid, lin, n) // first query of the cycle rebuilds
			built := grid.grid.builtAt
			for _, dt := range []float64{full / 2, full - 1e-3, full - 1e-9, full, full + 1e-9} {
				grid.sched.Run(built + dt)
				lin.sched.Run(built + dt)
				requireSameNeighbors(t, grid, lin, n)
				switch d := grid.grid.drift; {
				case grid.grid.builtAt != built:
					rebuilds++
				case d == slack:
					atSlack++
				case d > slack-1e-6:
					justUnder++
				}
			}
		}
		if justUnder == 0 || atSlack == 0 || rebuilds == 0 {
			t.Fatalf("drift limit not straddled: %d queries just under the slack, %d at it, %d rebuilds past it",
				justUnder, atSlack, rebuilds)
		}
	})
}

// approach is a two-node model built to sit on the pre-filter's edge:
// node 0 stands still and node 1 closes in on it along the x axis at
// exactly MaxSpeed, so its distance from its snapshot position equals the
// drift bound at every instant.
type approach struct{ from, speed float64 }

func (approach) Len() int            { return 2 }
func (a approach) MaxSpeed() float64 { return a.speed }
func (a approach) Position(node int, now float64) geo.Point {
	if node == 0 {
		return geo.Pt(0, 0)
	}
	return geo.Pt(a.from-a.speed*now, 0)
}

// Leg returns the one leg each node is on for ever; its At computes
// exactly what Position does.
func (a approach) Leg(node int) mobility.Leg {
	if node == 0 {
		return mobility.Still(geo.Pt(0, 0), 0, math.Inf(1))
	}
	return mobility.Leg{From: geo.Pt(a.from, 0), Dir: geo.Pt(-1, 0), Speed: a.speed, Until: math.Inf(1)}
}

// TestSnapshotPrefilterKeepsEdgeNeighbor puts a node exactly Range away
// whose snapshot position is exactly Range+drift away — the one pair the
// pre-filter may not lose — for several speeds and starting offsets, the
// last of them the slack itself.
func TestSnapshotPrefilterKeepsEdgeNeighbor(t *testing.T) {
	cfg := DefaultConfig()
	slack := newGrid(0, cfg.Range, 0).slack
	for _, speed := range []float64{0.3, 1, 7, 20} {
		for _, lead := range []float64{1e-9, 0.1, 0.2768 * slack, slack} {
			// Node 1 starts lead meters out of range and is in range from
			// t = lead/speed on.
			sched := sim.NewScheduler()
			ch, err := New(cfg, sched, approach{from: cfg.Range + lead, speed: speed}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if nb := ch.Neighbors(0); len(nb) != 0 {
				t.Fatalf("speed %v lead %v: in range before the approach: %v", speed, lead, nb)
			}
			sched.Run(lead / speed)
			want := ch.Position(1).Dist2(geo.Pt(0, 0)) <= cfg.Range*cfg.Range
			if got := len(ch.Neighbors(0)) == 1; got != want {
				t.Fatalf("speed %v lead %v: at the range boundary the grid lists node 1: %v, exact test: %v (drift %v)",
					speed, lead, got, want, ch.grid.drift)
			}
			if ch.grid.builtAt != 0 {
				t.Fatalf("speed %v lead %v: the grid rebuilt; the snapshot was not exercised", speed, lead)
			}
		}
	}
}

// TestUnicastVerdictMatchesScan holds Unicast's verdict to the linear
// scan for every ordered pair, the sender itself and dead nodes included:
// a frame is deliverable iff both ends are live, they are two nodes, and
// their true positions are within range. Every node moves at MaxSpeed and
// the clock steps up to, onto and past the drift bound, so the verdicts
// come from candidate lists at every age of a snapshot. The beaconed
// channel's location tables list nodes that are out of range by true
// position; Unicast must refuse those.
func TestUnicastVerdictMatchesScan(t *testing.T) {
	const n, speed = 120, 20.0
	wcfg := mobility.DefaultWaypointConfig()
	wcfg.MinSpeed, wcfg.MaxSpeed, wcfg.Pause = speed, speed, 0
	beaconed := DefaultConfig()
	beaconed.BeaconInterval = 2
	for name, cfg := range map[string]Config{"perfect-knowledge": DefaultConfig(), "beaconed": beaconed} {
		t.Run(name, func(t *testing.T) {
			grid, lin := waypointPair(t, n, wcfg, cfg, 13)
			grid.SetHandler(func(NodeID, Frame) {})
			for _, ch := range []*Channel{grid, lin} {
				ch.SetNodeAlive(5, false)
				ch.SetNodeAlive(77, false)
			}
			r2 := cfg.Range * cfg.Range
			var sent, refused, staleListed int
			for cycle := 0; cycle < 3; cycle++ {
				grid.Neighbors(0) // the first query of the cycle rebuilds
				built := grid.grid.builtAt
				last := lastInstant(grid.grid)
				for _, at := range []float64{built, built + (last-built)/2, last, math.Nextafter(last, math.Inf(1))} {
					runBoth(grid, lin, at)
					for from := NodeID(0); int(from) < n; from++ {
						listed := map[NodeID]bool{}
						if grid.beaconAt != nil {
							for _, nb := range grid.LocationTable(from) {
								listed[nb.ID] = true
							}
						}
						for to := NodeID(0); int(to) < n; to++ {
							want := lin.Alive(from) && lin.Alive(to) && from != to &&
								lin.Position(from).Dist2(lin.Position(to)) <= r2
							if got := grid.Unicast(from, to, 100, nil); got != want {
								t.Fatalf("t=%v: Unicast(%d, %d) = %v, the scan says %v", at, from, to, got, want)
							}
							if want {
								sent++
							} else {
								refused++
								if listed[to] {
									staleListed++
								}
							}
						}
					}
				}
			}
			if sent == 0 || refused == 0 {
				t.Fatalf("%d pairs deliverable, %d refused: the verdict went untested one way", sent, refused)
			}
			if beaconed := cfg.BeaconInterval > 0; beaconed != (staleListed > 0) {
				t.Fatalf("beaconing %v, yet %d refused pairs were in the sender's location table", beaconed, staleListed)
			}
		})
	}
}

// TestNeighborsSameInstantReuse holds the remembered query to its rule: a
// repeat for the same node at the same instant is served from the buffer,
// and anything that could change the answer — a liveness change, the
// clock — makes the next answer fresh, even when it happens between two
// calls at one instant. The location table follows the same rule: a
// beacon refreshed at the same instant cannot be a live node's. Freshness
// is observed by scribbling on the returned buffer, which a recomputation
// overwrites.
func TestNeighborsSameInstantReuse(t *testing.T) {
	const poison = NodeID(-1)
	ids := func(nbrs []Neighbor) string {
		var out []NodeID
		for _, nb := range nbrs {
			out = append(out, nb.ID)
		}
		return fmt.Sprint(out)
	}
	// fresh queries id, requires the answer to be recomputed and returns it
	// poisoned for the next check.
	fresh := func(t *testing.T, ch *Channel, id NodeID, why string) []Neighbor {
		t.Helper()
		query := ch.Neighbors
		if ch.beaconAt != nil {
			query = ch.LocationTable
		}
		nb := query(id)
		if len(nb) == 0 {
			t.Fatalf("%s: node %d has no neighbors; nothing to observe", why, id)
		}
		if nb[0].ID == poison {
			t.Fatalf("%s: node %d was served the remembered answer", why, id)
		}
		got := append([]Neighbor(nil), nb...)
		nb[0].ID = poison
		return got
	}

	t.Run("liveness", func(t *testing.T) {
		ch, sched, _ := newChannel(t, DefaultConfig(), lineTopology(t, 3, 100), false)
		sched.Run(4)
		if got := ids(fresh(t, ch, 1, "first query")); got != "[0 2]" {
			t.Fatalf("neighbors of 1: %s", got)
		}
		if nb := ch.Neighbors(1); nb[0].ID != poison {
			t.Fatal("a same-instant repeat was recomputed")
		}
		ch.SetNodeAlive(2, false)
		if got := ids(fresh(t, ch, 1, "after a kill")); got != "[0]" {
			t.Fatalf("neighbors of 1 with 2 dead: %s", got)
		}
		ch.SetNodeAlive(2, true)
		if got := ids(fresh(t, ch, 1, "after a revive")); got != "[0 2]" {
			t.Fatalf("neighbors of 1 with 2 back: %s", got)
		}
		fresh(t, ch, 0, "another node")
		fresh(t, ch, 1, "back to the first node")
		sched.Run(5)
		fresh(t, ch, 1, "after the clock moved")
	})

	t.Run("beacon", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.BeaconInterval = 2
		ch, sched := orderChannel(t, 60, cfg, 42)
		ch.SetNodeAlive(9, false) // dead: its beacon is never refreshed by a query
		sched.Run(3)
		want := ids(fresh(t, ch, 0, "first query"))
		ch.ObservedPosition(9) // refreshes the dead node's stale beacon
		if nb := ch.LocationTable(0); nb[0].ID != poison {
			t.Fatal("a same-instant repeat was recomputed")
		}
		// The remembered answer was exact: recomputing gives the same set.
		ch.locs.valid = false
		if got := ids(fresh(t, ch, 0, "recomputed")); got != want {
			t.Fatalf("location table changed across a dead node's beacon: %s, was %s", got, want)
		}
		ch.SetNodeAlive(9, true)
		fresh(t, ch, 0, "after a revive")
		sched.Run(4)
		fresh(t, ch, 0, "after the clock moved")
	})
}

// TestPositionEpochWrap drives the epoch counter across the point where
// its low half — all a cached position is stamped with — wraps: no stamp
// from before may pass for current after.
func TestPositionEpochWrap(t *testing.T) {
	grid, _ := orderChannel(t, 60, DefaultConfig(), 42)
	lin, _ := orderChannel(t, 60, DefaultConfig(), 42)
	grid.epoch = 1<<32 - 3
	for step := 1; step <= 6; step++ {
		at := float64(step) * 2.5
		grid.sched.Run(at)
		lin.sched.Run(at)
		requireSameNeighbors(t, grid, lin, 60)
		if uint32(grid.epoch) == 0 {
			t.Fatal("epoch 0 marks a position never computed and must be skipped")
		}
	}
	if grid.epoch <= 1<<32 {
		t.Fatalf("epoch %d: the wrap was not crossed", grid.epoch)
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
// every node's true position, at instants spaced so the grid answers from
// a snapshot that has drifted (no rebuild between them), for rectangles
// inside, across and far outside the populated area, with and without
// beaconing. Interleaved Neighbors calls share the match scratch, so a
// query that left something behind would show up in the next one.
func TestAppendInRectMatchesScan(t *testing.T) {
	const n = 300
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
	beaconed := DefaultConfig()
	beaconed.BeaconInterval = 2
	for name, cfg := range map[string]Config{"perfect-knowledge": DefaultConfig(), "beaconed": beaconed} {
		ch, sched := orderChannel(t, n, cfg, 11)
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
				if got := ch.AppendInRect(nil, r); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s t=%v rect %v: AppendInRect %v, scan %v", name, at, r, got, want)
				}
				drifted = drifted || ch.grid.drift > 0
				ch.Neighbors(NodeID(rng.Intn(n)))
			}
		}
		if !drifted {
			t.Fatalf("%s: no query was answered from a drifted snapshot; the drift margin went untested", name)
		}
		// Appending keeps what the buffer already held.
		if got := ch.AppendInRect([]NodeID{-7}, rects[3]); len(got) != 1 || got[0] != -7 {
			t.Fatalf("%s: AppendInRect over an empty rectangle returned %v", name, got)
		}
	}
}

// requireSameFor is requireSameNeighbors for the listed nodes only.
func requireSameFor(t *testing.T, grid, lin *Channel, ids []NodeID) {
	t.Helper()
	for _, id := range ids {
		g := grid.Neighbors(id)
		for i, nb := range g {
			if i > 0 && g[i-1].ID >= nb.ID {
				t.Fatalf("t=%v node %d: neighbors not strictly ascending by ID: %v", grid.sched.Now(), id, g)
			}
		}
		if l := appendLinearNeighbors(lin, nil, id); !slices.Equal(g, l) {
			t.Fatalf("t=%v node %d: grid %v != linear %v", grid.sched.Now(), id, g, l)
		}
	}
}

// waypointPair builds two channels over identical waypoint models: one
// to query through the index, one for the linear scan.
func waypointPair(t *testing.T, n int, wcfg mobility.WaypointConfig, cfg Config, seed int64) (*Channel, *Channel) {
	t.Helper()
	build := func() *Channel {
		mob, err := mobility.NewWaypoint(n, wcfg, sim.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		ch, err := New(cfg, sim.NewScheduler(), mob, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	return build(), build()
}

// runBoth moves both channels' clocks to at.
func runBoth(grid, lin *Channel, at float64) {
	grid.sched.Run(at)
	lin.sched.Run(at)
}

// TestCandidateListsWithinSnapshot holds the per-node candidate lists to
// the linear scan across the life of one snapshot: lists built at every
// point of it and read at every later point up to the slack bound, legs
// and pauses that end inside it (where a record's leg no longer answers
// and the query falls back to the epoch cache and the model), and
// liveness flips.
func TestCandidateListsWithinSnapshot(t *testing.T) {
	t.Run("instants-to-slack", listsAcrossSnapshot)

	t.Run("legs-end-mid-snapshot", func(t *testing.T) {
		const n = 160
		wcfg := mobility.WaypointConfig{Area: geo.NewRect(geo.Pt(0, 0), geo.Pt(600, 600)), MinSpeed: 10, MaxSpeed: 20, Pause: 1}
		grid, lin := waypointPair(t, n, wcfg, DefaultConfig(), 4)
		var ended, restsEnded int
		for step := 1; step <= 120; step++ {
			runBoth(grid, lin, float64(step)*0.37)
			ids := make([]NodeID, 0, n)
			for i := step % 3; i < n; i += 3 {
				ids = append(ids, NodeID(i))
			}
			requireSameFor(t, grid, lin, ids)
			for _, rec := range grid.grid.recs {
				if rec.leg.Until <= grid.sched.Now() {
					ended++
					if rec.leg.Speed == 0 {
						restsEnded++
					}
				}
			}
		}
		if ended == 0 || restsEnded == 0 {
			t.Fatalf("%d records past their leg, %d of them pauses: the fallback went untested", ended, restsEnded)
		}
	})

	t.Run("liveness-flips", func(t *testing.T) {
		const n = 200
		wcfg := mobility.DefaultWaypointConfig()
		wcfg.MaxSpeed = 12
		grid, lin := waypointPair(t, n, wcfg, DefaultConfig(), 21)
		rng := rand.New(rand.NewSource(5))
		for step := 1; step <= 120; step++ {
			runBoth(grid, lin, float64(step)*0.45)
			for k := 0; k < 4; k++ {
				id, alive := NodeID(rng.Intn(n)), rng.Intn(3) > 0
				grid.SetNodeAlive(id, alive)
				lin.SetNodeAlive(id, alive)
				requireSameFor(t, grid, lin, []NodeID{NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), id})
			}
		}
		requireSameNeighbors(t, grid, lin, n)
	})
}

// lastInstant returns the last instant g's snapshot serves a query at:
// the latest t with maxSpeed·(t − builtAt) ≤ slack, ensureGrid's test,
// in floating point.
func lastInstant(g *grid) float64 {
	up, down := math.Inf(1), math.Inf(-1)
	t := g.builtAt + g.slack/g.maxSpeed
	for g.maxSpeed*(t-g.builtAt) > g.slack {
		t = math.Nextafter(t, down)
	}
	for next := math.Nextafter(t, up); g.maxSpeed*(next-g.builtAt) <= g.slack; next = math.Nextafter(t, up) {
		t = next
	}
	return t
}

// listsAcrossSnapshot runs three snapshots at full speed: in each, node i
// asks first at step i%steps of the slack window and again at every step
// after, so lists are built all through a snapshot and read up to its
// last instant.
func listsAcrossSnapshot(t *testing.T) {
	const n, speed, steps = 240, 20.0, 24
	wcfg := mobility.DefaultWaypointConfig()
	wcfg.MinSpeed, wcfg.MaxSpeed, wcfg.Pause = speed, speed, 0
	grid, lin := waypointPair(t, n, wcfg, DefaultConfig(), 9)
	for cycle := 0; cycle < 3; cycle++ {
		start := grid.sched.Now() + 0.01
		runBoth(grid, lin, start)
		grid.Neighbors(0) // rebuilds: the snapshot is taken at start
		built := grid.grid.builtAt
		last := lastInstant(grid.grid)
		for k := 0; k <= steps; k++ {
			at := built + (last-built)*float64(k)/steps
			if k == steps {
				at = last
			}
			runBoth(grid, lin, at)
			var ids []NodeID
			for i := 0; i < n; i++ {
				if i%steps <= k {
					ids = append(ids, NodeID(i))
				}
			}
			requireSameFor(t, grid, lin, ids)
			if grid.grid.builtAt != built {
				t.Fatalf("cycle %d step %d: the grid rebuilt inside the slack bound", cycle, k)
			}
		}
	}
}
