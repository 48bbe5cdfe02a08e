package mobility

// The reference oracle for Waypoint.Position: the body the model had
// before the per-leg constants (arrival, dir) were hoisted out of the
// query, kept here verbatim. The production model must agree with it
// bit for bit — same floats, same anchors, same random draws — over any
// non-decreasing query pattern.

import (
	"fmt"
	"math/rand"
	"testing"

	"precinct/internal/geo"
	"precinct/internal/sim"
)

type refWaypointNode struct {
	pos        geo.Point
	at         float64
	seen       float64
	dest       geo.Point
	speed      float64
	pauseUntil float64
	rng        *rand.Rand
}

type refWaypoint struct {
	cfg   WaypointConfig
	nodes []refWaypointNode
}

func newRefWaypoint(n int, cfg WaypointConfig, seed int64) *refWaypoint {
	rng := sim.NewRNG(seed)
	w := &refWaypoint{cfg: cfg, nodes: make([]refWaypointNode, n)}
	for i := range w.nodes {
		s := rng.Stream(fmt.Sprintf("mobility/%d", i))
		nd := &w.nodes[i]
		nd.rng = s
		nd.pos = w.randomPoint(s)
		nd.at = 0
		w.newLeg(nd)
	}
	return w
}

func (w *refWaypoint) randomPoint(rng *rand.Rand) geo.Point {
	return geo.Pt(
		w.cfg.Area.Min.X+rng.Float64()*w.cfg.Area.Width(),
		w.cfg.Area.Min.Y+rng.Float64()*w.cfg.Area.Height(),
	)
}

func (w *refWaypoint) newLeg(nd *refWaypointNode) {
	for attempt := 0; attempt < 8; attempt++ {
		dest := w.randomPoint(nd.rng)
		if dest.Dist(nd.pos) > 1e-9 {
			nd.dest = dest
			nd.speed = w.cfg.MinSpeed + nd.rng.Float64()*(w.cfg.MaxSpeed-w.cfg.MinSpeed)
			return
		}
	}
	nd.dest = nd.pos
	nd.speed = w.cfg.MinSpeed
	nd.pauseUntil = nd.at + w.cfg.Pause + 1e-3
}

func (w *refWaypoint) Position(node int, now float64) geo.Point {
	nd := &w.nodes[node]
	if now < nd.seen {
		panic(fmt.Sprintf("mobility: time went backwards for node %d: %v < %v", node, now, nd.seen))
	}
	nd.seen = now
	for {
		if nd.pauseUntil > nd.at { // anchored at a pause
			if now < nd.pauseUntil {
				return nd.pos
			}
			nd.at = nd.pauseUntil
			w.newLeg(nd)
			continue
		}
		remaining := nd.pos.Dist(nd.dest)
		if remaining <= 1e-12 {
			nd.pauseUntil = nd.at + w.cfg.Pause
			if w.cfg.Pause == 0 {
				w.newLeg(nd)
			}
			continue
		}
		arrival := nd.at + remaining/nd.speed
		if arrival <= now {
			nd.pos = nd.dest
			nd.at = arrival
			nd.pauseUntil = arrival + w.cfg.Pause
			if w.cfg.Pause == 0 {
				w.newLeg(nd)
			}
			continue
		}
		dir := nd.dest.Sub(nd.pos).Scale(1 / remaining)
		return nd.pos.Add(dir.Scale(nd.speed * (now - nd.at)))
	}
}

func (w *refWaypoint) Speed(node int, now float64) float64 {
	w.Position(node, now)
	nd := &w.nodes[node]
	if nd.pauseUntil > now {
		return 0
	}
	return nd.speed
}

// requireSameAnchors holds every node's anchor (where it was, when, where
// it is going, how fast, until when it pauses) to the reference's, field
// for field.
func requireSameAnchors(t *testing.T, w *Waypoint, ref *refWaypoint) {
	t.Helper()
	for i := range ref.nodes {
		nd, r := &w.nodes[i], &ref.nodes[i]
		if nd.pos != r.pos || nd.at != r.at || nd.seen != r.seen ||
			nd.dest != r.dest || nd.speed != r.speed || nd.pauseUntil != r.pauseUntil {
			t.Fatalf("node %d anchor diverged:\n got  %+v\n want %+v", i, *nd, *r)
		}
	}
}

func TestWaypointMatchesReference(t *testing.T) {
	const nodes, steps = 6, 500
	for _, pause := range []float64{0, 5} {
		for seed := int64(1); seed <= 24; seed++ {
			cfg := WaypointConfig{Area: testArea, MinSpeed: 0.5, MaxSpeed: 20, Pause: pause}
			w := waypointFor(t, nodes, cfg, seed)
			ref := newRefWaypoint(nodes, cfg, seed)
			pat := rand.New(rand.NewSource(seed*7919 + int64(pause)))
			now := 0.0
			for step := 0; step < steps; step++ {
				switch pat.Intn(6) {
				case 0: // same instant again
				case 1:
					now += pat.Float64() * 0.01
				case 2:
					now += pat.Float64() * 3
				case 3:
					now += pat.Float64() * 150
				default:
					// Land exactly on a leg boundary, where `arrival <=
					// now` flips.
					if a := w.nodes[pat.Intn(nodes)].arrival; a > now {
						now = a
					}
				}
				// A random subset, so nodes fall behind each other.
				for i := 0; i < nodes; i++ {
					if pat.Intn(3) == 0 {
						continue
					}
					if pat.Intn(8) == 0 {
						if got, want := w.Speed(i, now), ref.Speed(i, now); got != want {
							t.Fatalf("pause %v seed %d step %d: Speed(%d, %v) = %v, reference %v",
								pause, seed, step, i, now, got, want)
						}
					}
					if got, want := w.Position(i, now), ref.Position(i, now); got != want {
						t.Fatalf("pause %v seed %d step %d: Position(%d, %v) = %v, reference %v",
							pause, seed, step, i, now, got, want)
					}
				}
				if pat.Intn(4) == 0 {
					requireSameAnchors(t, w, ref)
				}
			}
			requireSameAnchors(t, w, ref)
		}
	}
}
