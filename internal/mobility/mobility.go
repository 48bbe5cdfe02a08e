// Package mobility provides node movement models for the simulator: the
// random waypoint model the paper evaluates under (uniform destination in
// the service area, uniform speed up to a maximum, fixed pause between
// legs — Section 6.1 uses a 5 s pause and maximum speeds of 2–20 m/s) and
// a static placement model for the Section 6.2.3 validation topology.
//
// Positions are computed lazily and on demand: a model answers "where is
// node i at time t" for non-decreasing t, which is exactly the access
// pattern of a discrete-event simulation. Each node consumes its own
// random stream, so trajectories do not depend on the interleaving of
// position queries across nodes.
package mobility

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"precinct/internal/geo"
	"precinct/internal/sim"
)

// Model answers position queries for a fixed set of nodes. Queries must
// use non-decreasing time per node; models may advance internal state.
//
// Positions are anchored: between waypoint legs a position is computed
// analytically from the last leg boundary, so Position(i, t) returns
// bit-identical results no matter which intermediate times were queried
// before t. Consumers such as the radio layer's spatial index rely on
// that property — it lets them query only a subset of nodes without
// perturbing anyone's trajectory.
type Model interface {
	// Len returns the number of nodes.
	Len() int
	// Position returns the location of the node at simulation time now.
	Position(node int, now float64) geo.Point
	// MaxSpeed returns an upper bound on any node's speed in m/s. The
	// radio layer's spatial index uses it to serve neighbor queries from
	// a slightly stale grid snapshot: a node can have drifted at most
	// MaxSpeed()*age meters since the snapshot.
	MaxSpeed() float64
	// Leg returns the stretch of trajectory the node is on as of the
	// latest time Position was asked about it: for every t from then
	// until Leg(node).Until, Position(node, t) would return exactly
	// Leg(node).At(t). Asking changes nothing. The radio layer's index
	// copies each node's leg into its snapshot, so a neighbor query
	// computes a position from the line it already reads.
	Leg(node int) Leg
}

// Leg is a stretch of trajectory on which a node's position is a closed
// form of time: it leaves From at Start, heading Dir (a unit vector) at
// Speed, and the form holds until Until. A node at rest is a leg of
// speed 0 whose Dir is negative zero (see At).
type Leg struct {
	From  geo.Point
	Dir   geo.Point
	Speed float64
	Start float64
	Until float64
}

// negZero is -0.0, the direction of a leg at rest.
var negZero = math.Copysign(0, -1)

// Still returns the leg of a node that stays at p from time start until
// time until.
func Still(p geo.Point, start, until float64) Leg {
	return Leg{From: p, Dir: geo.Pt(negZero, negZero), Start: start, Until: until}
}

// At returns the position at time t, for Start <= t < Until. It is the
// one expression of a moving node's position: Waypoint.Position returns
// through it, so a copy of the leg answers bit for bit what the model
// would. Each product is rounded before it is added (the explicit
// conversion forbids fusing the two into one multiply-add), so the bits
// are the same on every architecture. At rest the offset is -0, and
// adding -0 leaves every coordinate as it is, -0 included.
func (l Leg) At(t float64) geo.Point {
	s := l.Speed * (t - l.Start)
	return geo.Point{X: l.From.X + float64(l.Dir.X*s), Y: l.From.Y + float64(l.Dir.Y*s)}
}

// Static places nodes once and never moves them.
type Static struct {
	pos []geo.Point
}

// NewStatic wraps explicit positions.
func NewStatic(pos []geo.Point) (*Static, error) {
	if len(pos) == 0 {
		return nil, fmt.Errorf("mobility: static model needs at least one node")
	}
	cp := make([]geo.Point, len(pos))
	copy(cp, pos)
	return &Static{pos: cp}, nil
}

// NewUniformStatic places n nodes uniformly at random in the area.
func NewUniformStatic(n int, area geo.Rect, rng *rand.Rand) (*Static, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mobility: need at least one node, got %d", n)
	}
	if area.Width() <= 0 || area.Height() <= 0 {
		return nil, fmt.Errorf("mobility: degenerate area %v", area)
	}
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Pt(
			area.Min.X+float64(rng.Float64()*area.Width()),
			area.Min.Y+float64(rng.Float64()*area.Height()),
		)
	}
	return &Static{pos: pos}, nil
}

// NewGridStatic places n nodes on a jittered grid covering the area. The
// jitter fraction (0..0.5) perturbs each node within its grid cell; zero
// yields a perfect lattice. Grid placement guarantees connectivity for
// validation topologies where random placement might partition the net.
func NewGridStatic(n int, area geo.Rect, jitter float64, rng *rand.Rand) (*Static, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mobility: need at least one node, got %d", n)
	}
	if jitter < 0 || jitter > 0.5 {
		return nil, fmt.Errorf("mobility: jitter must be in [0, 0.5], got %v", jitter)
	}
	cols := 1
	for cols*cols < n {
		cols++
	}
	rows := (n + cols - 1) / cols
	cw := area.Width() / float64(cols)
	ch := area.Height() / float64(rows)
	pos := make([]geo.Point, n)
	for i := range pos {
		r, c := i/cols, i%cols
		cx := area.Min.X + float64((float64(c)+0.5)*cw)
		cy := area.Min.Y + float64((float64(r)+0.5)*ch)
		if jitter > 0 {
			// The conversions round each draw: the compiler turns u*2
			// into u+u and would fuse it with Float64's own scaling.
			u := float64(rng.Float64())*2 - 1
			cx += float64(u * jitter * cw)
			u = float64(rng.Float64())*2 - 1
			cy += float64(u * jitter * ch)
		}
		pos[i] = area.Clamp(geo.Pt(cx, cy))
	}
	return &Static{pos: pos}, nil
}

// Len implements Model.
func (s *Static) Len() int { return len(s.pos) }

// Position implements Model.
func (s *Static) Position(node int, _ float64) geo.Point { return s.pos[node] }

// MaxSpeed implements Model: static nodes never move.
func (s *Static) MaxSpeed() float64 { return 0 }

// Leg implements Model: a static node rests where it was placed, for
// ever.
func (s *Static) Leg(node int) Leg { return Still(s.pos[node], 0, math.Inf(1)) }

// WaypointConfig parameterizes the random waypoint model.
type WaypointConfig struct {
	Area     geo.Rect
	MinSpeed float64 // m/s, must be > 0 to avoid the well-known speed-decay pathology
	MaxSpeed float64 // m/s
	Pause    float64 // seconds spent at each waypoint
}

// DefaultWaypointConfig mirrors the paper's mobile scenarios: 1200×1200 m
// area, 5 s pause. MaxSpeed is scenario-specific (2–20 m/s); 6 m/s is the
// cache-replacement experiments' setting.
func DefaultWaypointConfig() WaypointConfig {
	return WaypointConfig{
		Area:     geo.NewRect(geo.Pt(0, 0), geo.Pt(1200, 1200)),
		MinSpeed: 0.5,
		MaxSpeed: 6,
		Pause:    5,
	}
}

// waypointNode is the per-node trajectory state. pos/at anchor the node at
// the start of its current leg (or pause); positions between boundaries
// are computed analytically from the anchor, never stored, so a query's
// result does not depend on which intermediate times were queried.
//
// arrival and dir are per-leg constants derived from the anchor by
// anchorLeg — recomputed wherever pos, dest, speed, at or pauseUntil
// change — so a mid-leg query costs one compare and Leg.At instead of a
// hypot and two divides.
type waypointNode struct {
	// What a mid-leg query reads comes first.
	seen float64 // latest query time (monotonicity contract)
	// arrival is when the current leg reaches dest; notMoving while the
	// node is anchored at a pause or on a zero-length leg, so that
	// `now < arrival` alone decides the mid-leg fast path.
	arrival float64
	at      float64 // anchor time: the last leg/pause boundary crossed
	speed   float64
	pos     geo.Point // anchor: where the node was at time at
	dir     geo.Point // unit vector toward dest; meaningful iff arrival != notMoving
	dest    geo.Point

	pauseUntil float64 // > at while the node is pausing at pos
}

// notMoving is the arrival sentinel of a node with no leg under way.
var notMoving = math.Inf(-1)

// anchorLeg derives the leg constants from the anchor state. It must run
// after every change to pos, dest, speed, at or pauseUntil.
func (nd *waypointNode) anchorLeg() {
	nd.arrival = notMoving
	if nd.pauseUntil > nd.at {
		return
	}
	remaining := nd.pos.Dist(nd.dest)
	if remaining <= 1e-12 {
		return
	}
	nd.arrival = nd.at + remaining/nd.speed
	nd.dir = nd.dest.Sub(nd.pos).Scale(1 / remaining)
}

// leg returns the node's current leg. It is a moving leg while one is
// under way, a rest while the node pauses, and otherwise (between a
// boundary and the Position call that crosses it) a leg that is already
// over.
func (nd *waypointNode) leg() Leg {
	if nd.arrival == notMoving {
		if nd.pauseUntil > nd.at {
			return Still(nd.pos, nd.at, nd.pauseUntil)
		}
		return Leg{From: nd.pos, Start: nd.at, Until: notMoving}
	}
	return nd.moving()
}

// moving returns the leg under way; arrival must not be notMoving.
func (nd *waypointNode) moving() Leg {
	return Leg{From: nd.pos, Dir: nd.dir, Speed: nd.speed, Start: nd.at, Until: nd.arrival}
}

// Waypoint implements the random waypoint model.
type Waypoint struct {
	cfg   WaypointConfig
	nodes []waypointNode
	// rngs holds each node's stream beside, not inside, its state: the
	// nodes array then carries no pointers and the collector never scans
	// it.
	rngs []*rand.Rand
}

// NewWaypoint creates n nodes placed uniformly in the area, each starting
// with an independent first leg. Streams are derived per node from rng, so
// node i's trajectory is a pure function of (seed, i).
func NewWaypoint(n int, cfg WaypointConfig, rng *sim.RNG) (*Waypoint, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mobility: need at least one node, got %d", n)
	}
	if cfg.Area.Width() <= 0 || cfg.Area.Height() <= 0 {
		return nil, fmt.Errorf("mobility: degenerate area %v", cfg.Area)
	}
	if cfg.MinSpeed <= 0 || cfg.MaxSpeed < cfg.MinSpeed {
		return nil, fmt.Errorf("mobility: invalid speed range [%v, %v]", cfg.MinSpeed, cfg.MaxSpeed)
	}
	if cfg.Pause < 0 {
		return nil, fmt.Errorf("mobility: negative pause %v", cfg.Pause)
	}
	w := &Waypoint{cfg: cfg, nodes: make([]waypointNode, n), rngs: make([]*rand.Rand, n)}
	name := append(make([]byte, 0, 32), "mobility/"...)
	for i := range w.nodes {
		s := rng.Stream(string(strconv.AppendInt(name, int64(i), 10)))
		w.rngs[i] = s
		nd := &w.nodes[i]
		nd.pos = w.randomPoint(s)
		nd.at = 0
		w.newLeg(nd, s)
	}
	return w, nil
}

func (w *Waypoint) randomPoint(rng *rand.Rand) geo.Point {
	return geo.Pt(
		w.cfg.Area.Min.X+float64(rng.Float64()*w.cfg.Area.Width()),
		w.cfg.Area.Min.Y+float64(rng.Float64()*w.cfg.Area.Height()),
	)
}

// newLeg draws a fresh destination and speed for the node. Destinations
// coinciding with the current position are resampled; should resampling
// ever fail (probability zero for non-degenerate areas) the node simply
// pauses in place for one more pause period.
func (w *Waypoint) newLeg(nd *waypointNode, rng *rand.Rand) {
	for attempt := 0; attempt < 8; attempt++ {
		dest := w.randomPoint(rng)
		if dest.Dist(nd.pos) > 1e-9 {
			nd.dest = dest
			nd.speed = w.cfg.MinSpeed + float64(rng.Float64()*(w.cfg.MaxSpeed-w.cfg.MinSpeed))
			nd.anchorLeg()
			return
		}
	}
	nd.dest = nd.pos
	nd.speed = w.cfg.MinSpeed
	nd.pauseUntil = nd.at + w.cfg.Pause + 1e-3
	nd.anchorLeg()
}

// Len implements Model.
func (w *Waypoint) Len() int { return len(w.nodes) }

// Position implements Model. Time must be non-decreasing per node.
//
// The anchor (pos/at) only advances across leg and pause boundaries, whose
// times are pure functions of the trajectory; mid-leg positions are
// computed analytically from the anchor. The result is therefore
// bit-identical regardless of which intermediate times were queried.
func (w *Waypoint) Position(node int, now float64) geo.Point {
	nd := &w.nodes[node]
	if now < nd.seen {
		panic(fmt.Sprintf("mobility: time went backwards for node %d: %v < %v", node, now, nd.seen))
	}
	nd.seen = now
	for {
		if now < nd.arrival {
			// Mid-leg: analytic position from the anchor; no mutation.
			return nd.moving().At(now)
		}
		if nd.pauseUntil > nd.at { // anchored at a pause
			if now < nd.pauseUntil {
				return nd.pos
			}
			nd.at = nd.pauseUntil
			w.newLeg(nd, w.rngs[node])
			continue
		}
		if nd.arrival == notMoving {
			// Zero-length leg: pause in place. A degenerate newLeg
			// (resampling failed) schedules its own pause, so the loop
			// always progresses even with Pause == 0. A pause too short
			// to move the clock (at + Pause == at) is no pause either.
			nd.pauseUntil = nd.at + w.cfg.Pause
			if nd.pauseUntil <= nd.at {
				w.newLeg(nd, w.rngs[node])
			}
			continue
		}
		// Arrived: anchor at the destination and start its pause.
		nd.pos = nd.dest
		nd.at = nd.arrival
		nd.pauseUntil = nd.arrival + w.cfg.Pause
		if nd.pauseUntil <= nd.at {
			w.newLeg(nd, w.rngs[node])
		} else {
			nd.anchorLeg()
		}
	}
}

// Speed returns the node's current speed in m/s (0 while pausing). It
// advances the node to time now first.
func (w *Waypoint) Speed(node int, now float64) float64 {
	w.Position(node, now)
	nd := &w.nodes[node]
	if nd.pauseUntil > now {
		return 0
	}
	return nd.speed
}

// MaxSpeed implements Model.
func (w *Waypoint) MaxSpeed() float64 { return w.cfg.MaxSpeed }

// Leg implements Model.
func (w *Waypoint) Leg(node int) Leg { return w.nodes[node].leg() }
