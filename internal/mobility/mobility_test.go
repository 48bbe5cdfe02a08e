package mobility

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"precinct/internal/geo"
	"precinct/internal/sim"
)

var testArea = geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))

func TestNewStaticValidation(t *testing.T) {
	if _, err := NewStatic(nil); err == nil {
		t.Error("empty static model accepted")
	}
}

func TestStaticPositions(t *testing.T) {
	pts := []geo.Point{geo.Pt(1, 2), geo.Pt(3, 4)}
	s, err := NewStatic(pts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Position(0, 0) != geo.Pt(1, 2) || s.Position(1, 999) != geo.Pt(3, 4) {
		t.Error("static positions wrong or time-dependent")
	}
	// The constructor must copy its input.
	pts[0] = geo.Pt(9, 9)
	if s.Position(0, 0) == geo.Pt(9, 9) {
		t.Error("NewStatic aliased caller slice")
	}
}

func TestUniformStaticInArea(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, err := NewUniformStatic(200, testArea, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Len(); i++ {
		if !testArea.Contains(s.Position(i, 0)) {
			t.Fatalf("node %d placed outside area", i)
		}
	}
}

func TestUniformStaticValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewUniformStatic(0, testArea, rng); err == nil {
		t.Error("n=0 accepted")
	}
	bad := geo.NewRect(geo.Pt(0, 0), geo.Pt(0, 100))
	if _, err := NewUniformStatic(5, bad, rng); err == nil {
		t.Error("degenerate area accepted")
	}
}

func TestGridStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s, err := NewGridStatic(20, testArea, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	// No jitter: all points distinct and inside.
	seen := make(map[geo.Point]bool)
	for i := 0; i < s.Len(); i++ {
		p := s.Position(i, 0)
		if !testArea.Contains(p) {
			t.Fatalf("grid node %d outside area", i)
		}
		if seen[p] {
			t.Fatalf("duplicate grid position %v", p)
		}
		seen[p] = true
	}
	if _, err := NewGridStatic(10, testArea, 0.7, rng); err == nil {
		t.Error("jitter > 0.5 accepted")
	}
	if _, err := NewGridStatic(0, testArea, 0, rng); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestGridStaticJitterStaysInside(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, err := NewGridStatic(37, testArea, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Len(); i++ {
		if !testArea.Contains(s.Position(i, 0)) {
			t.Fatalf("jittered node %d escaped the area", i)
		}
	}
}

func waypointFor(t *testing.T, n int, cfg WaypointConfig, seed int64) *Waypoint {
	t.Helper()
	w, err := NewWaypoint(n, cfg, sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWaypointValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	cfg := DefaultWaypointConfig()
	if _, err := NewWaypoint(0, cfg, rng); err == nil {
		t.Error("n=0 accepted")
	}
	c := cfg
	c.MinSpeed = 0
	if _, err := NewWaypoint(5, c, rng); err == nil {
		t.Error("MinSpeed=0 accepted (speed-decay pathology)")
	}
	c = cfg
	c.MaxSpeed = c.MinSpeed / 2
	if _, err := NewWaypoint(5, c, rng); err == nil {
		t.Error("Max < Min speed accepted")
	}
	c = cfg
	c.Pause = -1
	if _, err := NewWaypoint(5, c, rng); err == nil {
		t.Error("negative pause accepted")
	}
	c = cfg
	c.Area = geo.NewRect(geo.Pt(0, 0), geo.Pt(0, 0))
	if _, err := NewWaypoint(5, c, rng); err == nil {
		t.Error("degenerate area accepted")
	}
}

func TestWaypointStaysInArea(t *testing.T) {
	cfg := WaypointConfig{Area: testArea, MinSpeed: 1, MaxSpeed: 20, Pause: 5}
	w := waypointFor(t, 10, cfg, 42)
	for ti := 0; ti <= 2000; ti++ {
		now := float64(ti)
		for i := 0; i < w.Len(); i++ {
			p := w.Position(i, now)
			if !testArea.Contains(p) {
				t.Fatalf("node %d left area at t=%v: %v", i, now, p)
			}
		}
	}
}

func TestWaypointSpeedBound(t *testing.T) {
	cfg := WaypointConfig{Area: testArea, MinSpeed: 1, MaxSpeed: 10, Pause: 2}
	w := waypointFor(t, 5, cfg, 7)
	prev := make([]geo.Point, w.Len())
	for i := range prev {
		prev[i] = w.Position(i, 0)
	}
	const dt = 0.5
	for step := 1; step <= 4000; step++ {
		now := float64(step) * dt
		for i := 0; i < w.Len(); i++ {
			p := w.Position(i, now)
			d := p.Dist(prev[i])
			if d > cfg.MaxSpeed*dt+1e-6 {
				t.Fatalf("node %d moved %v m in %v s (max speed %v)", i, d, dt, cfg.MaxSpeed)
			}
			prev[i] = p
		}
	}
}

func TestWaypointActuallyMoves(t *testing.T) {
	cfg := WaypointConfig{Area: testArea, MinSpeed: 2, MaxSpeed: 8, Pause: 1}
	w := waypointFor(t, 8, cfg, 11)
	start := make([]geo.Point, w.Len())
	for i := range start {
		start[i] = w.Position(i, 0)
	}
	moved := 0
	for i := 0; i < w.Len(); i++ {
		if w.Position(i, 300).Dist(start[i]) > 1 {
			moved++
		}
	}
	if moved < w.Len()/2 {
		t.Errorf("only %d/%d nodes moved after 300 s", moved, w.Len())
	}
}

func TestWaypointPausesAtWaypoints(t *testing.T) {
	// With a huge pause, nodes should eventually be mostly stationary.
	cfg := WaypointConfig{Area: testArea, MinSpeed: 10, MaxSpeed: 20, Pause: 10000}
	w := waypointFor(t, 5, cfg, 13)
	// After enough time every node has finished its first leg
	// (diagonal at min speed < 142 s) and is pausing.
	for i := 0; i < w.Len(); i++ {
		a := w.Position(i, 200)
		b := w.Position(i, 300)
		if a.Dist(b) > 1e-9 {
			t.Errorf("node %d moved during pause: %v -> %v", i, a, b)
		}
		if s := w.Speed(i, 301); s != 0 {
			t.Errorf("node %d pausing but Speed = %v", i, s)
		}
	}
}

func TestWaypointDeterminism(t *testing.T) {
	cfg := WaypointConfig{Area: testArea, MinSpeed: 1, MaxSpeed: 10, Pause: 5}
	a := waypointFor(t, 6, cfg, 99)
	b := waypointFor(t, 6, cfg, 99)
	// Query a and b with different interleavings; trajectories must match
	// because streams are per node.
	for i := 0; i < 6; i++ {
		a.Position(i, 500)
	}
	for i := 5; i >= 0; i-- {
		b.Position(i, 250)
	}
	for i := 0; i < 6; i++ {
		pa := a.Position(i, 1000)
		pb := b.Position(i, 1000)
		if pa.Dist(pb) > 1e-6 {
			t.Fatalf("node %d trajectories diverged: %v vs %v", i, pa, pb)
		}
	}
}

func TestWaypointIntermediateQueriesConsistent(t *testing.T) {
	// Position(t) must not depend on how many intermediate queries were
	// made before t.
	cfg := WaypointConfig{Area: testArea, MinSpeed: 1, MaxSpeed: 15, Pause: 3}
	coarse := waypointFor(t, 4, cfg, 5)
	fine := waypointFor(t, 4, cfg, 5)
	for step := 1; step <= 1000; step++ {
		for i := 0; i < 4; i++ {
			fine.Position(i, float64(step)*0.37)
		}
	}
	for i := 0; i < 4; i++ {
		pc := coarse.Position(i, 370)
		pf := fine.Position(i, 370)
		if pc.Dist(pf) > 1e-6 {
			t.Fatalf("node %d: coarse %v vs fine %v", i, pc, pf)
		}
	}
}

func TestWaypointPanicsOnBackwardTime(t *testing.T) {
	w := waypointFor(t, 1, DefaultWaypointConfig(), 1)
	w.Position(0, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("backward time query did not panic")
		}
	}()
	w.Position(0, 50)
}

func TestWaypointZeroPause(t *testing.T) {
	cfg := WaypointConfig{Area: testArea, MinSpeed: 5, MaxSpeed: 5, Pause: 0}
	w := waypointFor(t, 3, cfg, 21)
	// Just exercise a long horizon; must terminate and stay in area.
	for i := 0; i < 3; i++ {
		p := w.Position(i, 5000)
		if !testArea.Contains(p) {
			t.Fatalf("node %d outside area: %v", i, p)
		}
	}
}

// TestWaypointSubUlpPause: a pause so short that at+Pause == at moves no
// clock, so it must behave like a zero pause and draw the next leg
// instead of re-entering the same pause forever.
func TestWaypointSubUlpPause(t *testing.T) {
	cfg := WaypointConfig{Area: testArea, MinSpeed: 5, MaxSpeed: 5, Pause: 1e-300}
	w := waypointFor(t, 4, cfg, 21)
	for i := 0; i < 4; i++ {
		if p := w.Position(i, 1000); !testArea.Contains(p) {
			t.Fatalf("node %d outside area: %v", i, p)
		}
	}
}

func TestWaypointSpeedWhileMoving(t *testing.T) {
	cfg := WaypointConfig{Area: testArea, MinSpeed: 3, MaxSpeed: 9, Pause: 0}
	w := waypointFor(t, 4, cfg, 31)
	for i := 0; i < 4; i++ {
		s := w.Speed(i, 10)
		if s != 0 && (s < cfg.MinSpeed || s > cfg.MaxSpeed) {
			t.Errorf("node %d speed %v outside [%v, %v]", i, s, cfg.MinSpeed, cfg.MaxSpeed)
		}
	}
}

func TestWaypointAverageDisplacementReasonable(t *testing.T) {
	// Sanity check against the model's scale: with max speed 20 the rms
	// displacement over 100 s should be well below the area diagonal but
	// clearly nonzero.
	cfg := WaypointConfig{Area: testArea, MinSpeed: 1, MaxSpeed: 20, Pause: 5}
	w := waypointFor(t, 50, cfg, 77)
	var sum float64
	start := make([]geo.Point, 50)
	for i := range start {
		start[i] = w.Position(i, 0)
	}
	for i := 0; i < 50; i++ {
		sum += w.Position(i, 100).Dist(start[i])
	}
	avg := sum / 50
	if avg < 10 || avg > 1500 {
		t.Errorf("average displacement %v out of plausible range", avg)
	}
	if math.IsNaN(avg) {
		t.Error("displacement is NaN")
	}
}

// sameBits reports whether two points are equal bit for bit: -0 and +0
// differ, as they would to anything that reads a sign.
func sameBits(a, b geo.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// TestLegAtMatchesPosition holds Leg to its contract: after Position(i, t),
// Leg(i) covers t, and its At answers what Position answers, bit for bit,
// at t and at every later instant before the leg ends, without the model
// being asked. It covers moving legs, pauses, the arrival instant (where
// a moving leg hands over to a pause), a pause below one ulp of the clock
// (where it hands over to the next moving leg) and Static, at a -0
// coordinate too.
func TestLegAtMatchesPosition(t *testing.T) {
	check := func(t *testing.T, m Model, i int, at float64) Leg {
		t.Helper()
		p := m.Position(i, at)
		leg := m.Leg(i)
		if !(leg.Start <= at && at < leg.Until) {
			t.Fatalf("node %d at %v: leg [%v, %v) does not cover the query", i, at, leg.Start, leg.Until)
		}
		if q := leg.At(at); !sameBits(p, q) {
			t.Fatalf("node %d at %v: Position %v, Leg.At %v", i, at, p, q)
		}
		return leg
	}
	for _, pause := range []float64{5, 1e-300} {
		t.Run(fmt.Sprintf("waypoint/pause=%g", pause), func(t *testing.T) {
			cfg := WaypointConfig{Area: testArea, MinSpeed: 2, MaxSpeed: 20, Pause: pause}
			const n = 12
			w := waypointFor(t, n, cfg, 77)
			var moving, resting, arrivals int
			for i := 0; i < n; i++ {
				at := 0.0
				for step := 0; step < 60; step++ {
					leg := check(t, w, i, at)
					if leg.Speed > 0 {
						moving++
					} else {
						resting++
					}
					// Later instants of the same leg, answered by the copy
					// and then by the model.
					for _, f := range []float64{0.25, 0.5, 0.999} {
						later := at + f*(leg.Until-at)
						if later >= leg.Until {
							continue
						}
						want := leg.At(later)
						if got := w.Position(i, later); !sameBits(got, want) {
							t.Fatalf("node %d at %v: Position %v, the copied leg %v", i, later, got, want)
						}
						at = later
					}
					// The arrival instant: the leg is over, the next one
					// starts there.
					at = leg.Until
					if next := check(t, w, i, at); next.Start != at {
						t.Fatalf("node %d: leg ending at %v handed over to one starting at %v", i, at, next.Start)
					}
					arrivals++
				}
			}
			if moving == 0 || arrivals == 0 || (pause == 5) != (resting > 0) {
				t.Fatalf("%d moving legs, %d rests, %d arrivals: not every case was reached", moving, resting, arrivals)
			}
		})
	}
	t.Run("static", func(t *testing.T) {
		s, err := NewStatic([]geo.Point{geo.Pt(math.Copysign(0, -1), 7.5), geo.Pt(3, math.Copysign(0, -1)), geo.Pt(1e6, -4)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < s.Len(); i++ {
			for _, at := range []float64{0, 1, 1e9} {
				if leg := check(t, s, i, at); leg.Speed != 0 || !math.IsInf(leg.Until, 1) {
					t.Fatalf("node %d: a static node is on leg %+v", i, leg)
				}
			}
		}
	})
}
