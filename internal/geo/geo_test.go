package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointArithmetic(t *testing.T) {
	p := Pt(3, 4)
	q := Pt(1, 2)
	if got := p.Add(q); got != Pt(4, 6) {
		t.Errorf("Add = %v, want (4,6)", got)
	}
	if got := p.Sub(q); got != Pt(2, 2) {
		t.Errorf("Sub = %v, want (2,2)", got)
	}
	if got := p.Scale(2); got != Pt(6, 8) {
		t.Errorf("Scale = %v, want (6,8)", got)
	}
	if got := Pt(0, 0).Dist(p); !almostEqual(got, 5) {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := Pt(0, 0).Dist2(p); !almostEqual(got, 25) {
		t.Errorf("Dist2 = %v, want 25", got)
	}
	if got := p.Midpoint(q); got != Pt(2, 3) {
		t.Errorf("Midpoint = %v, want (2,3)", got)
	}
}

func TestCross(t *testing.T) {
	a := Pt(1, 0)
	b := Pt(0, 1)
	if got := a.Cross(b); got != 1 {
		t.Errorf("Cross = %v, want 1", got)
	}
	if got := b.Cross(a); got != -1 {
		t.Errorf("Cross = %v, want -1", got)
	}
}

func TestAngle(t *testing.T) {
	cases := []struct {
		from, to Point
		want     float64
	}{
		{Pt(0, 0), Pt(1, 0), 0},
		{Pt(0, 0), Pt(0, 1), math.Pi / 2},
		{Pt(0, 0), Pt(-1, 0), math.Pi},
		{Pt(0, 0), Pt(0, -1), -math.Pi / 2},
		{Pt(1, 1), Pt(2, 2), math.Pi / 4},
	}
	for _, c := range cases {
		if got := c.from.Angle(c.to); !almostEqual(got, c.want) {
			t.Errorf("Angle(%v, %v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Pt(10, 20), Pt(0, 0))
	if r.Min != Pt(0, 0) || r.Max != Pt(10, 20) {
		t.Fatalf("NewRect did not normalize corners: %v", r)
	}
	if got := r.Width(); got != 10 {
		t.Errorf("Width = %v, want 10", got)
	}
	if got := r.Height(); got != 20 {
		t.Errorf("Height = %v, want 20", got)
	}
	if got := r.Center(); got != Pt(5, 10) {
		t.Errorf("Center = %v, want (5,10)", got)
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(10, 10))
	inside := []Point{Pt(5, 5), Pt(0, 0), Pt(10, 10), Pt(0, 10), Pt(10, 0)}
	for _, p := range inside {
		if !r.Contains(p) {
			t.Errorf("Contains(%v) = false, want true", p)
		}
	}
	outside := []Point{Pt(-0.001, 5), Pt(10.001, 5), Pt(5, -1), Pt(5, 11)}
	for _, p := range outside {
		if r.Contains(p) {
			t.Errorf("Contains(%v) = true, want false", p)
		}
	}
}

func TestRectClamp(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(10, 10))
	cases := []struct{ in, want Point }{
		{Pt(5, 5), Pt(5, 5)},
		{Pt(-3, 5), Pt(0, 5)},
		{Pt(12, 15), Pt(10, 10)},
		{Pt(4, -2), Pt(4, 0)},
	}
	for _, c := range cases {
		if got := r.Clamp(c.in); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRectUnion(t *testing.T) {
	a := NewRect(Pt(0, 0), Pt(5, 5))
	b := NewRect(Pt(3, 3), Pt(10, 8))
	u := a.Union(b)
	if u.Min != Pt(0, 0) || u.Max != Pt(10, 8) {
		t.Errorf("Union = %v, want [(0,0)-(10,8)]", u)
	}
}

func TestSegmentIntersectionPoint(t *testing.T) {
	p, ok := SegmentIntersection(Pt(0, 0), Pt(2, 2), Pt(0, 2), Pt(2, 0))
	if !ok {
		t.Fatal("expected intersection")
	}
	if !almostEqual(p.X, 1) || !almostEqual(p.Y, 1) {
		t.Errorf("intersection = %v, want (1,1)", p)
	}
	if _, ok := SegmentIntersection(Pt(0, 0), Pt(1, 0), Pt(0, 1), Pt(1, 1)); ok {
		t.Error("parallel segments should not intersect at a point")
	}
	if _, ok := SegmentIntersection(Pt(0, 0), Pt(1, 1), Pt(3, 3), Pt(4, 4)); ok {
		t.Error("collinear disjoint segments should return false")
	}
}

func TestNormalizeAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{2 * math.Pi, 0},
		{5 * math.Pi, math.Pi},
	}
	for _, c := range cases {
		if got := NormalizeAngle(c.in); !almostEqual(got, c.want) {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCCWAngleFrom(t *testing.T) {
	if got := CCWAngleFrom(0, math.Pi/2); !almostEqual(got, math.Pi/2) {
		t.Errorf("CCWAngleFrom = %v, want pi/2", got)
	}
	if got := CCWAngleFrom(math.Pi/2, 0); !almostEqual(got, 3*math.Pi/2) {
		t.Errorf("CCWAngleFrom = %v, want 3pi/2", got)
	}
}

// Property: distance is symmetric and satisfies the triangle inequality.
func TestDistProperties(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		// Constrain magnitudes so floating-point error stays bounded.
		clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
		a := Pt(clamp(ax), clamp(ay))
		b := Pt(clamp(bx), clamp(by))
		c := Pt(clamp(cx), clamp(cy))
		if a.Dist(b) != b.Dist(a) {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Dist2 agrees with Dist squared.
func TestDist2MatchesDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		clamp := func(v float64) float64 { return math.Mod(v, 1e4) }
		a := Pt(clamp(ax), clamp(ay))
		b := Pt(clamp(bx), clamp(by))
		d := a.Dist(b)
		return math.Abs(a.Dist2(b)-d*d) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Clamp always yields a point inside the rectangle, and is the
// identity on points already inside.
func TestClampProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRect(Pt(0, 0), Pt(100, 50))
	for i := 0; i < 1000; i++ {
		p := Pt(rng.Float64()*400-150, rng.Float64()*300-100)
		q := r.Clamp(p)
		if !r.Contains(q) {
			t.Fatalf("Clamp(%v) = %v not inside %v", p, q, r)
		}
		if r.Contains(p) && q != p {
			t.Fatalf("Clamp moved interior point %v to %v", p, q)
		}
	}
}

// Property: whether SegmentIntersection finds a crossing does not depend
// on which segment comes first. Small integer coordinates keep every
// cross product exact, degenerate configurations included.
func TestSegmentIntersectionSymmetry(t *testing.T) {
	f := func(a, b, c, d, e, f2, g, h int8) bool {
		p1, p2 := Pt(float64(a), float64(b)), Pt(float64(c), float64(d))
		q1, q2 := Pt(float64(e), float64(f2)), Pt(float64(g), float64(h))
		_, pq := SegmentIntersection(p1, p2, q1, q2)
		_, qp := SegmentIntersection(q1, q2, p1, p2)
		return pq == qp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
