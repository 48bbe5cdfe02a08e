package geo

import (
	"math"
	"testing"
)

// FuzzSegmentIntersection checks the crossing test GPSR's face changes
// rely on: on well-conditioned inputs it is symmetric in segment order,
// it finds a crossing exactly when the orientation test says there is
// one, and the point it returns lies on both segments.
func FuzzSegmentIntersection(f *testing.F) {
	f.Add(0.0, 0.0, 2.0, 2.0, 0.0, 2.0, 2.0, 0.0)
	f.Add(0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0)
	f.Add(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 0.0)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		scale := 1.0
		for _, v := range []float64{ax, ay, bx, by, cx, cy, dx, dy} {
			if math.IsNaN(v) || math.Abs(v) > 1e9 {
				t.Skip()
			}
			scale = math.Max(scale, math.Abs(v))
		}
		p1, p2 := Pt(ax, ay), Pt(bx, by)
		q1, q2 := Pt(cx, cy), Pt(dx, dy)
		// Within rounding of a touching or collinear configuration the
		// answer is decided by floating point, and exact-arithmetic
		// identities need not hold. Skip near-degenerate inputs.
		var orient [4]float64
		for i, tri := range [4][3]Point{
			{p1, p2, q1}, {p1, p2, q2}, {q1, q2, p1}, {q1, q2, p2},
		} {
			orient[i] = tri[1].Sub(tri[0]).Cross(tri[2].Sub(tri[0]))
			if math.Abs(orient[i]) < 1e-6*scale*scale {
				t.Skip()
			}
		}
		x, got := SegmentIntersection(p1, p2, q1, q2)
		if _, swapped := SegmentIntersection(q1, q2, p1, p2); got != swapped {
			t.Fatal("not symmetric in segment order")
		}
		// Clear of degeneracy, the segments cross exactly when each one's
		// endpoints lie on opposite sides of the other's line.
		if want := (orient[0] > 0) != (orient[1] > 0) && (orient[2] > 0) != (orient[3] > 0); got != want {
			t.Fatalf("crossing found = %v, orientation test says %v", got, want)
		}
		if !got {
			return
		}
		tol := 1e-6 * scale
		for _, seg := range [][2]Point{{p1, p2}, {q1, q2}} {
			a, b := seg[0], seg[1]
			box := NewRect(a, b)
			lineDist := math.Abs(b.Sub(a).Cross(x.Sub(a))) / a.Dist(b)
			if lineDist > tol || x.X < box.Min.X-tol || x.X > box.Max.X+tol || x.Y < box.Min.Y-tol || x.Y > box.Max.Y+tol {
				t.Fatalf("crossing %v is not on segment %v-%v", x, a, b)
			}
		}
	})
}

// FuzzRectClamp checks that Clamp is a projection: idempotent and always
// inside.
func FuzzRectClamp(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 10.0, -5.0, 20.0)
	f.Fuzz(func(t *testing.T, minX, minY, maxX, maxY, px, py float64) {
		for _, v := range []float64{minX, minY, maxX, maxY, px, py} {
			if math.IsNaN(v) || math.Abs(v) > 1e9 {
				t.Skip()
			}
		}
		r := NewRect(Pt(minX, minY), Pt(maxX, maxY))
		p := Pt(px, py)
		c := r.Clamp(p)
		if !r.Contains(c) {
			t.Fatalf("Clamp(%v) = %v outside %v", p, c, r)
		}
		if r.Clamp(c) != c {
			t.Fatal("Clamp not idempotent")
		}
	})
}
