// Package geo provides the planar geometry primitives used throughout the
// simulator: points, rectangles, distance computations, and the segment
// intersection GPSR's perimeter mode uses to detect crossings of the
// source-destination line.
//
// All coordinates are in meters. The service area follows the usual screen
// convention with the origin at the lower-left corner and axes increasing
// right and up; nothing in the package depends on that orientation beyond
// documentation.
//
// The Go spec lets a compiler fuse x*y + z into one rounding, and arm64
// builds do, amd64 builds never. So every product here is rounded by an
// explicit float64 conversion, and Dist and Dist2 round their operands
// (a caller's product, or a midpoint's halving, inlined into them would
// fuse too): the package computes the same bits on either.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane, in meters.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p with both coordinates multiplied by k.
func (p Point) Scale(k float64) Point { return Point{float64(p.X * k), float64(p.Y * k)} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(float64(p.X)-float64(q.X), float64(p.Y)-float64(q.Y))
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root on hot paths such as neighbor scans.
func (p Point) Dist2(q Point) float64 {
	dx, dy := float64(p.X)-float64(q.X), float64(p.Y)-float64(q.Y)
	return float64(dx*dx) + float64(dy*dy)
}

// Midpoint returns the point halfway between p and q.
func (p Point) Midpoint(q Point) Point {
	return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2}
}

// Cross returns the z component of the cross product of p and q treated as
// vectors. Positive means q is counter-clockwise from p.
func (p Point) Cross(q Point) float64 { return float64(p.X*q.Y) - float64(p.Y*q.X) }

// Angle returns the angle of the vector from p to q in radians, in
// (-pi, pi], measured counter-clockwise from the positive x axis.
func (p Point) Angle(q Point) float64 { return math.Atan2(q.Y-p.Y, q.X-p.X) }

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max
// the upper-right corner; a point on the Min edges is inside, a point on
// the Max edges is inside as well (closed rectangle), which keeps grid
// partitions free of unowned boundary points at the area border.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning the two corner points, fixing the
// corner order if needed.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string { return fmt.Sprintf("[%v - %v]", r.Min, r.Max) }

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the center point of r.
func (r Rect) Center() Point { return r.Min.Midpoint(r.Max) }

// Contains reports whether p lies inside the closed rectangle r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// SegmentIntersection returns the intersection point of the two segments
// and true when they cross at a single point. For overlapping collinear
// segments or disjoint segments it returns the zero point and false.
func SegmentIntersection(p1, p2, q1, q2 Point) (Point, bool) {
	r := p2.Sub(p1)
	s := q2.Sub(q1)
	denom := r.Cross(s)
	if denom == 0 {
		return Point{}, false // parallel or collinear
	}
	qp := q1.Sub(p1)
	t := qp.Cross(s) / denom
	u := qp.Cross(r) / denom
	if t < 0 || t > 1 || u < 0 || u > 1 {
		return Point{}, false
	}
	return p1.Add(r.Scale(t)), true
}

// NormalizeAngle maps an angle in radians to [0, 2*pi).
func NormalizeAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

// CCWAngleFrom returns the counter-clockwise angle to sweep from direction
// `from` to direction `to`, in [0, 2*pi). Both arguments are angles in
// radians. GPSR's right-hand rule selects the neighbor with the smallest
// such sweep measured clockwise, i.e. the largest counter-clockwise sweep,
// so both callers share this primitive.
func CCWAngleFrom(from, to float64) float64 {
	return NormalizeAngle(to - from)
}
