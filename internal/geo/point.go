// Package geo provides the planar geometry primitives used throughout the
// library: points, rectangles (MBRs), Z-order (Morton) codes and coordinate
// scaling. All datasets are scaled to the [0, 10000]² space used in the
// paper's experiments.
package geo

import (
	"fmt"
	"math"
)

// WorldMax is the upper bound of the coordinate space; every dataset is
// scaled so that all coordinates fall into [0, WorldMax]².
const WorldMax = 10000.0

// Point is a location in the 2-dimensional plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Lerp returns the point a fraction t of the way from p to q.
// t is clamped to [0, 1].
func (p Point) Lerp(q Point, t float64) Point {
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle (minimum bounding rectangle).
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// RectOf returns the MBR of the two points a and b.
func RectOf(a, b Point) Rect {
	r := Rect{a.X, a.Y, a.X, a.Y}
	r.ExpandPoint(b)
	return r
}

// EmptyRect returns a rectangle that contains nothing and expands to the
// first point or rectangle added to it.
func EmptyRect() Rect {
	return Rect{math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)}
}

// IsEmpty reports whether r is the empty rectangle.
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// ExpandPoint grows r to include p.
func (r *Rect) ExpandPoint(p Point) {
	if p.X < r.MinX {
		r.MinX = p.X
	}
	if p.Y < r.MinY {
		r.MinY = p.Y
	}
	if p.X > r.MaxX {
		r.MaxX = p.X
	}
	if p.Y > r.MaxY {
		r.MaxY = p.Y
	}
}

// Expand grows r to include s.
func (r *Rect) Expand(s Rect) {
	if s.IsEmpty() {
		return
	}
	r.ExpandPoint(Point{s.MinX, s.MinY})
	r.ExpandPoint(Point{s.MaxX, s.MaxY})
}

// Contains reports whether p lies inside r (inclusive of the boundary).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Intersects reports whether r and s overlap.
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Center returns the center point of r.
func (r Rect) Center() Point { return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2} }

// MinDist returns the minimum Euclidean distance from p to any point of r.
// If p is inside r the distance is 0.
func (r Rect) MinDist(p Point) float64 {
	dx := math.Max(math.Max(r.MinX-p.X, 0), p.X-r.MaxX)
	dy := math.Max(math.Max(r.MinY-p.Y, 0), p.Y-r.MaxY)
	return math.Sqrt(dx*dx + dy*dy)
}

// PointSegment returns the minimum distance from p to the segment a–b and
// the offset along the segment (distance from a) of the closest point.
func PointSegment(p, a, b Point) (dist, offset float64) {
	abx, aby := b.X-a.X, b.Y-a.Y
	den := abx*abx + aby*aby
	if den == 0 {
		return p.Dist(a), 0
	}
	t := ((p.X-a.X)*abx + (p.Y-a.Y)*aby) / den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	closest := Point{a.X + t*abx, a.Y + t*aby}
	return p.Dist(closest), t * math.Sqrt(den)
}
