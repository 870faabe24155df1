// Package geom provides the planar geometric primitives shared by every
// index structure and join algorithm in this repository: points,
// axis-aligned rectangles, and the square query windows used by spatial
// range joins.
//
// Conventions follow the paper "Random Sampling over Spatial Range
// Joins" (ICDE 2025): a window w(r) with half-extent l is the closed
// rectangle [r.x-l, r.x+l] x [r.y-l, r.y+l], and a point s matches r
// iff s lies inside w(r). Because the window size is shared by all
// points, the predicate is symmetric: w(r) contains s iff w(s)
// contains r.
package geom

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Point is a 2-dimensional point with a caller-assigned identifier.
// The ID is carried through sampling so that downstream consumers can
// relate a sampled pair back to the source records.
type Point struct {
	X, Y float64
	ID   int32
}

// String renders the point for diagnostics.
func (p Point) String() string {
	return fmt.Sprintf("(%g, %g)#%d", p.X, p.Y, p.ID)
}

// PointBytes is the size of one encoded point record: the ID, X and Y,
// little-endian, in 4 + 8 + 8 bytes. The wire formats and the WAL
// snapshots share this record.
const PointBytes = 20

// PutPoint encodes p into b[:PointBytes] and returns PointBytes.
func PutPoint(b []byte, p Point) int {
	binary.LittleEndian.PutUint32(b[0:4], uint32(p.ID))
	binary.LittleEndian.PutUint64(b[4:12], math.Float64bits(p.X))
	binary.LittleEndian.PutUint64(b[12:20], math.Float64bits(p.Y))
	return PointBytes
}

// GetPoint decodes the point record in b[:PointBytes].
func GetPoint(b []byte) Point {
	return Point{
		ID: int32(binary.LittleEndian.Uint32(b[0:4])),
		X:  math.Float64frombits(binary.LittleEndian.Uint64(b[4:12])),
		Y:  math.Float64frombits(binary.LittleEndian.Uint64(b[12:20])),
	}
}

// Rect is a closed axis-aligned rectangle. A Rect with XMin > XMax or
// YMin > YMax is empty.
type Rect struct {
	XMin, YMin, XMax, YMax float64
}

// Window returns the query window of half-extent l centered at p:
// [p.X-l, p.X+l] x [p.Y-l, p.Y+l].
func Window(p Point, l float64) Rect {
	return Rect{XMin: p.X - l, YMin: p.Y - l, XMax: p.X + l, YMax: p.Y + l}
}

// Empty reports whether the rectangle contains no points.
func (r Rect) Empty() bool { return r.XMin > r.XMax || r.YMin > r.YMax }

// Contains reports whether point p lies inside the closed rectangle.
func (r Rect) Contains(p Point) bool {
	return r.XMin <= p.X && p.X <= r.XMax && r.YMin <= p.Y && p.Y <= r.YMax
}

// ContainsXY reports whether the coordinate (x, y) lies inside the
// closed rectangle.
func (r Rect) ContainsXY(x, y float64) bool {
	return r.XMin <= x && x <= r.XMax && r.YMin <= y && y <= r.YMax
}

// Intersects reports whether the two closed rectangles share at least
// one point.
func (r Rect) Intersects(o Rect) bool {
	return r.XMin <= o.XMax && o.XMin <= r.XMax && r.YMin <= o.YMax && o.YMin <= r.YMax
}

// Covers reports whether r fully contains o.
func (r Rect) Covers(o Rect) bool {
	return r.XMin <= o.XMin && o.XMax <= r.XMax && r.YMin <= o.YMin && o.YMax <= r.YMax
}

// Union returns the smallest rectangle covering both r and o.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		XMin: math.Min(r.XMin, o.XMin),
		YMin: math.Min(r.YMin, o.YMin),
		XMax: math.Max(r.XMax, o.XMax),
		YMax: math.Max(r.YMax, o.YMax),
	}
}

// Intersect returns the overlap of r and o; the result is empty when
// the rectangles are disjoint.
func (r Rect) Intersect(o Rect) Rect {
	return Rect{
		XMin: math.Max(r.XMin, o.XMin),
		YMin: math.Max(r.YMin, o.YMin),
		XMax: math.Min(r.XMax, o.XMax),
		YMax: math.Min(r.YMax, o.YMax),
	}
}

// Width returns the x-extent of the rectangle (0 when empty).
func (r Rect) Width() float64 {
	if r.Empty() {
		return 0
	}
	return r.XMax - r.XMin
}

// Height returns the y-extent of the rectangle (0 when empty).
func (r Rect) Height() float64 {
	if r.Empty() {
		return 0
	}
	return r.YMax - r.YMin
}

// Area returns the area of the rectangle (0 when empty).
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Margin returns half the perimeter.
func (r Rect) Margin() float64 { return r.Width() + r.Height() }

// PointRect returns the degenerate rectangle covering only p.
func PointRect(p Point) Rect {
	return Rect{XMin: p.X, YMin: p.Y, XMax: p.X, YMax: p.Y}
}

// BoundingRect returns the smallest rectangle covering all points.
// It returns an empty rectangle for an empty slice.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{XMin: math.Inf(1), YMin: math.Inf(1), XMax: math.Inf(-1), YMax: math.Inf(-1)}
	}
	r := PointRect(pts[0])
	for _, p := range pts[1:] {
		if p.X < r.XMin {
			r.XMin = p.X
		}
		if p.X > r.XMax {
			r.XMax = p.X
		}
		if p.Y < r.YMin {
			r.YMin = p.Y
		}
		if p.Y > r.YMax {
			r.YMax = p.Y
		}
	}
	return r
}

// InWindow reports whether s lies in the window of half-extent l
// centered at r. This is the join predicate "w(r) ∩ s" from the paper,
// written without materializing the Rect.
func InWindow(r, s Point, l float64) bool {
	return math.Abs(r.X-s.X) <= l && math.Abs(r.Y-s.Y) <= l
}

// Pair is one element of the join result J: a point of R together with
// a point of S that lies in its window.
type Pair struct {
	R, S Point
}

// String renders the pair for diagnostics.
func (p Pair) String() string { return fmt.Sprintf("[%v ⋈ %v]", p.R, p.S) }
