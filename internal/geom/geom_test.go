package geom

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestWindow(t *testing.T) {
	w := Window(Point{X: 10, Y: 20}, 5)
	want := Rect{XMin: 5, YMin: 15, XMax: 15, YMax: 25}
	if w != want {
		t.Fatalf("Window = %+v, want %+v", w, want)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{XMin: 0, YMin: 0, XMax: 10, YMax: 10}
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{"interior", Point{X: 5, Y: 5}, true},
		{"corner", Point{X: 0, Y: 0}, true},
		{"edge", Point{X: 10, Y: 5}, true},
		{"outside x", Point{X: 10.001, Y: 5}, false},
		{"outside y", Point{X: 5, Y: -0.001}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := r.Contains(tc.p); got != tc.want {
				t.Fatalf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
			}
			if got := r.ContainsXY(tc.p.X, tc.p.Y); got != tc.want {
				t.Fatalf("ContainsXY(%v) = %v, want %v", tc.p, got, tc.want)
			}
		})
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{XMin: 0, YMin: 0, XMax: 10, YMax: 10}
	tests := []struct {
		name string
		b    Rect
		want bool
	}{
		{"overlap", Rect{XMin: 5, YMin: 5, XMax: 15, YMax: 15}, true},
		{"touching edge", Rect{XMin: 10, YMin: 0, XMax: 20, YMax: 10}, true},
		{"touching corner", Rect{XMin: 10, YMin: 10, XMax: 20, YMax: 20}, true},
		{"disjoint x", Rect{XMin: 11, YMin: 0, XMax: 20, YMax: 10}, false},
		{"disjoint y", Rect{XMin: 0, YMin: -5, XMax: 10, YMax: -1}, false},
		{"contained", Rect{XMin: 2, YMin: 2, XMax: 3, YMax: 3}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := a.Intersects(tc.b); got != tc.want {
				t.Fatalf("Intersects = %v, want %v", got, tc.want)
			}
			if got := tc.b.Intersects(a); got != tc.want {
				t.Fatalf("Intersects (flipped) = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestRectCovers(t *testing.T) {
	a := Rect{XMin: 0, YMin: 0, XMax: 10, YMax: 10}
	if !a.Covers(Rect{XMin: 0, YMin: 0, XMax: 10, YMax: 10}) {
		t.Error("rect should cover itself")
	}
	if !a.Covers(Rect{XMin: 1, YMin: 1, XMax: 9, YMax: 9}) {
		t.Error("rect should cover interior rect")
	}
	if a.Covers(Rect{XMin: 1, YMin: 1, XMax: 11, YMax: 9}) {
		t.Error("rect should not cover overflowing rect")
	}
}

func TestUnionIntersect(t *testing.T) {
	a := Rect{XMin: 0, YMin: 0, XMax: 4, YMax: 4}
	b := Rect{XMin: 2, YMin: 3, XMax: 9, YMax: 5}
	u := a.Union(b)
	if want := (Rect{XMin: 0, YMin: 0, XMax: 9, YMax: 5}); u != want {
		t.Fatalf("Union = %+v, want %+v", u, want)
	}
	i := a.Intersect(b)
	if want := (Rect{XMin: 2, YMin: 3, XMax: 4, YMax: 4}); i != want {
		t.Fatalf("Intersect = %+v, want %+v", i, want)
	}
	disjoint := a.Intersect(Rect{XMin: 10, YMin: 10, XMax: 12, YMax: 12})
	if !disjoint.Empty() {
		t.Fatalf("intersection of disjoint rects should be empty, got %+v", disjoint)
	}
}

func TestAreaWidthHeightMargin(t *testing.T) {
	r := Rect{XMin: 1, YMin: 2, XMax: 4, YMax: 8}
	if got := r.Width(); got != 3 {
		t.Errorf("Width = %g, want 3", got)
	}
	if got := r.Height(); got != 6 {
		t.Errorf("Height = %g, want 6", got)
	}
	if got := r.Area(); got != 18 {
		t.Errorf("Area = %g, want 18", got)
	}
	if got := r.Margin(); got != 9 {
		t.Errorf("Margin = %g, want 9", got)
	}
	empty := Rect{XMin: 5, YMin: 5, XMax: 1, YMax: 1}
	if got := empty.Area(); got != 0 {
		t.Errorf("empty Area = %g, want 0", got)
	}
}

func TestBoundingRect(t *testing.T) {
	pts := []Point{{X: 3, Y: 1}, {X: -2, Y: 7}, {X: 5, Y: 4}}
	r := BoundingRect(pts)
	want := Rect{XMin: -2, YMin: 1, XMax: 5, YMax: 7}
	if r != want {
		t.Fatalf("BoundingRect = %+v, want %+v", r, want)
	}
	if !BoundingRect(nil).Empty() {
		t.Error("BoundingRect(nil) should be empty")
	}
}

func TestInWindowMatchesRectContains(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	f := func(rx, ry, sx, sy float64, lraw float64) bool {
		if math.IsNaN(rx) || math.IsNaN(ry) || math.IsNaN(sx) || math.IsNaN(sy) || math.IsNaN(lraw) {
			return true
		}
		l := math.Abs(math.Mod(lraw, 100))
		r := Point{X: math.Mod(rx, 1000), Y: math.Mod(ry, 1000)}
		s := Point{X: math.Mod(sx, 1000), Y: math.Mod(sy, 1000)}
		return InWindow(r, s, l) == Window(r, l).Contains(s)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestInWindowSymmetry(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	f := func(rx, ry, sx, sy float64) bool {
		r := Point{X: math.Mod(rx, 1000), Y: math.Mod(ry, 1000)}
		s := Point{X: math.Mod(sx, 1000), Y: math.Mod(sy, 1000)}
		const l = 50
		return InWindow(r, s, l) == InWindow(s, r, l)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPointRect(t *testing.T) {
	p := Point{X: 2, Y: 3}
	r := PointRect(p)
	if !r.Contains(p) {
		t.Error("PointRect must contain its point")
	}
	if r.Area() != 0 {
		t.Error("PointRect must be degenerate")
	}
}

func TestStringers(t *testing.T) {
	p := Point{X: 1, Y: 2, ID: 7}
	if p.String() == "" {
		t.Error("Point.String should not be empty")
	}
	pr := Pair{R: p, S: p}
	if pr.String() == "" {
		t.Error("Pair.String should not be empty")
	}
}

// TestPointCodec pins the 20-byte record layout the wire formats and
// WAL snapshots share, and round-trips edge values through it.
func TestPointCodec(t *testing.T) {
	var b [PointBytes]byte
	if n := PutPoint(b[:], Point{ID: -2, X: 1, Y: -0.5}); n != PointBytes {
		t.Fatalf("PutPoint wrote %d bytes, want %d", n, PointBytes)
	}
	want := []byte{
		0xfe, 0xff, 0xff, 0xff, // ID -2
		0, 0, 0, 0, 0, 0, 0xf0, 0x3f, // X 1.0
		0, 0, 0, 0, 0, 0, 0xe0, 0xbf, // Y -0.5
	}
	if !bytes.Equal(b[:], want) {
		t.Fatalf("PutPoint bytes %x, want %x", b, want)
	}
	for _, p := range []Point{{}, {ID: math.MaxInt32, X: math.MaxFloat64, Y: math.SmallestNonzeroFloat64}, {ID: math.MinInt32, X: math.Inf(-1), Y: -0.0}} {
		PutPoint(b[:], p)
		if got := GetPoint(b[:]); got != p || math.Signbit(got.Y) != math.Signbit(p.Y) {
			t.Fatalf("GetPoint(PutPoint(%v)) = %v", p, got)
		}
	}
}
