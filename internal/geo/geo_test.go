package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	tests := []struct {
		a, b Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-2, 0}, Point{2, 0}, 4},
	}
	for _, tc := range tests {
		if got := tc.a.Dist(tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Dist(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := tc.b.Dist(tc.a); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Dist not symmetric for %v,%v", tc.a, tc.b)
		}
	}
}

func TestPointLerp(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 20}
	if got := a.Lerp(b, 0.5); got != (Point{5, 10}) {
		t.Errorf("Lerp mid = %v", got)
	}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp 0 = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp 1 = %v", got)
	}
	if got := a.Lerp(b, -1); got != a {
		t.Errorf("Lerp clamps below: %v", got)
	}
	if got := a.Lerp(b, 2); got != b {
		t.Errorf("Lerp clamps above: %v", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := RectOf(Point{2, 3}, Point{0, 1})
	if r != (Rect{0, 1, 2, 3}) {
		t.Fatalf("RectOf = %+v", r)
	}
	if got := r.Center(); got != (Point{1, 2}) {
		t.Errorf("Center = %v", got)
	}
	if !r.Contains(Point{1, 2}) || r.Contains(Point{3, 3}) {
		t.Errorf("Contains wrong")
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect not empty")
	}
	e.ExpandPoint(Point{1, 1})
	if e.IsEmpty() {
		t.Errorf("single point rect: %+v", e)
	}
	e.ExpandPoint(Point{3, 2})
	if e != (Rect{1, 1, 3, 2}) {
		t.Errorf("expanded rect = %+v", e)
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	tests := []struct {
		b    Rect
		want bool
	}{
		{Rect{1, 1, 3, 3}, true},
		{Rect{2, 2, 3, 3}, true}, // touching counts
		{Rect{3, 3, 4, 4}, false},
		{Rect{-1, -1, 5, 5}, true}, // containment
		{Rect{0.5, 0.5, 1, 1}, true},
	}
	for _, tc := range tests {
		if got := a.Intersects(tc.b); got != tc.want {
			t.Errorf("Intersects(%+v) = %v, want %v", tc.b, got, tc.want)
		}
		if got := tc.b.Intersects(a); got != tc.want {
			t.Errorf("Intersects not symmetric for %+v", tc.b)
		}
	}
}

func TestRectExpand(t *testing.T) {
	u := Rect{0, 0, 1, 1}
	u.Expand(Rect{2, 2, 3, 3})
	if u != (Rect{0, 0, 3, 3}) {
		t.Fatalf("MBR union = %+v", u)
	}
	u.Expand(Rect{0, 0, 0.5, 0.5})
	if u != (Rect{0, 0, 3, 3}) {
		t.Errorf("expanding by a contained rect = %+v", u)
	}
	u.Expand(EmptyRect())
	if u != (Rect{0, 0, 3, 3}) {
		t.Errorf("expanding by the empty rect = %+v", u)
	}
}

func TestRectMinDist(t *testing.T) {
	r := Rect{1, 1, 3, 3}
	tests := []struct {
		p    Point
		want float64
	}{
		{Point{2, 2}, 0},          // inside
		{Point{1, 1}, 0},          // corner
		{Point{0, 2}, 1},          // left of
		{Point{2, 5}, 2},          // above
		{Point{0, 0}, math.Sqrt2}, // diagonal
	}
	for _, tc := range tests {
		if got := r.MinDist(tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("MinDist(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestZCodeMonotoneCells(t *testing.T) {
	// Same cell -> same code; distinct far cells -> distinct codes.
	if ZCode(Point{0, 0}) != 0 {
		t.Errorf("origin code = %d", ZCode(Point{0, 0}))
	}
	a := ZCode(Point{100, 100})
	b := ZCode(Point{9000, 9000})
	if a == b {
		t.Error("far points share a Z-code")
	}
	if a > b {
		t.Error("Z-code not increasing along the diagonal")
	}
}

func TestZCodeClamps(t *testing.T) {
	lo := ZCode(Point{-50, -50})
	if lo != ZCode(Point{0, 0}) {
		t.Errorf("negative coords not clamped: %d", lo)
	}
	hi := ZCode(Point{WorldMax + 10, WorldMax + 10})
	if hi != ZCode(Point{WorldMax, WorldMax}) {
		t.Errorf("overflow coords not clamped")
	}
}

func TestZDecodeRoundTrip(t *testing.T) {
	cell := WorldMax / float64(zResolution-1)
	f := func(x, y uint16) bool {
		p := Point{float64(x) / 65535 * WorldMax, float64(y) / 65535 * WorldMax}
		back := ZDecode(ZCode(p))
		return math.Abs(back.X-p.X) <= cell && math.Abs(back.Y-p.Y) <= cell
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInterleaveRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		v &= zResolution - 1
		return deinterleave(interleave(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZOrderLocality(t *testing.T) {
	// Nearby points should usually have closer codes than far points; we
	// check the weaker, always-true property that points in the same small
	// cell share a prefix. Statistical check: mean |code delta| for near
	// pairs below far pairs.
	rng := rand.New(rand.NewSource(1))
	var nearSum, farSum float64
	const n = 500
	for i := 0; i < n; i++ {
		p := Point{rng.Float64() * WorldMax, rng.Float64() * WorldMax}
		q := Point{p.X + 1, p.Y + 1}
		r := Point{rng.Float64() * WorldMax, rng.Float64() * WorldMax}
		nearSum += math.Abs(float64(ZCode(p)) - float64(ZCode(q)))
		farSum += math.Abs(float64(ZCode(p)) - float64(ZCode(r)))
	}
	if nearSum >= farSum {
		t.Errorf("Z-order locality violated: near=%g far=%g", nearSum/n, farSum/n)
	}
}

func TestPointSegment(t *testing.T) {
	a, b := Point{X: 0, Y: 0}, Point{X: 10, Y: 0}
	d, off := PointSegment(Point{X: 5, Y: 4}, a, b)
	if math.Abs(d-4) > 1e-12 || math.Abs(off-5) > 1e-12 {
		t.Errorf("mid: d=%v off=%v", d, off)
	}
	// Beyond the end: clamps to b.
	d, off = PointSegment(Point{X: 13, Y: 4}, a, b)
	if math.Abs(d-5) > 1e-12 || math.Abs(off-10) > 1e-12 {
		t.Errorf("clamp: d=%v off=%v", d, off)
	}
	// Degenerate segment.
	d, off = PointSegment(Point{X: 3, Y: 4}, a, a)
	if math.Abs(d-5) > 1e-12 || off != 0 {
		t.Errorf("degenerate: d=%v off=%v", d, off)
	}
}
