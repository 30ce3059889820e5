package rtree

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"dsks/internal/geo"
	"dsks/internal/storage"
)

func newPool(frames int) *storage.BufferPool {
	return storage.NewBufferPool(storage.NewPageFile(), frames, nil)
}

func randomEntries(n int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Entry, n)
	for i := range out {
		x, y := rng.Float64()*geo.WorldMax, rng.Float64()*geo.WorldMax
		w, h := rng.Float64()*20, rng.Float64()*20
		out[i] = Entry{
			Rect: geo.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h},
			Ref:  uint64(i),
		}
	}
	return out
}

// bruteRange returns the refs of entries intersecting q.
func bruteRange(es []Entry, q geo.Rect) map[uint64]bool {
	out := map[uint64]bool{}
	for _, e := range es {
		if e.Rect.Intersects(q) {
			out[e.Ref] = true
		}
	}
	return out
}

func checkRange(t *testing.T, tr *Tree, es []Entry, q geo.Rect) {
	t.Helper()
	want := bruteRange(es, q)
	got := map[uint64]bool{}
	if err := tr.SearchCtx(context.Background(), q, func(e Entry) bool { got[e.Ref] = true; return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("range %v: got %d refs, want %d", q, len(got), len(want))
	}
	for r := range want {
		if !got[r] {
			t.Fatalf("range %v: missing ref %d", q, r)
		}
	}
}

func TestBulkLoadRangeQueries(t *testing.T) {
	es := randomEntries(3000, 1)
	tr, err := BulkLoad(newPool(256), es)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(es) {
		t.Fatalf("Len = %d", tr.Len())
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 25; i++ {
		x, y := rng.Float64()*geo.WorldMax, rng.Float64()*geo.WorldMax
		q := geo.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*1000, MaxY: y + rng.Float64()*1000}
		checkRange(t, tr, es, q)
	}
	// Whole-world query returns everything.
	checkRange(t, tr, es, geo.Rect{MinX: 0, MinY: 0, MaxX: geo.WorldMax + 50, MaxY: geo.WorldMax + 50})
}

func TestEmptyTreeQueries(t *testing.T) {
	tr, err := New(newPool(8))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	if err := tr.SearchCtx(context.Background(), geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		func(e Entry) bool { found = true; return true }); err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("empty tree returned entries")
	}
	if _, _, ok := tr.Nearest(geo.Point{X: 1, Y: 1}, func(e Entry) float64 { return 0 }); ok {
		t.Error("empty tree returned a nearest entry")
	}
}

func TestSearchEarlyStop(t *testing.T) {
	es := randomEntries(500, 5)
	tr, err := BulkLoad(newPool(64), es)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := tr.SearchCtx(context.Background(), geo.Rect{MinX: 0, MinY: 0, MaxX: geo.WorldMax, MaxY: geo.WorldMax},
		func(e Entry) bool { count++; return count < 5 }); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestNearestPoint(t *testing.T) {
	// Index points (degenerate rects); nearest must match brute force.
	rng := rand.New(rand.NewSource(6))
	pts := make([]geo.Point, 800)
	es := make([]Entry, len(pts))
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * geo.WorldMax, Y: rng.Float64() * geo.WorldMax}
		es[i] = Entry{Rect: geo.RectOf(pts[i], pts[i]), Ref: uint64(i)}
	}
	tr, err := BulkLoad(newPool(128), es)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		q := geo.Point{X: rng.Float64() * geo.WorldMax, Y: rng.Float64() * geo.WorldMax}
		gotEntry, gotDist, ok := tr.Nearest(q, func(e Entry) float64 {
			return pts[e.Ref].Dist(q)
		})
		if !ok {
			t.Fatal("no nearest found")
		}
		bestDist := math.Inf(1)
		for _, p := range pts {
			if d := p.Dist(q); d < bestDist {
				bestDist = d
			}
		}
		if math.Abs(gotDist-bestDist) > 1e-9 {
			t.Fatalf("nearest dist %v (ref %d), brute force %v", gotDist, gotEntry.Ref, bestDist)
		}
	}
}

func TestNearestWithRefinement(t *testing.T) {
	// Refinement that differs from MBR distance: segments stored by MBR.
	// Segment A: (0,0)-(10,0); segment B: (5,3)-(15,3).
	segs := [][2]geo.Point{
		{{X: 0, Y: 0}, {X: 10, Y: 0}},
		{{X: 5, Y: 3}, {X: 15, Y: 3}},
	}
	es := make([]Entry, len(segs))
	for i, s := range segs {
		es[i] = Entry{Rect: geo.RectOf(s[0], s[1]), Ref: uint64(i)}
	}
	tr, err := BulkLoad(newPool(16), es)
	if err != nil {
		t.Fatal(err)
	}
	segDist := func(e Entry) float64 {
		s := segs[e.Ref]
		return pointSegDist(geo.Point{X: 7, Y: 2}, s[0], s[1])
	}
	got, d, ok := tr.Nearest(geo.Point{X: 7, Y: 2}, segDist)
	if !ok {
		t.Fatal("no nearest")
	}
	// Query (7,2): dist to A = 2, dist to B = 1 -> B wins.
	if got.Ref != 1 || math.Abs(d-1) > 1e-9 {
		t.Errorf("nearest = ref %d dist %v, want ref 1 dist 1", got.Ref, d)
	}
}

// pointSegDist is a reference point-to-segment distance for the test.
func pointSegDist(p, a, b geo.Point) float64 {
	abx, aby := b.X-a.X, b.Y-a.Y
	apx, apy := p.X-a.X, p.Y-a.Y
	den := abx*abx + aby*aby
	t := 0.0
	if den > 0 {
		t = (apx*abx + apy*aby) / den
	}
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return p.Dist(geo.Point{X: a.X + t*abx, Y: a.Y + t*aby})
}

func TestBulkLoadEmptyAndSingle(t *testing.T) {
	tr, err := BulkLoad(newPool(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Errorf("empty bulk load Len = %d", tr.Len())
	}
	one := []Entry{{Rect: geo.Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}, Ref: 7}}
	tr, err = BulkLoad(newPool(8), one)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	if err := tr.SearchCtx(context.Background(), geo.Rect{MinX: 0, MinY: 0, MaxX: 3, MaxY: 3}, func(e Entry) bool {
		found = e.Ref == 7
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Error("single entry not found")
	}
}

func TestTinyPoolThrashingCorrect(t *testing.T) {
	es := randomEntries(1000, 7)
	tr, err := BulkLoad(newPool(3), es)
	if err != nil {
		t.Fatal(err)
	}
	q := geo.Rect{MinX: 1000, MinY: 1000, MaxX: 4000, MaxY: 4000}
	checkRange(t, tr, es, q)
}
