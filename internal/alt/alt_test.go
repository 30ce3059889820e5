package alt

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"slices"
	"strings"
	"testing"

	"dsks/internal/dataset"
	"dsks/internal/geo"
	"dsks/internal/graph"
	"dsks/internal/storage"
)

func testPool(frames int) *storage.BufferPool {
	return storage.NewBufferPool(storage.NewPageFile(), frames, nil)
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	ds, err := dataset.GeneratePreset(dataset.PresetSYN, 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Graph
}

func buildOracle(t *testing.T, g *graph.Graph, cfg Config) *Oracle {
	t.Helper()
	o, err := Build(g, testPool(256), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestBuildDeterministic: the same graph, seed and landmark count must
// select the same landmarks and store the same vectors — a rebuilt
// oracle must be indistinguishable from the snapshot it replaces.
func TestBuildDeterministic(t *testing.T) {
	g := testGraph(t)
	a := buildOracle(t, g, Config{Landmarks: 8, Seed: 7})
	b := buildOracle(t, g, Config{Landmarks: 8, Seed: 7})
	la, lb := a.Landmarks(), b.Landmarks()
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("landmark %d: %d vs %d across identical builds", i, la[i], lb[i])
		}
	}
	// A different seed starts the farthest-point traversal elsewhere.
	c := buildOracle(t, g, Config{Landmarks: 8, Seed: 8})
	same := true
	for i, l := range c.Landmarks() {
		if l != la[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 selected identical landmark sets; selection ignores the seed")
	}
}

// TestLandmarksDistinct: farthest-point traversal never repeats a node.
func TestLandmarksDistinct(t *testing.T) {
	g := testGraph(t)
	o := buildOracle(t, g, Config{Landmarks: 12, Seed: 3})
	seen := map[graph.NodeID]bool{}
	for _, l := range o.Landmarks() {
		if seen[l] {
			t.Fatalf("landmark %d selected twice", l)
		}
		seen[l] = true
	}
}

// TestNodeVecMatchesDijkstra: every stored row must equal the landmark's
// exact Dijkstra sweep — the oracle's soundness rests on these being
// true distances, not approximations.
func TestNodeVecMatchesDijkstra(t *testing.T) {
	g := testGraph(t)
	o := buildOracle(t, g, Config{Landmarks: 4, Seed: 7})
	ctx := context.Background()
	row := make([]float64, o.NumLandmarks())
	for li, lm := range o.Landmarks() {
		sweep := g.DistancesFromNode(lm, math.Inf(1))
		for n := 0; n < g.NumNodes(); n += 97 { // sampled stride keeps this fast
			if err := o.NodeVec(ctx, graph.NodeID(n), row); err != nil {
				t.Fatal(err)
			}
			if row[li] != sweep[n] {
				t.Fatalf("landmark %d, node %d: stored %v, Dijkstra %v", li, n, row[li], sweep[n])
			}
		}
	}
	// The landmark's own row is zero at its own index.
	if err := o.NodeVec(ctx, o.Landmarks()[0], row); err != nil {
		t.Fatal(err)
	}
	if row[0] != 0 {
		t.Fatalf("landmark's distance to itself is %v, want 0", row[0])
	}
}

// TestNodeVecBounds: out-of-range nodes and wrong-sized destinations are
// rejected with ErrBadOracle, never a panic or a silent partial read.
func TestNodeVecBounds(t *testing.T) {
	g := testGraph(t)
	o := buildOracle(t, g, Config{Landmarks: 4, Seed: 7})
	ctx := context.Background()
	row := make([]float64, o.NumLandmarks())
	if err := o.NodeVec(ctx, graph.NodeID(g.NumNodes()), row); !errors.Is(err, ErrBadOracle) {
		t.Fatalf("out-of-range node: err = %v, want ErrBadOracle", err)
	}
	if err := o.NodeVec(ctx, -1, row); !errors.Is(err, ErrBadOracle) {
		t.Fatalf("negative node: err = %v, want ErrBadOracle", err)
	}
	if err := o.NodeVec(ctx, 0, row[:2]); !errors.Is(err, ErrBadOracle) {
		t.Fatalf("short destination: err = %v, want ErrBadOracle", err)
	}
}

// TestRoundTrip: WriteTo then Load restores an identical oracle into a
// fresh pool.
func TestRoundTrip(t *testing.T) {
	g := testGraph(t)
	o := buildOracle(t, g, Config{Landmarks: 6, Seed: 5})
	ctx := context.Background()

	var buf bytes.Buffer
	if err := o.WriteTo(ctx, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()), g.NumNodes(), testPool(256), Config{Landmarks: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed() != o.Seed() || got.NumNodes() != o.NumNodes() {
		t.Fatalf("loaded (seed %d, nodes %d), want (%d, %d)", got.Seed(), got.NumNodes(), o.Seed(), o.NumNodes())
	}
	lw, lg := o.Landmarks(), got.Landmarks()
	if len(lw) != len(lg) {
		t.Fatalf("loaded %d landmarks, want %d", len(lg), len(lw))
	}
	for i := range lw {
		if lw[i] != lg[i] {
			t.Fatalf("landmark %d: loaded %d, want %d", i, lg[i], lw[i])
		}
	}
	want := make([]float64, o.NumLandmarks())
	have := make([]float64, got.NumLandmarks())
	for n := 0; n < g.NumNodes(); n += 131 {
		if err := o.NodeVec(ctx, graph.NodeID(n), want); err != nil {
			t.Fatal(err)
		}
		if err := got.NodeVec(ctx, graph.NodeID(n), have); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("node %d, landmark %d: loaded %v, want %v", n, i, have[i], want[i])
			}
		}
	}
}

// TestLoadRejections drives every validation branch of Load with a
// mutated serialization; each must fail wrapping ErrBadOracle.
func TestLoadRejections(t *testing.T) {
	g := testGraph(t)
	o := buildOracle(t, g, Config{Landmarks: 4, Seed: 5})
	var buf bytes.Buffer
	if err := o.WriteTo(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	nodes := g.NumNodes()

	put32 := func(b []byte, off int, v uint32) {
		b[off], b[off+1], b[off+2], b[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	put64 := func(b []byte, off int, v uint64) {
		put32(b, off, uint32(v))
		put32(b, off+4, uint32(v>>32))
	}

	cases := []struct {
		name   string
		nodes  int
		cfg    Config
		mutate func(b []byte) []byte
		detail string // substring expected in the error text
	}{
		{"empty file", nodes, Config{}, func(b []byte) []byte { return nil }, "reading header"},
		{"truncated header", nodes, Config{}, func(b []byte) []byte { return b[:headerSize/2] }, "reading header"},
		{"bad magic", nodes, Config{}, func(b []byte) []byte { put32(b, 0, 0xDEADBEEF); return b }, "bad magic"},
		{"bad version", nodes, Config{}, func(b []byte) []byte { put32(b, 4, 99); return b }, "unsupported version"},
		{"zero landmarks", nodes, Config{}, func(b []byte) []byte { put32(b, 8, 0); return b }, "landmark count"},
		{"too many landmarks", nodes, Config{}, func(b []byte) []byte { put32(b, 8, MaxLandmarks+1); return b }, "landmark count"},
		{"landmark count mismatch", nodes, Config{Landmarks: 9}, nil, "configuration wants 9"},
		{"seed mismatch", nodes, Config{Seed: 6}, nil, "configuration wants 6"},
		{"node count mismatch", nodes + 1, Config{}, nil, "graph has"},
		{"truncated payload", nodes, Config{}, func(b []byte) []byte { return b[:len(b)/2] }, "reading payload"},
		{"trailing bytes", nodes, Config{}, func(b []byte) []byte { return append(b, 0) }, "trailing bytes"},
		{"bit flip", nodes, Config{}, func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }, "checksum"},
		{"landmark out of range", nodes, Config{}, func(b []byte) []byte {
			put64(b, headerSize, uint64(nodes)) // first landmark ID past the node count
			reseal(b)
			return b
		}, "names node"},
		{"negative distance", nodes, Config{}, func(b []byte) []byte {
			put64(b, headerSize+8*4, math.Float64bits(-1))
			reseal(b)
			return b
		}, "distance entry"},
		{"NaN distance", nodes, Config{}, func(b []byte) []byte {
			put64(b, headerSize+8*4, math.Float64bits(math.NaN()))
			reseal(b)
			return b
		}, "distance entry"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := append([]byte(nil), good...)
			if tc.mutate != nil {
				data = tc.mutate(data)
			}
			_, err := Load(bytes.NewReader(data), tc.nodes, testPool(256), tc.cfg)
			if err == nil {
				t.Fatal("accepted")
			}
			if !errors.Is(err, ErrBadOracle) {
				t.Fatalf("err = %v, want ErrBadOracle", err)
			}
			if !strings.Contains(err.Error(), tc.detail) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.detail)
			}
		})
	}
}

// reseal recomputes the payload checksum after a deliberate payload
// mutation, so the validation under test is the semantic check, not the
// CRC.
func reseal(b []byte) {
	sum := crc32.Checksum(b[headerSize:], crcTable)
	b[12], b[13], b[14], b[15] = byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24)
}

// FuzzOracleLoad: for arbitrary bytes, Load either fails wrapping
// ErrBadOracle or returns an oracle whose WriteTo reproduces the bytes it
// accepted, and it never panics. Each input is tried as given and with its
// payload checksum resealed, so the checks behind the CRC are reached too.
// The graph's node count is the file's own when that is at most 16, so a
// header can pass the node-count check without a large payload.
func FuzzOracleLoad(f *testing.F) {
	g := graph.New()
	a, b := g.AddNode(pt(0, 0)), g.AddNode(pt(1, 0))
	c, d := g.AddNode(pt(10, 10)), g.AddNode(pt(11, 10))
	if _, err := g.AddEdge(a, b, 1); err != nil {
		f.Fatal(err)
	}
	if _, err := g.AddEdge(c, d, 2.5); err != nil {
		f.Fatal(err)
	}
	g.Freeze()
	for _, cfg := range []Config{{Landmarks: 1, Seed: 1}, {Landmarks: 2, Seed: 7}, {Landmarks: 4, Seed: 3}} {
		o, err := Build(g, testPool(8), cfg)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := o.WriteTo(context.Background(), &buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		try := func(data []byte) {
			nodes := g.NumNodes()
			if len(data) >= headerSize {
				if n := binary.LittleEndian.Uint64(data[16:]); n <= 16 {
					nodes = int(n)
				}
			}
			o, err := Load(bytes.NewReader(data), nodes, testPool(8), Config{})
			if err != nil {
				if !errors.Is(err, ErrBadOracle) {
					t.Fatalf("err = %v, want ErrBadOracle", err)
				}
				return
			}
			var buf bytes.Buffer
			if err := o.WriteTo(context.Background(), &buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("accepted %d bytes, WriteTo wrote back %d different ones", len(data), buf.Len())
			}
		}
		try(data)
		if len(data) >= headerSize {
			resealed := slices.Clone(data)
			reseal(resealed)
			try(resealed)
		}
	})
}

// TestBuildRejections: empty graphs and over-budget landmark counts are
// build-time errors, also wrapping ErrBadOracle.
func TestBuildRejections(t *testing.T) {
	if _, err := Build(graph.New(), testPool(8), Config{}); !errors.Is(err, ErrBadOracle) {
		t.Fatalf("empty graph: err = %v, want ErrBadOracle", err)
	}
	g := testGraph(t)
	if _, err := Build(g, testPool(8), Config{Landmarks: MaxLandmarks + 1}); !errors.Is(err, ErrBadOracle) {
		t.Fatalf("oversized landmark count: err = %v, want ErrBadOracle", err)
	}
}

// TestLandmarksCappedAtNodeCount: asking for more landmarks than nodes
// selects every node exactly once.
func TestLandmarksCappedAtNodeCount(t *testing.T) {
	g := graph.New()
	a := g.AddNode(pt(0, 0))
	b := g.AddNode(pt(1, 0))
	c := g.AddNode(pt(2, 0))
	mustEdge(t, g, a, b, 1)
	mustEdge(t, g, b, c, 1)
	g.Freeze()
	o, err := Build(g, testPool(8), Config{Landmarks: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if o.NumLandmarks() != 3 {
		t.Fatalf("3-node graph selected %d landmarks, want 3", o.NumLandmarks())
	}
}

// TestDisconnectedComponents: an unreached component is infinitely far,
// so farthest-point selection covers it, and cross-component rows store
// +Inf.
func TestDisconnectedComponents(t *testing.T) {
	g := graph.New()
	a := g.AddNode(pt(0, 0))
	b := g.AddNode(pt(1, 0))
	c := g.AddNode(pt(10, 10))
	d := g.AddNode(pt(11, 10))
	mustEdge(t, g, a, b, 1)
	mustEdge(t, g, c, d, 1)
	g.Freeze()
	o, err := Build(g, testPool(8), Config{Landmarks: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ls := o.Landmarks()
	inFirst := func(n graph.NodeID) bool { return n == a || n == b }
	if inFirst(ls[0]) == inFirst(ls[1]) {
		t.Fatalf("landmarks %v landed in one component; farthest-point must cover both", ls)
	}
	row := make([]float64, 2)
	if err := o.NodeVec(context.Background(), a, row); err != nil {
		t.Fatal(err)
	}
	sawInf := false
	for _, v := range row {
		if math.IsInf(v, 1) {
			sawInf = true
		}
	}
	if !sawInf {
		t.Fatalf("node in component 1 has row %v; the other component's landmark must be +Inf", row)
	}
}

func pt(x, y float64) geo.Point { return geo.Point{X: x, Y: y} }

func mustEdge(t *testing.T, g *graph.Graph, a, b graph.NodeID, w float64) {
	t.Helper()
	if _, err := g.AddEdge(a, b, w); err != nil {
		t.Fatal(err)
	}
}
