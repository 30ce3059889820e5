package dsks_test

import (
	"context"
	"math"
	"testing"

	"dsks"
)

// buildTinyCity builds the quickstart-style fixture used by the public
// API tests: a 2×2 grid with restaurants.
func buildTinyCity(t testing.TB) (*dsks.DB, *dsks.Vocabulary, dsks.Position, []dsks.EdgeID) {
	t.Helper()
	return buildTinyCityWith(t, dsks.Options{})
}

// buildTinyCityWith is buildTinyCity over a database opened with opts.
func buildTinyCityWith(t testing.TB, opts dsks.Options) (*dsks.DB, *dsks.Vocabulary, dsks.Position, []dsks.EdgeID) {
	t.Helper()
	g := dsks.NewGraph()
	n00 := g.AddNode(dsks.Point{X: 0, Y: 0})
	n10 := g.AddNode(dsks.Point{X: 100, Y: 0})
	n01 := g.AddNode(dsks.Point{X: 0, Y: 100})
	n11 := g.AddNode(dsks.Point{X: 100, Y: 100})
	var edges []dsks.EdgeID
	for _, pair := range [][2]dsks.NodeID{{n00, n10}, {n00, n01}, {n10, n11}, {n01, n11}} {
		e, err := g.AddEdge(pair[0], pair[1], 100)
		if err != nil {
			t.Fatal(err)
		}
		edges = append(edges, e)
	}
	g.Freeze()

	vocab := dsks.NewVocabulary()
	objects := dsks.NewCollection()
	objects.Add(dsks.Position{Edge: edges[0], Offset: 20}, vocab.InternAll([]string{"pizza", "pasta"}))
	objects.Add(dsks.Position{Edge: edges[0], Offset: 60}, vocab.InternAll([]string{"pizza", "sushi"}))
	objects.Add(dsks.Position{Edge: edges[3], Offset: 50}, vocab.InternAll([]string{"pizza", "pasta"}))
	objects.Add(dsks.Position{Edge: edges[2], Offset: 10}, vocab.InternAll([]string{"coffee"}))

	db, err := dsks.Open(g, objects, vocab.Size(), opts)
	if err != nil {
		t.Fatal(err)
	}
	dsks.CheckNoPins(t, db)
	return db, vocab, dsks.Position{Edge: edges[0], Offset: 0}, edges
}

func TestPublicSearch(t *testing.T) {
	db, vocab, origin, _ := buildTinyCity(t)
	terms, err := vocab.LookupAll([]string{"pizza", "pasta"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), dsks.SKQuery{Pos: origin, Terms: terms, DeltaMax: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 2 {
		t.Fatalf("got %d candidates, want 2 (pizza+pasta places)", len(res.Candidates))
	}
	if res.Candidates[0].Dist > res.Candidates[1].Dist {
		t.Error("candidates not distance-ordered")
	}
	// The closest match is 20m along the first street.
	if math.Abs(res.Candidates[0].Dist-20) > 1e-9 {
		t.Errorf("first candidate at %v, want 20", res.Candidates[0].Dist)
	}
}

func TestPublicSearchRangeLimit(t *testing.T) {
	db, vocab, origin, _ := buildTinyCity(t)
	terms, err := vocab.LookupAll([]string{"pizza"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), dsks.SKQuery{Pos: origin, Terms: terms, DeltaMax: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 1 {
		t.Fatalf("range 30 found %d candidates, want 1", len(res.Candidates))
	}
}

func TestPublicDiversified(t *testing.T) {
	db, vocab, origin, _ := buildTinyCity(t)
	terms, err := vocab.LookupAll([]string{"pizza"})
	if err != nil {
		t.Fatal(err)
	}
	q := dsks.DivQuery{
		SKQuery: dsks.SKQuery{Pos: origin, Terms: terms, DeltaMax: 500},
		K:       2,
		Lambda:  0.3, // diversity-leaning: expect the far place in the pair
	}
	com, err := db.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(com.Candidates) != 2 {
		t.Fatalf("k=2 returned %d objects", len(com.Candidates))
	}
	// The diversity-leaning pick must span different edges.
	if com.Candidates[0].Ref.Edge == com.Candidates[1].Ref.Edge {
		t.Errorf("diversity-leaning picks share an edge: %+v", com.Candidates)
	}
}

func TestPublicAllIndexKinds(t *testing.T) {
	for _, kind := range []dsks.IndexKind{dsks.IndexIF, dsks.IndexSIF, dsks.IndexSIFP} {
		g := dsks.NewGraph()
		a := g.AddNode(dsks.Point{X: 0, Y: 0})
		b := g.AddNode(dsks.Point{X: 50, Y: 0})
		e, err := g.AddEdge(a, b, 50)
		if err != nil {
			t.Fatal(err)
		}
		g.Freeze()
		vocab := dsks.NewVocabulary()
		objects := dsks.NewCollection()
		objects.Add(dsks.Position{Edge: e, Offset: 25}, vocab.InternAll([]string{"x"}))
		db, err := dsks.Open(g, objects, vocab.Size(), dsks.Options{Index: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		terms, err := vocab.LookupAll([]string{"x"})
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(context.Background(), dsks.SKQuery{Pos: dsks.Position{Edge: e}, Terms: terms, DeltaMax: 100})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(res.Candidates) != 1 {
			t.Fatalf("%s: found %d candidates", kind, len(res.Candidates))
		}
		if db.IndexSizeBytes() <= 0 {
			t.Errorf("%s: no index size reported", kind)
		}
	}
}

func TestPublicOpenValidation(t *testing.T) {
	if _, err := dsks.Open(nil, nil, 0, dsks.Options{}); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestPublicGenerateAndQuery(t *testing.T) {
	ds, err := dsks.GeneratePreset(dsks.PresetSYN, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dsks.OpenDataset(ds, dsks.Options{Index: dsks.IndexSIF})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: 5, Keywords: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ws {
		if _, err := db.Query(context.Background(), dsks.SKQuery{Pos: q.Pos, Terms: q.Terms, DeltaMax: q.DeltaMax}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.ResetIO(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicNetworkDistance(t *testing.T) {
	db, _, _, edges := buildTinyCity(t)
	a := dsks.Position{Edge: edges[0], Offset: 0}
	b := dsks.Position{Edge: edges[0], Offset: 100}
	if d, err := db.NetworkDistance(context.Background(), a, b); err != nil || math.Abs(d-100) > 1e-9 {
		t.Errorf("NetworkDistance = %v, want 100", d)
	}
}

func TestPublicShortestRoute(t *testing.T) {
	db, _, _, edges := buildTinyCity(t)
	a := dsks.Position{Edge: edges[0], Offset: 0}
	b := dsks.Position{Edge: edges[3], Offset: 50}
	r, err := db.ShortestRoute(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := db.NetworkDistance(context.Background(), a, b); err != nil || math.Abs(r.Cost-d) > 1e-9 {
		t.Fatalf("route cost %v vs distance %v (%v)", r.Cost, d, err)
	}
	if len(r.Edges) < 2 {
		t.Fatalf("route = %+v", r)
	}
}
