package dsks_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"dsks"
)

func randNew(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestInsertVisibleToQueries inserts objects into every dynamic index kind
// and verifies all query modes see them at the exact network distance.
func TestInsertVisibleToQueries(t *testing.T) {
	for _, kind := range []dsks.IndexKind{dsks.IndexIF, dsks.IndexSIF, dsks.IndexSIFP} {
		t.Run(string(kind), func(t *testing.T) {
			ds, err := dsks.GeneratePreset(dsks.PresetSYN, 2000, 101)
			if err != nil {
				t.Fatal(err)
			}
			db, err := dsks.OpenDataset(ds, dsks.Options{Index: kind})
			if err != nil {
				t.Fatal(err)
			}
			// A brand-new keyword combination on a known edge.
			e := ds.Graph.Edge(0)
			pos := dsks.Position{Edge: e.ID, Offset: e.Length / 2}
			terms := []dsks.TermID{dsks.TermID(ds.VocabSize - 1), dsks.TermID(ds.VocabSize - 2)}
			id, err := db.Insert(pos, terms)
			if err != nil {
				t.Fatal(err)
			}

			origin := dsks.Position{Edge: e.ID, Offset: 0}
			res, err := db.Query(context.Background(), dsks.SKQuery{Pos: origin, Terms: normalized(terms), DeltaMax: 1e9})
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, c := range res.Candidates {
				if c.Ref.ID == id {
					found = true
					want, err := db.NetworkDistance(context.Background(), origin, pos)
					if err != nil || math.Abs(c.Dist-want) > 1e-6 {
						t.Fatalf("inserted object at %v, want %v", c.Dist, want)
					}
				}
			}
			if !found {
				t.Fatal("inserted object not found by boolean search")
			}
		})
	}
}

func normalized(ts []dsks.TermID) []dsks.TermID {
	out := append([]dsks.TermID(nil), ts...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestInsertGrowsExistingList(t *testing.T) {
	// Insert many objects sharing one keyword on one edge: the posting
	// list must be rewritten and re-read correctly (multi-page growth).
	g := dsks.NewGraph()
	a := g.AddNode(dsks.Point{X: 0, Y: 0})
	b := g.AddNode(dsks.Point{X: 1000, Y: 0})
	e, err := g.AddEdge(a, b, 1000)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	vocab := dsks.NewVocabulary()
	objects := dsks.NewCollection()
	objects.Add(dsks.Position{Edge: e, Offset: 1}, vocab.InternAll([]string{"x"}))
	db, err := dsks.Open(g, objects, vocab.Size(), dsks.Options{Index: dsks.IndexSIF})
	if err != nil {
		t.Fatal(err)
	}
	terms, _ := vocab.LookupAll([]string{"x"})
	const extra = 600 // beyond one page of postings
	for i := 0; i < extra; i++ {
		if _, err := db.Insert(dsks.Position{Edge: e, Offset: float64(i%999) + 1}, terms); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query(context.Background(), dsks.SKQuery{Pos: dsks.Position{Edge: e}, Terms: terms, DeltaMax: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != extra+1 {
		t.Fatalf("found %d objects, want %d", len(res.Candidates), extra+1)
	}
}

func TestInsertValidation(t *testing.T) {
	db, vocab, _, edges := buildTinyCity(t)
	_ = vocab
	if _, err := db.Insert(dsks.Position{Edge: dsks.EdgeID(99)}, []dsks.TermID{0}); err == nil {
		t.Error("unknown edge accepted")
	}
	if _, err := db.Insert(dsks.Position{Edge: edges[0]}, []dsks.TermID{dsks.TermID(9999)}); err == nil {
		t.Error("out-of-vocabulary term accepted")
	}
}

func TestRemoveHidesFromQueries(t *testing.T) {
	for _, kind := range []dsks.IndexKind{dsks.IndexIF, dsks.IndexSIF, dsks.IndexSIFP} {
		t.Run(string(kind), func(t *testing.T) {
			ds, err := dsks.GeneratePreset(dsks.PresetSYN, 2000, 103)
			if err != nil {
				t.Fatal(err)
			}
			db, err := dsks.OpenDataset(ds, dsks.Options{Index: kind})
			if err != nil {
				t.Fatal(err)
			}
			// Find a query with results, remove the first result, re-query.
			ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
				NumQueries: 10, Keywords: 2, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			ran := false
			for _, wq := range ws {
				q := dsks.SKQuery{Pos: wq.Pos, Terms: wq.Terms, DeltaMax: wq.DeltaMax}
				before, err := db.Query(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if len(before.Candidates) == 0 {
					continue
				}
				victim := before.Candidates[0].Ref.ID
				if err := db.Remove(victim); err != nil {
					t.Fatal(err)
				}
				after, err := db.Query(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if len(after.Candidates) != len(before.Candidates)-1 {
					t.Fatalf("after removal: %d candidates, want %d",
						len(after.Candidates), len(before.Candidates)-1)
				}
				for _, c := range after.Candidates {
					if c.Ref.ID == victim {
						t.Fatal("removed object still returned")
					}
				}
				ran = true
				break
			}
			if !ran {
				t.Fatal("no query had results; test is vacuous")
			}
		})
	}
}

func TestRemoveValidation(t *testing.T) {
	db, _, _, _ := buildTinyCity(t)
	if err := db.Remove(dsks.ObjectID(999)); err == nil {
		t.Error("unknown object removed")
	}
	if err := db.Remove(0); err != nil {
		t.Fatalf("first removal failed: %v", err)
	}
	if err := db.Remove(0); err == nil {
		t.Error("double removal accepted")
	}
}

func TestInsertAfterRemove(t *testing.T) {
	db, vocab, origin, edges := buildTinyCity(t)
	terms, _ := vocab.LookupAll([]string{"pizza"})
	if err := db.Remove(0); err != nil {
		t.Fatal(err)
	}
	id, err := db.Insert(dsks.Position{Edge: edges[0], Offset: 30}, terms)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), dsks.SKQuery{Pos: origin, Terms: terms, DeltaMax: 500})
	if err != nil {
		t.Fatal(err)
	}
	foundNew := false
	for _, c := range res.Candidates {
		if c.Ref.ID == 0 {
			t.Fatal("removed object resurfaced")
		}
		if c.Ref.ID == id {
			foundNew = true
		}
	}
	if !foundNew {
		t.Fatal("object inserted after removal not found")
	}
}

// TestMixedReadWriteWorkload interleaves inserts, removals and all query
// modes against one database and cross-checks every boolean result
// against brute force over the live collection.
func TestMixedReadWriteWorkload(t *testing.T) {
	ds, err := dsks.GeneratePreset(dsks.PresetSYN, 2000, 131)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dsks.OpenDataset(ds, dsks.Options{Index: dsks.IndexSIF})
	if err != nil {
		t.Fatal(err)
	}
	g, col := ds.Graph, ds.Objects
	rng := randNew(17)
	var inserted []dsks.ObjectID
	for step := 0; step < 120; step++ {
		switch step % 4 {
		case 0: // insert a clone of a random live object, jittered
			var src *dsks.Collection = col
			id := dsks.ObjectID(rng.Intn(src.Len()))
			if src.Removed(id) {
				continue
			}
			o := src.Get(id)
			e := g.Edge(o.Pos.Edge)
			pos := dsks.Position{Edge: e.ID, Offset: rng.Float64() * e.Length}
			nid, err := db.Insert(pos, o.Terms)
			if err != nil {
				t.Fatal(err)
			}
			inserted = append(inserted, nid)
		case 2: // remove one of our inserts
			if len(inserted) > 0 {
				victim := inserted[0]
				inserted = inserted[1:]
				if err := db.Remove(victim); err != nil {
					t.Fatal(err)
				}
			}
		default: // query and cross-check
			anchorID := dsks.ObjectID(rng.Intn(col.Len()))
			if col.Removed(anchorID) {
				continue
			}
			anchor := col.Get(anchorID)
			terms := anchor.Terms
			if len(terms) > 2 {
				terms = terms[:2]
			}
			q := dsks.SKQuery{Pos: anchor.Pos, Terms: terms, DeltaMax: 800}
			res, err := db.Query(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			want := map[dsks.ObjectID]bool{}
			for i := 0; i < col.Len(); i++ {
				oid := dsks.ObjectID(i)
				if col.Removed(oid) {
					continue
				}
				o := col.Get(oid)
				if o.HasAllTerms(terms) && g.NetworkDist(q.Pos, o.Pos) <= q.DeltaMax {
					want[oid] = true
				}
			}
			if len(res.Candidates) != len(want) {
				t.Fatalf("step %d: got %d candidates, want %d", step, len(res.Candidates), len(want))
			}
			for _, c := range res.Candidates {
				if !want[c.Ref.ID] {
					t.Fatalf("step %d: spurious candidate %d", step, c.Ref.ID)
				}
			}
		}
	}
}
