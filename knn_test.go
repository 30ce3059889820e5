package dsks_test

import (
	"context"
	"math"
	"sort"
	"testing"

	"dsks"
	"dsks/internal/obj"
)

func TestSearchKNNMatchesRangeSearch(t *testing.T) {
	ds, err := dsks.GeneratePreset(dsks.PresetSYN, 2000, 31)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dsks.OpenDataset(ds, dsks.Options{Index: dsks.IndexSIF})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: 15, Keywords: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, wq := range ws {
		// Reference: a very wide range search, truncated to k.
		full, err := db.Query(context.Background(), dsks.SKQuery{Pos: wq.Pos, Terms: wq.Terms, DeltaMax: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 10} {
			knn, err := db.Query(context.Background(), dsks.KNNQuery{Pos: wq.Pos, Terms: wq.Terms, K: k})
			if err != nil {
				t.Fatal(err)
			}
			want := len(full.Candidates)
			if want > k {
				want = k
			}
			if len(knn.Candidates) != want {
				t.Fatalf("k=%d: got %d candidates, want %d", k, len(knn.Candidates), want)
			}
			for i := range knn.Candidates {
				if math.Abs(knn.Candidates[i].Dist-full.Candidates[i].Dist) > 1e-9 {
					t.Fatalf("k=%d result %d: dist %v vs range search %v",
						k, i, knn.Candidates[i].Dist, full.Candidates[i].Dist)
				}
			}
			if want > 0 {
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("workload produced no kNN results; test is vacuous")
	}
}

func TestSearchKNNMaxDistCap(t *testing.T) {
	ds, err := dsks.GeneratePreset(dsks.PresetSYN, 2000, 33)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dsks.OpenDataset(ds, dsks.Options{Index: dsks.IndexSIF})
	if err != nil {
		t.Fatal(err)
	}
	anchor := ds.Objects.Get(0)
	knn, err := db.Query(context.Background(), dsks.KNNQuery{
		Pos: anchor.Pos, Terms: anchor.Terms[:1], K: 100, MaxDist: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range knn.Candidates {
		if c.Dist > 200 {
			t.Fatalf("capped kNN returned distance %v", c.Dist)
		}
	}
}

func TestSearchKNNValidation(t *testing.T) {
	db, vocab, origin, _ := buildTinyCity(t)
	terms, err := vocab.LookupAll([]string{"pizza"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(context.Background(), dsks.KNNQuery{Pos: origin, Terms: terms, K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := db.Query(context.Background(), dsks.KNNQuery{Pos: origin, K: 3}); err == nil {
		t.Error("empty terms accepted")
	}
	if _, err := db.Query(context.Background(), dsks.KNNQuery{Pos: origin, Terms: terms, K: 3, MaxDist: -1}); err == nil {
		t.Error("negative MaxDist accepted")
	}
}

func TestStreamMatchesSearch(t *testing.T) {
	db, vocab, origin, _ := buildTinyCity(t)
	terms, err := vocab.LookupAll([]string{"pizza"})
	if err != nil {
		t.Fatal(err)
	}
	q := dsks.SKQuery{Pos: origin, Terms: terms, DeltaMax: 500}
	full, err := db.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	st, err := db.Stream(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []dsks.Candidate
	for {
		c, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		streamed = append(streamed, c)
	}
	if len(streamed) != len(full.Candidates) {
		t.Fatalf("stream yielded %d, search %d", len(streamed), len(full.Candidates))
	}
	for i := range streamed {
		if streamed[i].Ref != full.Candidates[i].Ref {
			t.Fatalf("stream order differs at %d", i)
		}
	}
	if st.Stats().Candidates == 0 {
		t.Error("stream stats empty")
	}
}

func TestStreamEarlyStop(t *testing.T) {
	db, vocab, origin, _ := buildTinyCity(t)
	terms, err := vocab.LookupAll([]string{"pizza"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := db.Stream(context.Background(), dsks.SKQuery{Pos: origin, Terms: terms, DeltaMax: 500})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Next(); err != nil || !ok {
		t.Fatalf("first Next: %v %v", ok, err)
	}
	st.Stop()
	if _, ok, err := st.Next(); err != nil || ok {
		t.Fatalf("Next after Stop: ok=%v err=%v", ok, err)
	}
}

// TestKNNDistancesSorted is a property check across seeds.
func TestKNNDistancesSorted(t *testing.T) {
	for seed := int64(40); seed < 44; seed++ {
		ds, err := dsks.GeneratePreset(dsks.PresetSYN, 2000, seed)
		if err != nil {
			t.Fatal(err)
		}
		db, err := dsks.OpenDataset(ds, dsks.Options{Index: dsks.IndexSIFP})
		if err != nil {
			t.Fatal(err)
		}
		anchor := ds.Objects.Get(obj.ID(seed % 10))
		knn, err := db.Query(context.Background(), dsks.KNNQuery{Pos: anchor.Pos, Terms: anchor.Terms[:1], K: 20})
		if err != nil {
			t.Fatal(err)
		}
		if !sort.SliceIsSorted(knn.Candidates, func(i, j int) bool {
			return knn.Candidates[i].Dist < knn.Candidates[j].Dist
		}) {
			t.Fatalf("seed %d: kNN results not sorted", seed)
		}
	}
}

func TestPublicRanked(t *testing.T) {
	db, vocab, origin, _ := buildTinyCity(t)
	terms, err := vocab.LookupAll([]string{"pizza", "pasta"})
	if err != nil {
		t.Fatal(err)
	}
	r, err := db.Query(context.Background(), dsks.RankedQuery{
		Pos: origin, Terms: terms, K: 3, Alpha: 0.5, DeltaMax: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := r.Ranked
	if len(res) != 3 {
		t.Fatalf("ranked returned %d results", len(res))
	}
	// The nearest full match (pizza+pasta at 20m) must rank first.
	if res[0].Matched != 2 || res[0].Dist != 20 {
		t.Errorf("top result = %+v, want the 20m pizza+pasta place", res[0])
	}
	// Scores non-increasing.
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score+1e-12 {
			t.Errorf("scores not sorted: %v after %v", res[i].Score, res[i-1].Score)
		}
	}
}

func TestPublicCollective(t *testing.T) {
	db, vocab, origin, _ := buildTinyCity(t)
	// pizza+coffee: no single place has both; the group must combine a
	// pizza place with the coffee shop.
	terms, err := vocab.LookupAll([]string{"pizza", "coffee"})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := db.Query(context.Background(), dsks.CollectiveQuery{
		Pos: origin, Terms: terms, DeltaMax: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := cr.Collective
	if !res.Covered {
		t.Fatalf("group not covered: %+v", res)
	}
	if len(res.Objects) != 2 {
		t.Fatalf("expected a 2-object group, got %d", len(res.Objects))
	}
}
