package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dsks/internal/dataset"
	"dsks/internal/engine"
	"dsks/internal/graph"
	"dsks/internal/index"
	"dsks/internal/invindex"
	"dsks/internal/obj"
	"dsks/internal/storage"
)

// scanEdge is the model of an index probe: a linear scan of the objects
// the collection holds on e, in ascending ID, with the number of query
// terms each carries.
func scanEdge(col *obj.Collection, e graph.EdgeID, ts []obj.TermID) (all []index.ObjectRef, some []index.ObjectMatch) {
	ids := append([]obj.ID(nil), col.OnEdge(e)...)
	slices.Sort(ids)
	for _, id := range ids {
		o, matched := col.Get(id), index.TermSet{}
		for j, q := range ts {
			if o.HasTerm(q) {
				matched.Add(j)
			}
		}
		ref := index.ObjectRef{ID: id, Edge: e, Offset: o.Pos.Offset}
		if matched.Len() == len(ts) {
			all = append(all, ref)
		}
		if matched.Len() > 0 {
			some = append(some, index.ObjectMatch{Ref: ref, Terms: matched})
		}
	}
	return all, some
}

// checkIndex probes every object edge, and the hot edge under its term,
// through rd and compares both load forms with the scan.
func checkIndex(t *testing.T, step string, rd index.Loader, col *obj.Collection, vocab int, hot graph.EdgeID, hotTerm obj.TermID, rng *rand.Rand) {
	t.Helper()
	ctx := context.Background()
	probe := func(e graph.EdgeID, ts []obj.TermID) {
		t.Helper()
		all, some := scanEdge(col, e, ts)
		got, err := rd.LoadObjects(ctx, e, ts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, all) {
			t.Fatalf("%s: LoadObjects(edge %d, %v)\n got %v\nwant %v", step, e, ts, got, all)
		}
		any, err := rd.(index.UnionLoader).LoadObjectsAny(ctx, e, ts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(any, some) {
			t.Fatalf("%s: LoadObjectsAny(edge %d, %v)\n got %v\nwant %v", step, e, ts, any, some)
		}
	}
	probe(hot, []obj.TermID{hotTerm})
	for _, e := range col.Edges() {
		// One term the edge has, one pair with it, one random pair.
		own := col.Get(col.OnEdge(e)[0]).Terms[0]
		probe(e, []obj.TermID{own})
		probe(e, obj.NormalizeTerms([]obj.TermID{own, obj.TermID(rng.Intn(vocab))}))
		probe(e, obj.NormalizeTerms([]obj.TermID{obj.TermID(rng.Intn(vocab)), obj.TermID(rng.Intn(vocab))}))
	}
}

// TestIndexMatchesLinearScan holds IF, SIF and SIF-P to a linear scan of
// the collection: as built (with one list just under the overflow bound),
// after random inserts and removes, with that list pushed over the bound,
// and with it back under. Each mutation is its own commit; every check
// reads through a query's page memo at the last LSN, and the snapshot of
// the index as built must still read as built at the end.
func TestIndexMatchesLinearScan(t *testing.T) {
	for _, kind := range []engine.IndexKind{engine.KindIF, engine.KindSIF, engine.KindSIFP} {
		ds, err := dataset.GeneratePreset(dataset.PresetSYN, 2000, 5)
		if err != nil {
			t.Fatal(err)
		}
		col, vocab := ds.Objects, ds.VocabSize
		rng := rand.New(rand.NewSource(12))
		hot, hotTerm := col.Edges()[0], obj.TermID(3)
		length := ds.Graph.Edge(hot).Length
		hotList := func() int {
			all, _ := scanEdge(col, hot, []obj.TermID{hotTerm})
			return len(all)
		}
		for hotList() < invindex.MaxInlineRecords-2 {
			col.Add(graph.Position{Edge: hot, Offset: rng.Float64() * length}, []obj.TermID{hotTerm, obj.TermID(rng.Intn(vocab))})
		}
		e := openFrames(t, ds.Graph, col, vocab, kind, 16)
		overflow := e.Metrics.Counter(engine.CounterOverflowReads)

		cur, lsn := e.Versions.Roots(), uint64(0)
		built := *cur
		reader := func(r *engine.Roots, at uint64) index.Loader {
			return e.Versions.ReaderAt(storage.NewPageMemo(e.Pool.ViewAt(at), 16), r)
		}
		check := func(step string) {
			t.Helper()
			checkIndex(t, fmt.Sprintf("%s %s", kind, step), reader(cur, lsn), col, vocab, hot, hotTerm, rng)
		}
		commit := func(apply func(p storage.Pager, r *engine.Roots) error) {
			t.Helper()
			lsn++
			batch, next := e.Pool.NewBatch(lsn), *cur
			if err := apply(batch, &next); err != nil {
				t.Fatal(err)
			}
			e.Pool.Publish(batch, nil)
			cur = &next
		}
		insert := func(pos graph.Position, terms []obj.TermID) obj.ID {
			id := col.Add(pos, terms)
			o := col.Get(id)
			commit(func(p storage.Pager, r *engine.Roots) error {
				return e.Versions.InsertObjectAt(p, r, id, o.Pos, o.Terms)
			})
			return id
		}
		remove := func(id obj.ID) {
			o := col.Get(id)
			commit(func(p storage.Pager, r *engine.Roots) error {
				return e.Versions.RemoveObjectAt(p, r, id, o.Pos.Edge, o.Terms)
			})
			if err := col.Remove(id); err != nil {
				t.Fatal(err)
			}
		}

		check("as built")
		if overflow.Load() != 0 {
			t.Fatalf("%s: %d overflow reads with every list under the bound", kind, overflow.Load())
		}
		// What the index held as built, to be read again at LSN 0 beside
		// the commits.
		type probe struct {
			terms []obj.TermID
			want  []index.ObjectMatch
		}
		asBuilt := make(map[graph.EdgeID]probe)
		for _, edge := range col.Edges() {
			terms := col.Get(col.OnEdge(edge)[0]).Terms
			_, want := scanEdge(col, edge, terms)
			asBuilt[edge] = probe{terms, want}
		}

		edges := ds.Graph.NumEdges()
		for i := 0; i < 150; i++ {
			if rng.Intn(3) > 0 {
				edge := graph.EdgeID(rng.Intn(edges))
				terms := make([]obj.TermID, 1+rng.Intn(3))
				for j := range terms {
					terms[j] = obj.TermID(rng.Intn(vocab))
				}
				insert(graph.Position{Edge: edge, Offset: rng.Float64() * ds.Graph.Edge(edge).Length}, terms)
			} else if id := obj.ID(rng.Intn(col.Len())); !col.Removed(id) && col.Get(id).Pos.Edge != hot {
				remove(id)
			}
		}
		check("after random inserts and removes")

		var pushed []obj.ID
		for i := 0; i < 12; i++ {
			pushed = append(pushed, insert(graph.Position{Edge: hot, Offset: rng.Float64() * length}, []obj.TermID{hotTerm}))
		}
		if n := hotList(); n <= invindex.MaxInlineRecords {
			t.Fatalf("%s: the hot list holds %d postings, not past the bound of %d", kind, n, invindex.MaxInlineRecords)
		}
		check("with a list over the overflow bound")
		if overflow.Load() == 0 {
			t.Fatalf("%s: probes of a list past the bound moved %s nowhere", kind, engine.CounterOverflowReads)
		}
		for _, id := range pushed {
			remove(id)
		}
		before := overflow.Load()
		check("with the list back under the bound")
		if overflow.Load() != before {
			t.Fatalf("%s: %d overflow reads with every list back under the bound", kind, overflow.Load()-before)
		}

		old := reader(&built, 0).(index.UnionLoader)
		for edge, p := range asBuilt {
			got, err := old.LoadObjectsAny(context.Background(), edge, p.terms)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, p.want) {
				t.Fatalf("%s: the snapshot at LSN 0 reads edge %d differently beside %d commits\n got %v\nwant %v", kind, edge, lsn, got, p.want)
			}
		}
		if err := e.Pool.FoldTo(lsn); err != nil {
			t.Fatal(err)
		}
		check("after the fold")
	}
}
