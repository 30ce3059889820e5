package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dsks/internal/core"
	"dsks/internal/dataset"
	"dsks/internal/engine"
	"dsks/internal/graph"
	"dsks/internal/obj"
	"dsks/internal/sig"
	"dsks/internal/storage"
)

func testData(t *testing.T) (*dataset.Dataset, []dataset.Query) {
	t.Helper()
	ds, err := dataset.GeneratePreset(dataset.PresetSYN, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
		NumQueries: 36, Keywords: 2, DeltaMaxPerKeyword: 800, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, ws
}

func openEngine(t *testing.T, ds *dataset.Dataset, kind engine.IndexKind, frames int) *engine.Engine {
	t.Helper()
	return openFrames(t, ds.Graph, ds.Objects, ds.VocabSize, kind, frames)
}

// openFrames is engine.Open with every pool fixed at frames frames.
func openFrames(t *testing.T, g *graph.Graph, objects *obj.Collection, vocab int, kind engine.IndexKind, frames int) *engine.Engine {
	t.Helper()
	net, err := engine.NewNetwork(g, engine.Options{}, frames, "")
	if err != nil {
		t.Fatal(err)
	}
	e, err := net.BuildIndex(kind, objects, vocab, net.SigOptions(kind))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runFamily runs workload query i as family i%6 — boolean, diversified,
// kNN, ranked, collective, stream — and returns the envelope without the
// fields that depend on the clock or on the buffer.
func runFamily(e *engine.Engine, at engine.Snapshot, i int, w dataset.Query) (engine.Result, error) {
	ctx := context.Background()
	sk := core.SKQuery{Pos: w.Pos, Terms: w.Terms, DeltaMax: w.DeltaMax}
	var res engine.Result
	var err error
	switch i % 6 {
	case 0:
		res, err = e.Run(ctx, at, sk)
	case 1:
		res, err = e.Run(ctx, at, core.DivQuery{SKQuery: sk, K: 4, Lambda: 0.8})
	case 2:
		res, err = e.Run(ctx, at, core.KNNQuery{Pos: w.Pos, Terms: w.Terms, K: 4, MaxDist: w.DeltaMax})
	case 3:
		res, err = e.Run(ctx, at, core.RankedQuery{Pos: w.Pos, Terms: w.Terms, K: 4, Alpha: 0.5, DeltaMax: w.DeltaMax})
	case 4:
		res, err = e.Run(ctx, at, core.CollectiveQuery{Pos: w.Pos, Terms: w.Terms, DeltaMax: w.DeltaMax})
	case 5:
		var st *engine.Stream
		if st, err = e.Stream(ctx, at, sk, false, nil); err != nil {
			break
		}
		var cands []core.Candidate
		for {
			c, ok, nerr := st.Next()
			if err = nerr; !ok || err != nil {
				break
			}
			cands = append(cands, c)
		}
		res = st.Result()
		res.Candidates = cands
	}
	res.Elapsed, res.Trace, res.DiskReads = 0, core.Trace{}, 0
	return res, err
}

func runAll(t *testing.T, e *engine.Engine, at engine.Snapshot, ws []dataset.Query) []engine.Result {
	t.Helper()
	out := make([]engine.Result, len(ws))
	for i, w := range ws {
		res, err := runFamily(e, at, i, w)
		if err != nil {
			t.Fatalf("query %d (family %d): %v", i, i%6, err)
		}
		out[i] = res
	}
	return out
}

// mutate publishes one insert per workload query (an object at the query
// point carrying its keywords: the new nearest answer) and removes the
// object that was nearest before, each as its own LSN, the way the
// database commits them. It returns the final root set and LSN.
func mutate(t *testing.T, e *engine.Engine, ds *dataset.Dataset, ws []dataset.Query, nearest []obj.ID) (*engine.Roots, uint64) {
	t.Helper()
	cur, lsn := e.Versions.Roots(), uint64(0)
	commit := func(apply func(p storage.Pager, r *engine.Roots) error) {
		lsn++
		batch, next := e.Pool.NewBatch(lsn), *cur
		if err := apply(batch, &next); err != nil {
			t.Fatal(err)
		}
		e.Pool.Publish(batch, nil)
		cur = &next
	}
	removed := map[obj.ID]bool{}
	for i, w := range ws {
		id := obj.ID(ds.Objects.Len() + i)
		commit(func(p storage.Pager, r *engine.Roots) error {
			return e.Versions.InsertObjectAt(p, r, id, w.Pos, w.Terms)
		})
		if victim := nearest[i]; victim >= 0 && !removed[victim] {
			removed[victim] = true
			o := ds.Objects.Get(victim)
			commit(func(p storage.Pager, r *engine.Roots) error {
				return e.Versions.RemoveObjectAt(p, r, victim, o.Pos.Edge, o.Terms)
			})
		}
	}
	return cur, lsn
}

// TestAnswersIndependentOfBufferFrames: the page memo changes which
// requests reach the pool, never what a query reads. All five families
// and Stream return the same envelopes — answers and traversal counts —
// with 1, 4 and 16 frames as with a pool that holds everything: on the
// index as built, at a snapshot after inserts and removes, at the old
// snapshot beside it, and after the fold rewrote the base pages.
func TestAnswersIndependentOfBufferFrames(t *testing.T) {
	ds, ws := testData(t)
	for _, kind := range []engine.IndexKind{engine.KindIF, engine.KindSIF, engine.KindSIFP} {
		var wantBefore, wantAfter []engine.Result
		for _, frames := range []int{1 << 16, 16, 4, 1} {
			name := fmt.Sprintf("%s with %d frames", kind, frames)
			e := openEngine(t, ds, kind, frames)
			before := runAll(t, e, engine.Snapshot{}, ws)

			nearest := make([]obj.ID, len(ws))
			for i, w := range ws {
				res, err := e.Run(context.Background(), engine.Snapshot{}, core.SKQuery{Pos: w.Pos, Terms: w.Terms, DeltaMax: w.DeltaMax})
				if err != nil {
					t.Fatal(err)
				}
				nearest[i] = -1
				if len(res.Candidates) > 0 {
					nearest[i] = res.Candidates[0].Ref.ID
				}
			}
			built := engine.Snapshot{Roots: e.Versions.Roots(), Pages: e.Pool.ViewAt(0)}
			roots, lsn := mutate(t, e, ds, ws, nearest)
			now := engine.Snapshot{Roots: roots, Pages: e.Pool.ViewAt(lsn)}
			after := runAll(t, e, now, ws)
			if reflect.DeepEqual(before, after) {
				t.Fatalf("%s: %d commits changed no answer; the test is vacuous", name, lsn)
			}
			if old := runAll(t, e, built, ws); !reflect.DeepEqual(old, before) {
				t.Errorf("%s: the LSN-0 snapshot answers differently beside %d commits", name, lsn)
			}
			if err := e.Pool.FoldTo(lsn); err != nil {
				t.Fatal(err)
			}
			if folded := runAll(t, e, now, ws); !reflect.DeepEqual(folded, after) {
				t.Errorf("%s: answers at LSN %d changed with the fold", name, lsn)
			}

			if wantBefore == nil {
				wantBefore, wantAfter = before, after
				continue
			}
			for i := range ws {
				if !reflect.DeepEqual(before[i], wantBefore[i]) {
					t.Errorf("%s: query %d (family %d) as built differs from the roomy pool's\n got  %+v\n want %+v", name, i, i%6, before[i], wantBefore[i])
				}
				if !reflect.DeepEqual(after[i], wantAfter[i]) {
					t.Errorf("%s: query %d (family %d) after the commits differs from the roomy pool's\n got  %+v\n want %+v", name, i, i%6, after[i], wantAfter[i])
				}
			}
		}
	}
}

// countingPages is a query's page source as the test hands it to the
// engine: it sits under the query's memo and records every request that
// gets past it, in order of first appearance.
type countingPages struct {
	storage.PageReader
	gets  map[storage.PageID]int
	order []storage.PageID
}

func (c *countingPages) GetCtx(ctx context.Context, id storage.PageID) (*storage.Page, error) {
	if c.gets[id] == 0 {
		c.order = append(c.order, id)
	}
	c.gets[id]++
	return c.PageReader.GetCtx(ctx, id)
}

// TestQueryReadsAnIndexPageOnce: four readers share a 16-frame pool and
// evict each other's pages all the time, yet no query asks its view twice
// for a page its memo admitted — the first 16 distinct pages it touches —
// and no query holds more than the pool's frame count. With 4 frames the
// queries are wider than the bound, and the pages past it go to the pool.
// The queries name three keywords: a rarest-first probe of two stops too
// early for any query to touch more than 4 pages of this small index.
func TestQueryReadsAnIndexPageOnce(t *testing.T) {
	for _, frames := range []int{16, 4} {
		t.Run(fmt.Sprintf("%d frames", frames), func(t *testing.T) { queryReadsAnIndexPageOnce(t, frames) })
	}
}

func queryReadsAnIndexPageOnce(t *testing.T, frames int) {
	const readers, rounds = 4, 3
	ds, _ := testData(t)
	ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
		NumQueries: 36, Keywords: 3, DeltaMaxPerKeyword: 800, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := openEngine(t, ds, engine.KindSIF, frames)
	roots, view := e.Versions.Roots(), e.Pool.ViewAt(0)

	var wg sync.WaitGroup
	var mu sync.Mutex
	queries, mostDistinct, repeatsPastTheBound := 0, 0, 0
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i := range ws {
					i = (i + r*len(ws)/readers) % len(ws)
					pages := &countingPages{PageReader: view, gets: map[storage.PageID]int{}}
					if _, err := runFamily(e, engine.Snapshot{Roots: roots, Pages: pages}, i, ws[i]); err != nil {
						t.Errorf("reader %d, query %d: %v", r, i, err)
						return
					}
					for n, id := range pages.order {
						if n < frames && pages.gets[id] != 1 {
							t.Errorf("reader %d, query %d (family %d): page %d, the %dth it touched, was requested %d times",
								r, i, i%6, id, n+1, pages.gets[id])
						}
					}
					mu.Lock()
					queries++
					mostDistinct = max(mostDistinct, len(pages.order))
					for _, id := range pages.order[min(frames, len(pages.order)):] {
						repeatsPastTheBound += pages.gets[id] - 1
					}
					mu.Unlock()
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if mostDistinct <= 4 {
		t.Fatalf("no query touched more than %d index pages; the workload does not exercise the memo", mostDistinct)
	}
	held := e.Metrics.Counter(engine.CounterPagesHeld).Load()
	memos := e.Metrics.Counter(engine.CounterPagesQueries).Load()
	most := e.Metrics.Counter(engine.GaugePagesHeldMax).Load()
	if memos != int64(queries) {
		t.Errorf("%s = %d after %d queries", engine.CounterPagesQueries, memos, queries)
	}
	if want := int64(min(frames, mostDistinct)); most != want {
		t.Errorf("%s = %d, want %d (the bound is %d frames, the widest query touched %d pages)",
			engine.GaugePagesHeldMax, most, want, frames, mostDistinct)
	}
	if held <= 0 || held > memos*int64(frames) {
		t.Errorf("%s = %d over %d queries with a bound of %d", engine.CounterPagesHeld, held, memos, frames)
	}
	t.Logf("%d queries: %.1f pages held on average, %d at most; widest query %d distinct pages, %d repeat requests past the bound",
		queries, float64(held)/float64(memos), most, mostDistinct, repeatsPastTheBound)
}

// TestUnversionedIndexHasNoMemo: IR, attached as the experiments attach
// it, is immutable after build and reads its own structure through the
// pool; the run path leaves it alone.
func TestUnversionedIndexHasNoMemo(t *testing.T) {
	ds, ws := testData(t)
	net, err := engine.NewNetwork(ds.Graph, engine.Options{}, 16, "")
	if err != nil {
		t.Fatal(err)
	}
	e := attachIR(t, net, ds)
	for i, w := range ws[:6] {
		if _, err := e.Run(context.Background(), engine.Snapshot{}, core.SKQuery{Pos: w.Pos, Terms: w.Terms, DeltaMax: w.DeltaMax}); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if n := e.Metrics.Counter(engine.CounterPagesQueries).Load(); n != 0 {
		t.Errorf("%s = %d on an index without versions", engine.CounterPagesQueries, n)
	}
	if _, err := e.Run(context.Background(), engine.Snapshot{}, core.RankedQuery{Pos: ws[0].Pos, Terms: ws[0].Terms, K: 3, Alpha: 0.5}); err == nil {
		t.Error("a ranked query on IR, which has no union loads, succeeded")
	}
}

// TestRarestFirstReadsFewerIndexPages is the served probe order's count
// verdict: over one network, each kind built as served (rarest term
// first) and in the paper's query order replays one seeded AND workload
// of three-keyword boolean, diversified and kNN queries on one goroutine,
// each query from a cold pool. The answers are identical, and the served
// build reads strictly fewer index pages.
func TestRarestFirstReadsFewerIndexPages(t *testing.T) {
	ds, err := dataset.GeneratePreset(dataset.PresetNA, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
		NumQueries: 60, Keywords: 3, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := engine.NewNetwork(ds.Graph, engine.Options{}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []engine.IndexKind{engine.KindIF, engine.KindSIF, engine.KindSIFP} {
		served := net.SigOptions(kind)
		if !served.SelectivityOrder {
			t.Fatalf("%s is not served rarest first", kind)
		}
		paper := served
		paper.SelectivityOrder = false
		var answers [2][]engine.Result
		var reads [2]int64
		for b, so := range []sig.Options{served, paper} {
			e, err := net.BuildIndex(kind, ds.Objects, ds.VocabSize, so)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range ws {
				if err := e.ResetIO(); err != nil {
					t.Fatal(err)
				}
				res, err := runFamily(e, engine.Snapshot{}, i%3, w)
				if err != nil {
					t.Fatalf("%s query %d: %v", kind, i, err)
				}
				answers[b] = append(answers[b], res)
				reads[b] += e.Pool.Stats().DiskRead.Load()
			}
		}
		for i := range answers[0] {
			if !reflect.DeepEqual(answers[0][i], answers[1][i]) {
				t.Errorf("%s query %d (family %d): served %+v, query order %+v", kind, i, i%3, answers[0][i], answers[1][i])
			}
		}
		t.Logf("%s: %d index page reads rarest first, %d in query order", kind, reads[0], reads[1])
		if reads[0] >= reads[1] {
			t.Errorf("%s: rarest first reads no fewer index pages than query order", kind)
		}
	}
}
