package obj

import (
	"reflect"
	"testing"
	"testing/quick"

	"dsks/internal/graph"
)

func TestNormalizeTerms(t *testing.T) {
	tests := []struct {
		in, want []TermID
	}{
		{nil, nil},
		{[]TermID{3}, []TermID{3}},
		{[]TermID{3, 1, 2}, []TermID{1, 2, 3}},
		{[]TermID{2, 2, 1, 1}, []TermID{1, 2}},
		{[]TermID{5, 5, 5}, []TermID{5}},
	}
	for _, tc := range tests {
		got := NormalizeTerms(append([]TermID(nil), tc.in...))
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("NormalizeTerms(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestHasTermAndHasAllTerms(t *testing.T) {
	o := Object{Terms: NormalizeTerms([]TermID{4, 1, 9})}
	if !o.HasTerm(4) || !o.HasTerm(1) || !o.HasTerm(9) {
		t.Error("HasTerm missing present terms")
	}
	if o.HasTerm(2) || o.HasTerm(10) {
		t.Error("HasTerm found absent terms")
	}
	if !o.HasAllTerms([]TermID{1, 9}) {
		t.Error("HasAllTerms subset failed")
	}
	if !o.HasAllTerms(nil) {
		t.Error("empty query must match")
	}
	if o.HasAllTerms([]TermID{1, 2}) {
		t.Error("HasAllTerms with absent term matched")
	}
	if o.HasAllTerms([]TermID{1, 4, 9, 11}) {
		t.Error("HasAllTerms superset matched")
	}
}

func TestHasAllTermsQuick(t *testing.T) {
	f := func(objTerms, query []uint8) bool {
		ot := make([]TermID, len(objTerms))
		for i, v := range objTerms {
			ot[i] = TermID(v % 32)
		}
		qt := make([]TermID, len(query))
		for i, v := range query {
			qt[i] = TermID(v % 32)
		}
		o := Object{Terms: NormalizeTerms(ot)}
		qn := NormalizeTerms(qt)
		want := true
		for _, q := range qn {
			found := false
			for _, x := range o.Terms {
				if x == q {
					found = true
					break
				}
			}
			if !found {
				want = false
				break
			}
		}
		return o.HasAllTerms(qn) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVocabularyIntern(t *testing.T) {
	v := NewVocabulary()
	a := v.Intern("Pizza")
	b := v.Intern("pizza ")
	if a != b {
		t.Error("case/space folding broken")
	}
	c := v.Intern("sushi")
	if c == a {
		t.Error("distinct terms share an ID")
	}
	if v.Size() != 2 {
		t.Errorf("Size = %d", v.Size())
	}
	if v.Term(a) != "pizza" {
		t.Errorf("Term = %q", v.Term(a))
	}
	if _, ok := v.Lookup("burger"); ok {
		t.Error("unknown term found")
	}
	if id, ok := v.Lookup("PIZZA"); !ok || id != a {
		t.Error("lookup with different case failed")
	}
}

func TestVocabularyInternAllLookupAll(t *testing.T) {
	v := NewVocabulary()
	ts := v.InternAll([]string{"b", "a", "b", " ", ""})
	if len(ts) != 2 {
		t.Fatalf("InternAll = %v", ts)
	}
	if ts[0] > ts[1] {
		t.Error("InternAll result not sorted")
	}
	got, err := v.LookupAll([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ts) {
		t.Errorf("LookupAll = %v, want %v", got, ts)
	}
	if _, err := v.LookupAll([]string{"a", "zzz"}); err == nil {
		t.Error("LookupAll with unknown keyword succeeded")
	}
}

func TestTopK(t *testing.T) {
	freq := []int64{5, 9, 9, 1}
	got := TopK(freq, 3)
	want := []TermID{1, 2, 0} // ties break by ID
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopK = %v, want %v", got, want)
	}
	if got := TopK(freq, 10); len(got) != 4 {
		t.Errorf("TopK overflow = %v", got)
	}
}

func TestCollectionAddGetOnEdge(t *testing.T) {
	c := NewCollection()
	e := graph.EdgeID(3)
	id1 := c.Add(graph.Position{Edge: e, Offset: 7}, []TermID{2, 1})
	id2 := c.Add(graph.Position{Edge: e, Offset: 2}, []TermID{3})
	id3 := c.Add(graph.Position{Edge: graph.EdgeID(4), Offset: 0}, []TermID{1})
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if got := c.Get(id1).Terms; !reflect.DeepEqual(got, []TermID{1, 2}) {
		t.Errorf("terms not normalized: %v", got)
	}
	// OnEdge returns objects ordered by offset.
	on := c.OnEdge(e)
	if !reflect.DeepEqual(on, []ID{id2, id1}) {
		t.Errorf("OnEdge = %v", on)
	}
	if got := c.OnEdge(graph.EdgeID(99)); len(got) != 0 {
		t.Errorf("OnEdge empty edge = %v", got)
	}
	edges := c.Edges()
	if !reflect.DeepEqual(edges, []graph.EdgeID{3, 4}) {
		t.Errorf("Edges = %v", edges)
	}
	_ = id3
}

func TestCollectionOnEdgeStableAfterAdd(t *testing.T) {
	c := NewCollection()
	e := graph.EdgeID(0)
	c.Add(graph.Position{Edge: e, Offset: 5}, nil)
	_ = c.OnEdge(e) // forces a sort
	id := c.Add(graph.Position{Edge: e, Offset: 1}, nil)
	on := c.OnEdge(e) // must re-sort after the add
	if on[0] != id {
		t.Errorf("OnEdge stale after Add: %v", on)
	}
}

func TestTermFrequenciesAndAvg(t *testing.T) {
	c := NewCollection()
	c.Add(graph.Position{}, []TermID{0, 1})
	c.Add(graph.Position{}, []TermID{1})
	c.Add(graph.Position{}, []TermID{1, 2, 0})
	freq := c.TermFrequencies(3)
	if !reflect.DeepEqual(freq, []int64{2, 3, 1}) {
		t.Errorf("freq = %v", freq)
	}
	if got := c.AvgTermsPerObject(); got != 2 {
		t.Errorf("avg = %v", got)
	}
	if got := NewCollection().AvgTermsPerObject(); got != 0 {
		t.Errorf("avg of empty = %v", got)
	}
}

func TestGetPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Get on unknown ID did not panic")
		}
	}()
	NewCollection().Get(0)
}

func TestCollectionRemove(t *testing.T) {
	c := NewCollection()
	e := graph.EdgeID(1)
	a := c.Add(graph.Position{Edge: e, Offset: 1}, []TermID{0})
	b := c.Add(graph.Position{Edge: e, Offset: 2}, []TermID{0, 1})
	if c.Live() != 2 {
		t.Fatalf("Live = %d", c.Live())
	}
	if err := c.Remove(a); err != nil {
		t.Fatal(err)
	}
	if c.Live() != 1 || c.Len() != 2 {
		t.Fatalf("Live/Len = %d/%d", c.Live(), c.Len())
	}
	if !c.Removed(a) || c.Removed(b) {
		t.Error("Removed flags wrong")
	}
	on := c.OnEdge(e)
	if len(on) != 1 || on[0] != b {
		t.Fatalf("OnEdge after remove = %v", on)
	}
	freq := c.TermFrequencies(2)
	if freq[0] != 1 || freq[1] != 1 {
		t.Errorf("freq after remove = %v", freq)
	}
	if got := c.AvgTermsPerObject(); got != 2 {
		t.Errorf("avg after remove = %v", got)
	}
	if err := c.Remove(a); err == nil {
		t.Error("double remove accepted")
	}
	if err := c.Remove(ID(99)); err == nil {
		t.Error("unknown remove accepted")
	}
	// Removing the last object of an edge clears its listing.
	if err := c.Remove(b); err != nil {
		t.Fatal(err)
	}
	if got := c.OnEdge(e); len(got) != 0 {
		t.Errorf("OnEdge after clearing = %v", got)
	}
	if len(c.Edges()) != 0 {
		t.Errorf("Edges after clearing = %v", c.Edges())
	}
}

func TestCollectionPad(t *testing.T) {
	c := NewCollection()
	c.Grow(5)
	if c.Len() != 0 {
		t.Fatalf("Len after Grow = %d", c.Len())
	}
	e := graph.EdgeID(2)
	c.Add(graph.Position{Edge: e, Offset: 1}, []TermID{0})
	c.Pad(4)
	c.Pad(3) // shorter than the collection: nothing changes
	if c.Len() != 4 || c.Live() != 1 {
		t.Fatalf("Len/Live after Pad(4) = %d/%d, want 4/1", c.Len(), c.Live())
	}
	for id := ID(1); id < 4; id++ {
		if !c.Removed(id) || c.Get(id).ID != id {
			t.Errorf("padded ID %d: removed %v, object %+v", id, c.Removed(id), *c.Get(id))
		}
		if err := c.Remove(id); err == nil {
			t.Errorf("remove of padded ID %d accepted", id)
		}
	}
	if got := c.Tombstones(); !reflect.DeepEqual(got, []ID{1, 2, 3}) {
		t.Errorf("Tombstones = %v", got)
	}
	if got := c.Add(graph.Position{Edge: e, Offset: 0.5}, []TermID{1}); got != 4 {
		t.Errorf("Add after Pad assigned %d, want 4", got)
	}
	if on := c.OnEdge(e); !reflect.DeepEqual(on, []ID{4, 0}) {
		t.Errorf("OnEdge = %v, want [4 0]", on)
	}
	if got := c.Edges(); !reflect.DeepEqual(got, []graph.EdgeID{e}) {
		t.Errorf("Edges = %v, want only %d", got, e)
	}
	if freq := c.TermFrequencies(2); freq[0] != 1 || freq[1] != 1 {
		t.Errorf("freq = %v", freq)
	}
}
