package index

import "testing"

// TestTermSetAcrossWords: positions on both sides of the first word's end
// are kept apart, and a set grows to any position.
func TestTermSetAcrossWords(t *testing.T) {
	var s TermSet
	in := []int{0, 5, 63, 64, 65, 127, 128, 300}
	for _, i := range in {
		s.Add(i)
		s.Add(i) // a second Add changes nothing
	}
	if s.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(in))
	}
	want := map[int]bool{}
	for _, i := range in {
		want[i] = true
	}
	for i := 0; i < 400; i++ {
		if s.Has(i) != want[i] {
			t.Fatalf("Has(%d) = %v, want %v", i, s.Has(i), want[i])
		}
	}
	if (TermSet{}).Has(200) || (TermSet{}).Len() != 0 {
		t.Fatal("the zero set is not empty")
	}
}
