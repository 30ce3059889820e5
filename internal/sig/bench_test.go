package sig

import (
	"context"

	"math/rand"
	"testing"

	"dsks/internal/obj"
)

func BenchmarkSignatureTest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var set []int32
	for i := 0; i < 10_000; i++ {
		set = append(set, int32(rng.Intn(1_000_000)))
	}
	s := NewTermSignature(1_000_000, set)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Test(int32(i % 1_000_000))
	}
}

func BenchmarkSignatureCompactedBits(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var set []int32
	for i := 0; i < 5_000; i++ {
		set = append(set, int32(rng.Intn(250_000)))
	}
	s := NewTermSignature(250_000, set)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CompactedBits()
	}
}

func benchEdgeObjects(m int, seed int64) [][]obj.TermID {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]obj.TermID, m)
	for i := range out {
		ts := make([]obj.TermID, 1+rng.Intn(4))
		for j := range ts {
			ts[j] = obj.TermID(rng.Intn(12))
		}
		out[i] = obj.NormalizeTerms(ts)
	}
	return out
}

func benchLog(seed int64) QueryLog {
	rng := rand.New(rand.NewSource(seed))
	var log QueryLog
	for i := 0; i < 8; i++ {
		ts := []obj.TermID{obj.TermID(rng.Intn(12)), obj.TermID(rng.Intn(12))}
		log = append(log, LogQuery{Terms: obj.NormalizeTerms(ts), Prob: 0.125})
	}
	return log
}

func BenchmarkPartitionGreedy(b *testing.B) {
	objs := benchEdgeObjects(40, 3)
	log := benchLog(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PartitionGreedy(objs, log, 3)
	}
}

func BenchmarkSIFLoadObjects(b *testing.B) {
	g, col, s := buildSIFFixture(b, Options{}, 7)
	edges := col.Edges()
	rng := rand.New(rand.NewSource(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[rng.Intn(len(edges))]
		ts := obj.NormalizeTerms([]obj.TermID{
			obj.TermID(rng.Intn(15)), obj.TermID(rng.Intn(15)),
		})
		if _, err := s.LoadObjects(context.Background(), e, ts); err != nil {
			b.Fatal(err)
		}
	}
	_ = g
}

func BenchmarkLayoutBuild(b *testing.B) {
	g := testGraph(b, 2000, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewLayout(g)
	}
}
