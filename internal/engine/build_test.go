package engine_test

import (
	"testing"
	"time"

	"dsks/internal/dataset"
	"dsks/internal/engine"
	"dsks/internal/experiments/baselines"
	"dsks/internal/index"
)

// attachIR builds the IR baseline over n as the experiments do: attached,
// an index without versions.
func attachIR(t testing.TB, n *engine.Network, ds *dataset.Dataset) *engine.Engine {
	t.Helper()
	e, err := baselines.IR(ds.Objects, ds.VocabSize)(n)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestBuildEvictsNothing: every structure is built in a pool roomy enough
// to hold it whole, whatever the pool reserves up front, so a build reads
// no page back and writes each page of its file exactly once, at the flush
// that ends it.
func TestBuildEvictsNothing(t *testing.T) {
	ds, err := dataset.GeneratePreset(dataset.PresetNA, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := engine.NewNetwork(ds.Graph, engine.Options{Oracle: true}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	engines := []*engine.Engine{attachIR(t, net, ds)}
	for _, kind := range []engine.IndexKind{engine.KindIF, engine.KindSIF, engine.KindSIFP} {
		e, err := engine.Open(ds.Graph, ds.Objects, ds.VocabSize, engine.Options{Index: kind, Oracle: true}, "")
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	for _, e := range engines {
		kind := e.Kind
		pools := append(e.Pools(), e.Pool)
		if len(pools) != 3 {
			t.Fatalf("%s: %d pools, want network, oracle and index", kind, len(pools))
		}
		for i, pool := range pools {
			io, pages := pool.Stats().Snapshot(), int64(pool.File().NumPages())
			if pages == 0 || io.DiskRead != 0 || io.DiskWrite != pages {
				t.Errorf("%s, pool %d: the build of %d pages read %d from disk and wrote %d", kind, i, pages, io.DiskRead, io.DiskWrite)
			}
		}
	}
}

// BenchmarkOpen is one engine.Open over the benchmark's dataset (NA/20:
// 110k objects, 10.4k terms), which is what every boot, crash recovery and
// shard or replica seed pays. The phase metrics say where it goes: the
// network's CCAM pages, the inverted file, the signatures over it, and
// sizing the signatures for Figure 6(c).
func BenchmarkOpen(b *testing.B) {
	ds, err := dataset.GeneratePreset(dataset.PresetNA, 20, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []engine.IndexKind{engine.KindSIF, engine.KindSIFP} {
		b.Run(string(kind), func(b *testing.B) {
			var ccam, inverted, signatures, sizing time.Duration
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e, err := engine.Open(ds.Graph, ds.Objects, ds.VocabSize, engine.Options{Index: kind}, "")
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				start := time.Now()
				e.Loader.(index.Sizer).SizeBytes()
				sized := time.Since(start)
				ccam += e.NetworkBuildTime
				inverted += e.BuildTime - e.SignatureTime
				signatures += e.SignatureTime - sized
				sizing += sized
				b.StartTimer()
			}
			perOp := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
			b.ReportMetric(perOp(ccam), "ccam-ms/op")
			b.ReportMetric(perOp(inverted), "invindex-ms/op")
			b.ReportMetric(perOp(signatures), "signatures-ms/op")
			b.ReportMetric(perOp(sizing), "sizing-ms/op")
		})
	}
}
