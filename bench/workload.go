package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"dsks"
)

// The dataset every workload serves: the NA preset at 1/20 scale
// (≈8.8k nodes, 110k objects, 10k terms). With the library's 2 % buffer
// pool the data is always far larger than the program's own cache.
const (
	datasetPreset = dsks.PresetNA
	datasetScale  = 20
	datasetSeed   = 1
)

// Query kinds, in the order the mix and every per-kind table use.
const (
	kindSearch = iota
	kindDiversified
	kindKNN
	kindRanked
	kindCollective
	numKinds
)

var kindNames = [numKinds]string{"search", "diversified", "knn", "ranked", "collective"}

// readMix is the weight of each kind in the mixed workloads.
var readMix = [numKinds]int{kindSearch: 4, kindDiversified: 3, kindKNN: 2, kindRanked: 1, kindCollective: 1}

// divOnly is the diversified-only mix.
var divOnly = [numKinds]int{kindDiversified: 1}

// workload is one served configuration plus the traffic it receives.
// The child's flags and the traced run's in-process options are both
// derived from the same fields, so the two runs serve the same system.
type workload struct {
	name string
	why  string

	// Server configuration beyond the common set.
	oracle bool
	iolat  time.Duration
	shards int
	wal    bool

	// Traffic.
	mix             [numKinds]int
	deltaPerKeyword float64
	k               int
	queries         int     // distinct queries drawn from the seed
	readers         int     // closed-loop read connections
	writer          bool    // one more connection doing durable inserts and removes
	opsPerSecond    float64 // read ops per measured second, frozen at the seed commit
}

// workloads is the benchmark's fixed set. opsPerSecond was sized on the
// seed commit so that --seconds S measures for about S seconds; it is a
// constant, so both sides of a comparison execute exactly the same ops.
var workloads = []workload{
	{
		name: "mixed-read",
		why:  "cheap queries over all five families: HTTP edge, view pin and short expansions dominate, the distance engine does little",
		mix:  readMix, deltaPerKeyword: 500, k: 5, queries: 6000, readers: 2, opsPerSecond: 2700,
	},
	{
		name:   "div-wide",
		why:    "the paper's diversified query at a wide radius with the ALT oracle: distance engine, core pairs and greedy do nearly all the work",
		oracle: true,
		mix:    divOnly, deltaPerKeyword: 1000, k: 10, queries: 6000, readers: 2, opsPerSecond: 360,
	},
	{
		name:  "cold-io",
		why:   "the mixed-read ops with 100us simulated seek per buffer miss: page reads decide latency, CPU work does not",
		iolat: 100 * time.Microsecond,
		mix:   readMix, deltaPerKeyword: 500, k: 5, queries: 6000, readers: 2, opsPerSecond: 135,
	},
	{
		name:   "shard4-rw",
		why:    "the mixed-read ops through 4-shard routing, fan-out and merge beside one durable WAL writer: router and write-path costs show here",
		shards: 4, wal: true,
		mix: readMix, deltaPerKeyword: 500, k: 5, queries: 6000, readers: 1, writer: true, opsPerSecond: 900,
	},
}

// conns is the number of connections the load generator holds open.
func (w workload) conns() int {
	if w.writer {
		return w.readers + 1
	}
	return w.readers
}

// workloadByName finds a workload of the fixed set.
func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// lambda and alpha are the fixed objective weights of diversified and
// ranked ops (the server's own defaults, sent explicitly).
const (
	divLambda   = 0.8
	rankedAlpha = 0.5
)

// op is one read of the sequence: a query of the pool run as one kind.
type op struct {
	kind  uint8
	query int32
}

// genQueries draws the workload's distinct queries from the seed.
func genQueries(ds *dsks.Dataset, w workload, seed int64) ([]dsks.WorkloadQuery, error) {
	return dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: w.queries, Keywords: 2, DeltaMaxPerKeyword: w.deltaPerKeyword, Seed: seed,
	})
}

// genOps builds the op sequence: n ops whose kinds split exactly by the
// mix weights and whose queries cycle through the whole pool, both
// shuffled by the seed. It is a pure function of its arguments.
func genOps(mix [numKinds]int, queries, n int, seed int64) []op {
	total := 0
	for _, wgt := range mix {
		total += wgt
	}
	ops := make([]op, n)
	// Kinds: repeat the weighted deck, so any prefix is close to the mix.
	deck := make([]uint8, 0, total)
	for kind, wgt := range mix {
		for i := 0; i < wgt; i++ {
			deck = append(deck, uint8(kind))
		}
	}
	// Kinds and queries draw from separate streams, so the first ops of a
	// long sequence are the ops of a short one (the traced run replays a
	// prefix of what the end-to-end run measures).
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i += len(deck) {
		rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		for j := 0; j < len(deck) && i+j < n; j++ {
			ops[i+j].kind = deck[j]
		}
	}
	// Queries: one shuffled permutation after another, so every query of
	// the pool appears before any repeats (the hammer's mix replayed ten
	// requests for ever).
	perm := make([]int32, queries)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng = rand.New(rand.NewSource(seed ^ 0x9e3779b97f4a7c))
	for i := 0; i < n; i += queries {
		rng.Shuffle(queries, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		for j := 0; j < queries && i+j < n; j++ {
			ops[i+j].query = perm[j]
		}
	}
	return ops
}

// opURL renders the op as the GET the served binary receives.
func opURL(w workload, o op, q dsks.WorkloadQuery) string {
	var b strings.Builder
	b.WriteString("/v1/")
	b.WriteString(kindNames[o.kind])
	b.WriteString("?edge=")
	b.WriteString(strconv.FormatInt(int64(q.Pos.Edge), 10))
	b.WriteString("&offset=")
	b.WriteString(fmtFloat(q.Pos.Offset))
	b.WriteString("&terms=")
	for i, t := range q.Terms {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(t)))
	}
	delta := fmtFloat(q.DeltaMax)
	switch o.kind {
	case kindSearch, kindCollective:
		b.WriteString("&deltaMax=" + delta)
	case kindDiversified:
		fmt.Fprintf(&b, "&deltaMax=%s&k=%d&lambda=%s", delta, w.k, fmtFloat(divLambda))
	case kindKNN:
		// The radius bounds the expansion, as in the old hammer mix: an
		// unbounded kNN leg on an edge-disjoint shard walks far past its
		// few owned objects.
		fmt.Fprintf(&b, "&k=%d&maxDist=%s", w.k, delta)
	case kindRanked:
		fmt.Fprintf(&b, "&deltaMax=%s&k=%d&alpha=%s", delta, w.k, fmtFloat(rankedAlpha))
	}
	return b.String()
}

// fmtFloat renders a float so that parsing it returns the same bits.
func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// serverFlags is the child's command line for the workload (the listen
// address and the WAL directory are added at boot).
func (w workload) serverFlags() []string {
	flags := []string{
		"-preset", string(datasetPreset), "-scale", strconv.Itoa(datasetScale), "-seed", strconv.Itoa(datasetSeed),
		"-index", "SIF", "-cache-size", "-1", "-max-inflight", "32", "-queue-depth", "256",
	}
	if w.oracle {
		flags = append(flags, "-oracle")
	}
	if w.iolat > 0 {
		flags = append(flags, "-iolat", w.iolat.String())
	}
	if w.shards > 1 {
		flags = append(flags, "-shards", strconv.Itoa(w.shards))
	}
	return flags
}

// dbOptions mirrors serverFlags for the in-process traced run.
func (w workload) dbOptions(walDir string) dsks.Options {
	return dsks.Options{
		Index:      dsks.IndexSIF,
		IOLatency:  w.iolat,
		Oracle:     w.oracle,
		OracleSeed: datasetSeed,
		WALDir:     walDir,
	}
}
