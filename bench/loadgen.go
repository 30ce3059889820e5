package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dsks"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle value (the mean of the two middle ones for an
// even count). It sorts a copy.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is (max−min)/median over the per-pass values: how far identical
// passes of one run disagreed.
func spread(vals []float64) float64 {
	m := median(vals)
	if len(vals) < 2 || m == 0 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return (hi - lo) / m
}

// wireCandidate and the types below are the parts of the server's
// response envelope the checks and metrics read.
type wireCandidate struct {
	ID   int64   `json:"id"`
	Dist float64 `json:"dist"`
}

type wireRanked struct {
	ID    int64   `json:"id"`
	Dist  float64 `json:"dist"`
	Score float64 `json:"score"`
}

type wireResponse struct {
	Kind       string          `json:"kind"`
	Candidates []wireCandidate `json:"candidates"`
	Ranked     []wireRanked    `json:"ranked"`
	Collective *struct {
		Objects []wireCandidate `json:"objects"`
		Cost    float64         `json:"cost"`
		Covered bool            `json:"covered"`
	} `json:"collective"`
	ElapsedMicros int64 `json:"elapsedMicros"`
	DiskReads     int64 `json:"diskReads"`
	Queried       []int `json:"queriedShards"`
	Pruned        int   `json:"prunedShards"`
	Partial       bool  `json:"partial"`
}

// answer is what one checked response contributes to the metrics.
type answer struct {
	digest  uint64  // of (kind, ids, dists); equal answers have equal digests
	chosen  []int64 // a diversified op's object ids, ascending
	elapsed time.Duration
	reads   int64
	legs    int
	pruned  int
}

// checkResponse decodes one read's response body and checks it against
// the op that asked for it: the kind echoes, at most k results, every
// distance within the radius, and boolean and kNN candidates in
// non-decreasing distance (ranked results in non-increasing score).
func checkResponse(w workload, o op, q dsks.WorkloadQuery, body []byte) (answer, error) {
	var r wireResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return answer{}, fmt.Errorf("decoding: %w", err)
	}
	if r.Kind != kindNames[o.kind] {
		return answer{}, fmt.Errorf("kind %q, want %q", r.Kind, kindNames[o.kind])
	}
	if r.Partial {
		return answer{}, fmt.Errorf("partial result")
	}
	limit := q.DeltaMax * (1 + 1e-9)
	h := fnv.New64a()
	h.Write([]byte{o.kind})
	var scratch [16]byte
	mix := func(id int64, dist float64) {
		binary.LittleEndian.PutUint64(scratch[:8], uint64(id))
		binary.LittleEndian.PutUint64(scratch[8:], math.Float64bits(dist))
		h.Write(scratch[:])
	}
	within := func(cs []wireCandidate) error {
		for _, c := range cs {
			if c.Dist < 0 || c.Dist > limit {
				return fmt.Errorf("object %d at distance %g outside radius %g", c.ID, c.Dist, q.DeltaMax)
			}
		}
		return nil
	}
	switch o.kind {
	case kindSearch, kindKNN, kindDiversified:
		if err := within(r.Candidates); err != nil {
			return answer{}, err
		}
		if o.kind != kindSearch && len(r.Candidates) > w.k {
			return answer{}, fmt.Errorf("%d results for k=%d", len(r.Candidates), w.k)
		}
		if o.kind == kindDiversified {
			// The chosen set comes back in pair order, and the router's
			// greedy may pick the same set in another order.
			sort.Slice(r.Candidates, func(i, j int) bool { return r.Candidates[i].ID < r.Candidates[j].ID })
		} else {
			for i := 1; i < len(r.Candidates); i++ {
				if r.Candidates[i].Dist < r.Candidates[i-1].Dist {
					return answer{}, fmt.Errorf("candidates not in distance order at %d", i)
				}
			}
		}
		for _, c := range r.Candidates {
			mix(c.ID, c.Dist)
		}
	case kindRanked:
		if len(r.Ranked) > w.k {
			return answer{}, fmt.Errorf("%d results for k=%d", len(r.Ranked), w.k)
		}
		for i, c := range r.Ranked {
			if c.Dist < 0 || c.Dist > limit {
				return answer{}, fmt.Errorf("object %d at distance %g outside radius %g", c.ID, c.Dist, q.DeltaMax)
			}
			if i > 0 && c.Score > r.Ranked[i-1].Score {
				return answer{}, fmt.Errorf("ranked results not in score order at %d", i)
			}
			mix(c.ID, c.Dist)
		}
	case kindCollective:
		if r.Collective == nil {
			return answer{}, fmt.Errorf("no collective group in the response")
		}
		if err := within(r.Collective.Objects); err != nil {
			return answer{}, err
		}
		for _, c := range r.Collective.Objects {
			mix(c.ID, c.Dist)
		}
	}
	var chosen []int64
	if o.kind == kindDiversified {
		for _, c := range r.Candidates {
			chosen = append(chosen, c.ID)
		}
	}
	return answer{
		digest:  h.Sum64(),
		chosen:  chosen,
		elapsed: time.Duration(r.ElapsedMicros) * time.Microsecond,
		reads:   r.DiskReads,
		legs:    len(r.Queried),
		pruned:  r.Pruned,
	}, nil
}

// sample is one executed read.
type sample struct {
	kind    uint8
	ok      bool
	latency time.Duration // request sent → body read
	bytes   int
	answer
}

// writeSample is one executed insert or remove.
type writeSample struct {
	ok      bool
	latency time.Duration
}

// target is the served binary as the load generator sees it.
type target struct {
	base   string
	client *http.Client
}

// newTarget builds a client limited to conns keep-alive connections.
func newTarget(addr string, conns int) *target {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
	}
	return &target{base: "http://" + addr, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (t *target) close() { t.client.CloseIdleConnections() }

// get issues one GET and reads the whole body into buf.
func (t *target) get(path string, buf *bytes.Buffer) (int, error) {
	resp, err := t.client.Get(t.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// post issues one JSON POST and decodes the reply into out.
func (t *target) post(path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	resp, err := t.client.Post(t.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// plan is a workload's generated inputs: the query pool, the op
// sequence of one pass, and each op's request path.
type plan struct {
	w       workload
	queries []dsks.WorkloadQuery
	ops     []op
	urls    []string
}

func newPlan(ds *dsks.Dataset, w workload, n int, seed int64) (*plan, error) {
	qs, err := genQueries(ds, w, seed)
	if err != nil {
		return nil, err
	}
	p := &plan{w: w, queries: qs, ops: genOps(w.mix, len(qs), n, seed)}
	p.urls = make([]string, n)
	for i, o := range p.ops {
		p.urls[i] = opURL(w, o, qs[o.query])
	}
	return p, nil
}

// failures collects the first few failure messages of a run.
type failures struct {
	mu    sync.Mutex
	count int
	first []string
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	if len(f.first) < 5 {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
}

// passResult is one pass over ops[lo:hi).
type passResult struct {
	samples []sample // one per op, in op order
	writes  []writeSample
	wall    time.Duration
	cpu     time.Duration // the child's CPU time over the pass; set by the caller
}

// runPass executes ops[lo:hi) closed-loop: the ops are dealt round-robin
// to the workload's readers, each of which waits for its reply before
// sending its next op. With wr set, the writer runs beside the readers
// until the last of them finishes.
func runPass(t *target, p *plan, lo, hi int, wr *writer, fails *failures) passResult {
	res := passResult{samples: make([]sample, hi-lo)}
	var stop atomic.Bool
	var wwg sync.WaitGroup
	if wr != nil {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			res.writes = wr.run(t, &stop, fails)
		}()
	}
	readers := p.w.readers
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := lo + c; i < hi; i += readers {
				res.samples[i-lo] = doRead(t, p, i, &buf, fails)
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	stop.Store(true)
	wwg.Wait()
	return res
}

// doRead issues op i and checks its response.
func doRead(t *target, p *plan, i int, buf *bytes.Buffer, fails *failures) sample {
	o := p.ops[i]
	t0 := time.Now()
	status, err := t.get(p.urls[i], buf)
	s := sample{kind: o.kind, latency: time.Since(t0), bytes: buf.Len()}
	if err != nil {
		fails.add("op %d %s: %v", i, p.urls[i], err)
		return s
	}
	if status != http.StatusOK {
		fails.add("op %d %s: status %d: %s", i, p.urls[i], status, bytes.TrimSpace(buf.Bytes()))
		return s
	}
	a, err := checkResponse(p.w, o, p.queries[o.query], buf.Bytes())
	if err != nil {
		fails.add("op %d %s: %v", i, p.urls[i], err)
		return s
	}
	s.ok, s.answer = true, a
	return s
}

// inserted is one acked insert not yet removed.
type inserted struct {
	id    int64
	query int32
}

// writer is the workload's single mutating connection: durable inserts
// at the positions and keywords of its own query stream, every fourth
// op a remove of the oldest object it inserted. Its state carries over
// from pass to pass.
type writer struct {
	queries []dsks.WorkloadQuery
	next    int
	issued  int
	live    []inserted
}

// writerQueries draws the positions and keywords writes use; its own
// stream, so the inserts are not the read queries themselves.
func writerQueries(ds *dsks.Dataset, seed int64) ([]dsks.WorkloadQuery, error) {
	return dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: 1000, Keywords: 2, Seed: seed ^ 0x5eed,
	})
}

// newWriter returns w's writer, nil for a read-only workload.
func newWriter(ds *dsks.Dataset, w workload, seed int64) (*writer, error) {
	if !w.writer {
		return nil, nil
	}
	qs, err := writerQueries(ds, seed)
	if err != nil {
		return nil, err
	}
	return &writer{queries: qs}, nil
}

// run issues writes until stop is set.
func (wr *writer) run(t *target, stop *atomic.Bool, fails *failures) []writeSample {
	var out []writeSample
	for !stop.Load() {
		out = append(out, wr.step(t, fails))
	}
	return out
}

// step issues one write.
func (wr *writer) step(t *target, fails *failures) writeSample {
	wr.issued++
	if wr.issued%4 == 0 && len(wr.live) > 0 {
		victim := wr.live[0]
		var ack struct {
			Removed int64 `json:"removed"`
		}
		t0 := time.Now()
		status, err := t.post("/v1/remove", map[string]int64{"id": victim.id}, &ack)
		ws := writeSample{latency: time.Since(t0)}
		if err != nil || status != http.StatusOK || ack.Removed != victim.id {
			fails.add("remove of object %d: status %d, acked %d, err %v", victim.id, status, ack.Removed, err)
			return ws
		}
		wr.live = wr.live[1:]
		ws.ok = true
		return ws
	}
	qi := wr.next % len(wr.queries)
	wr.next++
	q := wr.queries[qi]
	var ack struct {
		ID *int64 `json:"id"`
	}
	t0 := time.Now()
	status, err := t.post("/v1/insert", map[string]any{"edge": q.Pos.Edge, "offset": q.Pos.Offset, "terms": q.Terms}, &ack)
	ws := writeSample{latency: time.Since(t0)}
	if err != nil || status != http.StatusOK || ack.ID == nil {
		fails.add("insert at edge %d: status %d, err %v", q.Pos.Edge, status, err)
		return ws
	}
	wr.live = append(wr.live, inserted{id: *ack.ID, query: int32(qi)})
	ws.ok = true
	return ws
}

// verify searches for up to max of the acked, still-live inserts by
// their own keywords at their own position and reports how many were
// checked; one that is not found counts as a failure.
func (wr *writer) verify(t *target, max int, fails *failures) int {
	if len(wr.live) == 0 {
		return 0
	}
	step := len(wr.live)/max + 1
	var buf bytes.Buffer
	checked := 0
	for i := 0; i < len(wr.live); i += step {
		ins := wr.live[i]
		q := wr.queries[ins.query]
		q.DeltaMax = 1
		path := opURL(workload{}, op{kind: kindSearch}, q)
		checked++
		status, err := t.get(path, &buf)
		if err != nil || status != http.StatusOK {
			fails.add("verifying insert %d: status %d, err %v", ins.id, status, err)
			continue
		}
		var r wireResponse
		if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
			fails.add("verifying insert %d: %v", ins.id, err)
			continue
		}
		found := false
		for _, c := range r.Candidates {
			found = found || c.ID == ins.id
		}
		if !found {
			fails.add("acked insert %d not found by a search for its terms at its position", ins.id)
		}
	}
	return checked
}
