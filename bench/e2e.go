package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"dsks"
)

// metric is one reported number.
type metric struct {
	name   string
	unit   string
	value  float64
	passes []float64 // the measured passes' own values, when the metric has them
}

// outcome is what a run reports: its metrics and the output checks.
type outcome struct {
	metrics   []metric
	attempted int
	failed    int
	notes     []string
}

func (o *outcome) add(name, unit string, value float64, perPass ...float64) {
	o.metrics = append(o.metrics, metric{name: name, unit: unit, value: value, passes: perPass})
}

// defaultPasses is how many measured passes an end-to-end run makes.
const defaultPasses = 6

// Sizes of the unmeasured parts of a run.
const (
	setupBoots   = 3   // boots per run; setup_s is their median, the last one serves
	digestOps    = 500 // leading ops whose answers are digested before the writer starts
	warmupShare  = 0.5 // warm-up length as a share of one measured pass
	verifyWrites = 200 // acked inserts searched for at the end of a run
)

// passOps is the frozen op count of one measured pass.
func passOps(w workload, seconds, passes int) int {
	return max(int(w.opsPerSecond*float64(seconds)/float64(passes)), digestOps)
}

// ms renders a duration as fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runE2E boots the served binary for w and measures it from outside. The
// passes are consecutive slices of one op sequence, so a run reaches as
// many distinct queries as it has ops; what a pass reads is one sample
// of the machine's noise, and rates are the median pass.
func runE2E(ctx context.Context, bin string, ds *dsks.Dataset, w workload, seed int64, seconds, passes int) (*outcome, error) {
	per := passOps(w, seconds, passes)
	p, err := newPlan(ds, w, per*passes, seed)
	if err != nil {
		return nil, err
	}
	wr, err := newWriter(ds, w, seed)
	if err != nil {
		return nil, err
	}

	// Set-up: boot several times, serve from the last.
	var c *child
	boots := make([]float64, 0, setupBoots)
	for i := 0; i < setupBoots; i++ {
		if c != nil {
			if err := c.stop(); err != nil {
				return nil, err
			}
		}
		if c, err = bootChild(ctx, bin, w); err != nil {
			return nil, err
		}
		boots = append(boots, c.boot.Seconds())
	}
	defer c.kill()
	t := newTarget(c.addr, w.conns())
	defer t.close()
	fails := &failures{}
	out := &outcome{}

	// Warm-up: the digested prefix without the writer, then the rest of
	// the warm-up share with it, so pools, heap and connections are in
	// their steady state when measuring starts. It runs the ops the first
	// pass will run again.
	warm := max(int(warmupShare*float64(per)), digestOps)
	warmup := runPass(t, p, 0, digestOps, nil, fails).samples
	if warm > digestOps {
		res := runPass(t, p, digestOps, warm, wr, fails)
		warmup = append(warmup, res.samples...)
		out.attempted += len(res.writes)
	}
	out.attempted += warm
	if !c.alive() {
		return nil, fmt.Errorf("dsks-serve died during warm-up: %v\n%s", c.err, c.log.String())
	}

	results := make([]passResult, passes)
	for i := range results {
		if results[i], err = timedPass(c, t, p, i*per, (i+1)*per, wr, fails); err != nil {
			return nil, fmt.Errorf("pass %d: %w", i+1, err)
		}
		out.attempted += per + len(results[i].writes)
	}

	// Output checks beyond the per-response ones: an op asked twice gets
	// the same answer (while nothing writes), and acked inserts are found.
	if wr == nil {
		for i, again := range results[0].samples[:warm] {
			if first := warmup[i]; first.ok && again.ok && first.digest != again.digest {
				fails.add("op %d %s: the answer changed between the warm-up and the first pass", i, p.urls[i])
			}
		}
	}
	if wr != nil {
		out.attempted += wr.verify(t, verifyWrites, fails)
	}
	if err := c.stop(); err != nil {
		return nil, err
	}
	out.failed = fails.count
	out.notes = fails.first

	summarize(out, results, boots)
	summarizeServed(out, results)
	return out, nil
}

// timedPass is runPass plus the child's CPU time over it; a child that
// died during the pass is an error.
func timedPass(c *child, t *target, p *plan, lo, hi int, wr *writer, fails *failures) (passResult, error) {
	before, err := c.cpu()
	if err != nil {
		return passResult{}, err
	}
	res := runPass(t, p, lo, hi, wr, fails)
	if !c.alive() {
		return res, fmt.Errorf("dsks-serve died: %v\n%s", c.err, c.log.String())
	}
	after, err := c.cpu()
	res.cpu = after - before
	return res, err
}

// latencies returns the sorted latencies, in ms, of the passes'
// successful reads of one kind (any kind when kind < 0).
func latencies(kind int, passes ...passResult) []float64 {
	var out []float64
	for _, r := range passes {
		for _, s := range r.samples {
			if s.ok && (kind < 0 || int(s.kind) == kind) {
				out = append(out, ms(s.latency))
			}
		}
	}
	sort.Float64s(out)
	return out
}

// perPass evaluates f on every pass.
func perPass(results []passResult, f func(r passResult) float64) []float64 {
	vals := make([]float64, len(results))
	for i, r := range results {
		vals[i] = f(r)
	}
	return vals
}

// addPct adds a latency percentile: pooled over the passes, with each
// pass's own value beside it.
func addPct(out *outcome, results []passResult, name string, kind int, pct float64) {
	out.add(name, "ms", percentile(latencies(kind, results...), pct),
		perPass(results, func(r passResult) float64 { return percentile(latencies(kind, r), pct) })...)
}

// sumReads adds f over the successful reads of the passes and counts them.
func sumReads(f func(s sample) float64, passes ...passResult) (total, n float64) {
	for _, r := range passes {
		for _, s := range r.samples {
			if s.ok {
				total += f(s)
				n++
			}
		}
	}
	return total, max(n, 1)
}

// summarize turns the measured passes into the bounded end-to-end
// metrics. Latency percentiles pool the passes; rates and ratios are the
// median pass.
func summarize(out *outcome, results []passResult, boots []float64) {
	pageReads := func(s sample) float64 { return float64(s.reads) }

	out.add("setup_s", "s", median(boots), boots...)
	qps := perPass(results, func(r passResult) float64 {
		_, n := sumReads(pageReads, r)
		return n / r.wall.Seconds()
	})
	out.add("read_qps", "1/s", median(qps), qps...)
	addPct(out, results, "read_p50_ms", -1, 0.50)
	addPct(out, results, "read_p95_ms", -1, 0.95)
	addPct(out, results, "read_p99_ms", -1, 0.99)
	addPct(out, results, "div_p50_ms", kindDiversified, 0.50)
	addPct(out, results, "div_p95_ms", kindDiversified, 0.95)
	reads, okReads := sumReads(pageReads, results...)
	out.add("page_reads_per_read", "count", reads/okReads,
		perPass(results, func(r passResult) float64 { total, n := sumReads(pageReads, r); return total / n })...)
}

// summarizeServed adds what the same passes tell beyond the bounded set:
// metrics only some workloads produce, or too unsteady for a bound, and
// the server layer's view from the client side.
func summarizeServed(out *outcome, results []passResult) {
	var writes, edge []float64
	for _, r := range results {
		for _, ws := range r.writes {
			if ws.ok {
				writes = append(writes, ms(ws.latency))
			}
		}
		for _, s := range r.samples {
			if s.ok {
				edge = append(edge, us(s.latency-s.elapsed))
			}
		}
	}
	sort.Float64s(writes)

	addPct(out, results, "served.search_p50_ms", kindSearch, 0.50)
	wqps := perPass(results, func(r passResult) float64 {
		n := 0
		for _, ws := range r.writes {
			if ws.ok {
				n++
			}
		}
		return float64(n) / r.wall.Seconds()
	})
	out.add("served.write_qps", "1/s", median(wqps), wqps...)
	out.add("served.write_p50_ms", "ms", percentile(writes, 0.50))
	out.add("served.write_p95_ms", "ms", percentile(writes, 0.95))
	// CPU time per op is not bounded either: on cold-io, where the server
	// mostly sleeps, it measures the runtime's sleep/wake overhead and
	// moves by a fifth between seeds. On the CPU-bound workloads two
	// closed-loop clients leave no core idle, so read_qps carries it.
	cpu := perPass(results, func(r passResult) float64 { return ms(r.cpu) / float64(len(r.samples)+len(r.writes)) })
	out.add("served.cpu_ms_per_op", "ms", median(cpu), cpu...)
	out.add("served.fail_ratio", "ratio", float64(out.failed)/float64(max(out.attempted, 1)))
	bytes, okReads := sumReads(func(s sample) float64 { return float64(s.bytes) }, results...)
	out.add("served.read_samples", "count", okReads)
	out.add("server.edge_us", "us", median(edge))
	out.add("server.resp_bytes_per_op", "B", bytes/okReads)
}
