package metrics

import (
	"fmt"
	"io"
	"strings"
)

// Prometheus text-format rendering of a Snapshot (exposition format
// version 0.0.4), written with the standard library only so the server's
// /metricsz endpoint needs no client dependency. Latency histograms keep
// the registry's power-of-two nanosecond buckets, converted to seconds
// and accumulated into the cumulative le-buckets Prometheus expects.

// WritePrometheus renders s in the Prometheus text exposition format.
// Query metrics are labeled by kind, pool metrics by pool, and named
// counters and gauges appear under their registered names. Rendering is entirely
// from the snapshot, so one snapshot produces one consistent scrape.
func WritePrometheus(w io.Writer, s Snapshot) error {
	bw := &errWriter{w: w}

	bw.printf("# HELP dsks_queries_total Queries recorded, by kind.\n")
	bw.printf("# TYPE dsks_queries_total counter\n")
	for _, k := range Kinds() {
		bw.printf("dsks_queries_total{kind=%q} %d\n", k, s.Queries[k].Count)
	}
	bw.printf("# HELP dsks_query_errors_total Queries that returned an error, by kind.\n")
	bw.printf("# TYPE dsks_query_errors_total counter\n")
	for _, k := range Kinds() {
		bw.printf("dsks_query_errors_total{kind=%q} %d\n", k, s.Queries[k].Errors)
	}
	bw.printf("# HELP dsks_query_canceled_total Queries aborted by cancellation or deadline, by kind.\n")
	bw.printf("# TYPE dsks_query_canceled_total counter\n")
	for _, k := range Kinds() {
		bw.printf("dsks_query_canceled_total{kind=%q} %d\n", k, s.Queries[k].Canceled)
	}
	bw.printf("# HELP dsks_query_disk_reads_total Buffer-pool misses charged to queries, by kind.\n")
	bw.printf("# TYPE dsks_query_disk_reads_total counter\n")
	for _, k := range Kinds() {
		bw.printf("dsks_query_disk_reads_total{kind=%q} %d\n", k, s.Queries[k].DiskReads)
	}

	bw.printf("# HELP dsks_query_latency_seconds Query latency, by kind.\n")
	bw.printf("# TYPE dsks_query_latency_seconds histogram\n")
	for _, k := range Kinds() {
		q := s.Queries[k]
		var cum int64
		for i, n := range q.Latency.Buckets {
			cum += n
			if n == 0 && i != len(q.Latency.Buckets)-1 {
				continue // empty buckets add nothing to the cumulative view
			}
			le := float64(bucketUpper(i)) / 1e9
			bw.printf("dsks_query_latency_seconds_bucket{kind=%q,le=%q} %d\n",
				k, formatFloat(le), cum)
		}
		bw.printf("dsks_query_latency_seconds_bucket{kind=%q,le=\"+Inf\"} %d\n", k, q.Latency.Count)
		bw.printf("dsks_query_latency_seconds_sum{kind=%q} %s\n", k, formatFloat(q.Latency.Sum.Seconds()))
		bw.printf("dsks_query_latency_seconds_count{kind=%q} %d\n", k, q.Latency.Count)
	}

	bw.printf("# HELP dsks_pool_logical_reads_total Page requests seen by a buffer pool.\n")
	bw.printf("# TYPE dsks_pool_logical_reads_total counter\n")
	for _, name := range s.PoolNames() {
		bw.printf("dsks_pool_logical_reads_total{pool=%q} %d\n", name, s.Pools[name].LogicalReads)
	}
	bw.printf("# HELP dsks_pool_disk_reads_total Page requests a buffer pool served from disk.\n")
	bw.printf("# TYPE dsks_pool_disk_reads_total counter\n")
	for _, name := range s.PoolNames() {
		bw.printf("dsks_pool_disk_reads_total{pool=%q} %d\n", name, s.Pools[name].DiskReads)
	}
	bw.printf("# HELP dsks_pool_disk_writes_total Dirty pages a buffer pool wrote back.\n")
	bw.printf("# TYPE dsks_pool_disk_writes_total counter\n")
	for _, name := range s.PoolNames() {
		bw.printf("dsks_pool_disk_writes_total{pool=%q} %d\n", name, s.Pools[name].DiskWrites)
	}
	bw.printf("# HELP dsks_pool_read_retries_total Transient read faults absorbed by the retry loop.\n")
	bw.printf("# TYPE dsks_pool_read_retries_total counter\n")
	for _, name := range s.PoolNames() {
		bw.printf("dsks_pool_read_retries_total{pool=%q} %d\n", name, s.Pools[name].ReadRetries)
	}
	bw.printf("# HELP dsks_pool_corrupt_pages_total Page checksum failures detected on buffer miss.\n")
	bw.printf("# TYPE dsks_pool_corrupt_pages_total counter\n")
	for _, name := range s.PoolNames() {
		bw.printf("dsks_pool_corrupt_pages_total{pool=%q} %d\n", name, s.Pools[name].CorruptPages)
	}
	bw.printf("# HELP dsks_pool_hit_rate Fraction of page requests served from the buffer.\n")
	bw.printf("# TYPE dsks_pool_hit_rate gauge\n")
	for _, name := range s.PoolNames() {
		bw.printf("dsks_pool_hit_rate{pool=%q} %s\n", name, formatFloat(s.Pools[name].HitRate))
	}

	// Named values follow the Prometheus convention: cumulative counters
	// end in _total, anything else (an LSN, a lag, a maximum) is a gauge.
	for _, name := range s.CounterNames() {
		kind := "gauge"
		if strings.HasSuffix(name, "_total") {
			kind = "counter"
		}
		bw.printf("# TYPE %s %s\n", name, kind)
		bw.printf("%s %d\n", name, s.Counters[name])
	}
	return bw.err
}

// formatFloat renders a float the way Prometheus parsers expect: plain
// decimal, no exponent for the magnitudes the registry produces.
func formatFloat(f float64) string {
	out := fmt.Sprintf("%g", f)
	if strings.ContainsAny(out, "eE") {
		out = fmt.Sprintf("%f", f)
	}
	return out
}

// errWriter sticks at the first write error so the renderer can print
// unconditionally and report one error at the end.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
