package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Record(KindSearch, Sample{Elapsed: 3 * time.Millisecond, DiskReads: 7})
	r.Record(KindSearch, Sample{Elapsed: 5 * time.Millisecond, Err: true})
	r.Record(KindDiversified, Sample{Elapsed: time.Second, Canceled: true, Err: true})
	r.RegisterPool("net", func() PoolCounters {
		return PoolCounters{LogicalReads: 100, DiskReads: 25, ReadRetries: 3, CorruptPages: 1}
	})
	r.Counter("server_cache_hits_total").Add(3)
	r.Counter("server_cache_misses_total").Add(9)
	r.Counter("index_pages_held_max").Store(12)

	var sb strings.Builder
	if err := WritePrometheus(&sb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		`dsks_queries_total{kind="search"} 2`,
		`dsks_queries_total{kind="diversified"} 1`,
		`dsks_query_errors_total{kind="search"} 1`,
		`dsks_query_canceled_total{kind="diversified"} 1`,
		`dsks_query_disk_reads_total{kind="search"} 7`,
		`dsks_query_latency_seconds_count{kind="search"} 2`,
		`dsks_query_latency_seconds_bucket{kind="search",le="+Inf"} 2`,
		`dsks_pool_logical_reads_total{pool="net"} 100`,
		`dsks_pool_disk_reads_total{pool="net"} 25`,
		`dsks_pool_read_retries_total{pool="net"} 3`,
		`dsks_pool_corrupt_pages_total{pool="net"} 1`,
		`dsks_pool_hit_rate{pool="net"} 0.75`,
		"# TYPE server_cache_hits_total counter",
		"server_cache_hits_total 3",
		"server_cache_misses_total 9",
		// A named value that is not a running total is a gauge.
		"# TYPE index_pages_held_max gauge",
		"index_pages_held_max 12",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q\n%s", want, out)
		}
	}

	// Histogram buckets must be cumulative and end at the total count.
	if strings.Contains(out, "e+") || strings.Contains(out, "e-") {
		t.Errorf("rendering contains exponent-format floats:\n%s", out)
	}
}

func TestCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Add(2)
	if again := r.Counter("hits"); again != c {
		t.Fatal("Counter returned a different pointer for the same name")
	}
	snap := r.Snapshot()
	if got := snap.Counters["hits"]; got != 2 {
		t.Fatalf("snapshot counter = %d, want 2", got)
	}
	if names := snap.CounterNames(); len(names) != 1 || names[0] != "hits" {
		t.Fatalf("CounterNames = %v", names)
	}
	r.Reset()
	if got := r.Counter("hits").Load(); got != 0 {
		t.Fatalf("after Reset counter = %d, want 0", got)
	}
}
