package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkQueryEndpoint serves queries through Handler() with the cache
// off, as the benchmark spine runs the server: decode, view pin, the
// query, encode and write. Beside ns/op it reports allocs/op, B/op and
// resp-bytes/op, the body size the client reads.
func BenchmarkQueryEndpoint(b *testing.B) {
	db, ws := testDB(b)
	h := New(db, Config{CacheSize: -1}).Handler()
	for _, fam := range []struct {
		name string
		url  func(at string, deltaMax float64) string
	}{
		{"search", func(at string, d float64) string { return fmt.Sprintf("/v1/search?%s&deltaMax=%g", at, d) }},
		{"diversified", func(at string, d float64) string {
			return fmt.Sprintf("/v1/diversified?%s&deltaMax=%g&k=5&lambda=0.8", at, d)
		}},
		{"collective", func(at string, d float64) string { return fmt.Sprintf("/v1/collective?%s&deltaMax=%g", at, d) }},
	} {
		reqs := make([]*http.Request, len(ws))
		for i, q := range ws {
			at := fmt.Sprintf("edge=%d&offset=%g&terms=%s", q.Pos.Edge, q.Pos.Offset, termsParam(q.Terms))
			reqs[i] = httptest.NewRequest(http.MethodGet, fam.url(at, q.DeltaMax), nil)
		}
		b.Run(fam.name, func(b *testing.B) {
			b.ReportAllocs()
			var bytes int
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, reqs[i%len(reqs)])
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
				bytes += rec.Body.Len()
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "resp-bytes/op")
		})
	}
}
