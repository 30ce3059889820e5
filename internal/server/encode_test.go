package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"dsks"
	"dsks/internal/shard"
)

// assertMarshalBody asserts that a query response body is exactly
// json.Marshal of the queryResponse it decodes to, plus a newline.
func assertMarshalBody(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	var resp queryResponse
	decode(t, rec, &resp)
	want, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != string(want)+"\n" {
		t.Fatalf("body is not json.Marshal's output:\n got %q\nwant %q", got, string(want)+"\n")
	}
}

func TestQueryBodiesAreMarshalOutput(t *testing.T) {
	db, ws := testDB(t)
	h := New(db, Config{}).Handler()
	q := ws[0]
	at := fmt.Sprintf("edge=%d&offset=%g&terms=%s", q.Pos.Edge, q.Pos.Offset, termsParam(q.Terms))
	for _, u := range []string{
		searchURL(q),
		fmt.Sprintf("/v1/diversified?%s&deltaMax=%g&k=3&lambda=0.8", at, q.DeltaMax),
		fmt.Sprintf("/v1/knn?%s&k=3", at),
		fmt.Sprintf("/v1/ranked?%s&deltaMax=%g&k=3&alpha=0.5", at, q.DeltaMax),
		fmt.Sprintf("/v1/collective?%s&deltaMax=%g", at, q.DeltaMax),
		fmt.Sprintf("/v1/collective?%s&deltaMax=0.001", at), // nothing in range: uncovered terms
		fmt.Sprintf("/v1/distance?%s&bEdge=0&bOffset=0", at),
	} {
		miss := get(t, h, u, nil)
		if miss.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", u, miss.Code, miss.Body)
		}
		assertMarshalBody(t, miss)
		if hit := get(t, h, u, nil); hit.Header().Get("X-Dsks-Cache") != "hit" || hit.Body.String() != miss.Body.String() {
			t.Fatalf("%s: cache %q served a different body", u, hit.Header().Get("X-Dsks-Cache"))
		}
	}

	// Behind the router the envelope carries the shard fields too.
	rh, ru, _ := routerFixture(t, false, Config{})
	rec := get(t, rh, ru, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("sharded search: status %d: %s", rec.Code, rec.Body)
	}
	assertMarshalBody(t, rec)
}

// TestNonFiniteParamsAre400: NaN and ±Inf parse as floats but no query
// accepts them — not the radius, the offsets, λ, α or the kNN cap — on
// one node or behind the router, and the breaker never hears of them.
func TestNonFiniteParamsAre400(t *testing.T) {
	db, ws := testDB(t)
	h := New(db, Config{}).Handler()
	q := ws[0]
	at := fmt.Sprintf("edge=%d&terms=%s", q.Pos.Edge, termsParam(q.Terms))
	urls := []string{
		"/v1/search?" + at + "&offset=0&deltaMax=NaN",
		"/v1/search?" + at + "&offset=0&deltaMax=Inf",
		"/v1/search?" + at + "&offset=NaN&deltaMax=100",
		"/v1/diversified?" + at + "&offset=0&deltaMax=100&k=3&lambda=NaN",
		"/v1/knn?" + at + "&offset=0&k=3&maxDist=NaN",
		"/v1/knn?" + at + "&offset=%2BInf&k=3",
		"/v1/ranked?" + at + "&offset=0&deltaMax=100&k=3&alpha=NaN",
		"/v1/collective?" + at + "&offset=0&deltaMax=-Inf",
		"/v1/distance?edge=0&offset=NaN&bEdge=0&bOffset=0",
		"/v1/distance?edge=0&offset=0&bEdge=0&bOffset=Inf",
	}
	for _, u := range urls {
		if rec := get(t, h, u, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", u, rec.Code, rec.Body)
		}
	}
	var health struct {
		Status string `json:"status"`
	}
	if get(t, h, "/healthz", &health); health.Status != "healthy" {
		t.Errorf("health %q after rejected queries, want healthy", health.Status)
	}

	rh, _, _ := routerFixture(t, false, Config{})
	for _, u := range urls[:8] {
		if rec := get(t, rh, u, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("router %s: status %d, want 400: %s", u, rec.Code, rec.Body)
		}
	}
}

func FuzzResponseEncode(f *testing.F) {
	f.Add("search", "shard 1: <down> & out", 1.5, 2.25, 0.0, uint8(3), uint16(0xffff), uint64(7), int64(42))
	f.Add("diversified", "\u2028\u2029", math.Copysign(0, -1), 1e-7, 1e21, uint8(2), uint16(0x3), uint64(0), int64(-1))
	f.Add("ranked", "\xff\xfe bad", math.NaN(), 1.0, 2.0, uint8(1), uint16(0x4), uint64(1), int64(1<<40))
	f.Add("collective", "a\"b\\c\n\t\x00\x1f\x7f\b\f\r", 3.0, math.Inf(1), 4.0, uint8(0), uint16(0x38), uint64(9), int64(3))
	f.Add("distance", "é日本", 1e20, 5e-324, math.Inf(-1), uint8(1), uint16(0x40), uint64(1<<63), int64(0))
	f.Add("<kind>&", "", math.MaxFloat64, 123456789.125, 1e-6, uint8(5), uint16(0x7ff), uint64(2), int64(-7))
	f.Fuzz(func(t *testing.T, kind, shardErr string, f1, f2, f3 float64, n uint8, flags uint16, lsn uint64, id int64) {
		cands := func(m int) []candidatePayload {
			out := make([]candidatePayload, m)
			for i := range out {
				out[i] = candidatePayload{ID: dsks.ObjectID(id + int64(i)), Edge: dsks.EdgeID(int32(id) ^ int32(i)), Offset: f1, Dist: f2 * float64(i)}
			}
			return out
		}
		m := int(n % 4)
		r := &queryResponse{Kind: kind, ElapsedMicros: id, DiskReads: int64(lsn)}
		if flags&1 != 0 {
			r.Candidates = cands(m)
		}
		if flags&2 != 0 {
			r.F = f3
		}
		if flags&4 != 0 {
			r.Ranked = make([]rankedPayload, m)
			for i := range r.Ranked {
				r.Ranked[i] = rankedPayload{ID: dsks.ObjectID(i), Edge: dsks.EdgeID(id), Offset: f2, Dist: f3, Matched: i - 1, Score: f1 / float64(i+1)}
			}
		}
		if flags&8 != 0 {
			r.Collective = &collectivePayload{Cost: f3, Covered: flags&0x80 != 0}
			if flags&0x10 == 0 {
				r.Collective.Objects = cands(m)
			}
			if flags&0x20 != 0 {
				r.Collective.Uncovered = make([]dsks.TermID, m)
				for i := range r.Collective.Uncovered {
					r.Collective.Uncovered[i] = dsks.TermID(int32(id) + int32(i))
				}
			}
		}
		if flags&0x40 != 0 {
			d := f1
			r.Distance = &d
		}
		if flags&0x100 != 0 {
			r.LSNs = make([]uint64, m)
			r.Queried = make([]int, m)
			for i := range r.LSNs {
				r.LSNs[i], r.Queried[i] = lsn+uint64(i), int(id)-i
			}
		}
		if flags&0x200 != 0 {
			r.Pruned = int(id)
			r.Partial = true
		}
		if flags&0x400 != 0 {
			r.ShardErrors = []shard.ShardError{{Shard: int(n), Err: shardErr}, {Shard: -1, Err: kind}}
		}

		want, werr := json.Marshal(r)
		got, gerr := appendResponse(nil, r)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("json.Marshal error %v, appendResponse error %v", werr, gerr)
		}
		if werr != nil {
			if werr.Error() != gerr.Error() {
				t.Fatalf("error %q, want %q", gerr, werr)
			}
			return
		}
		if string(got) != string(want)+"\n" {
			t.Fatalf("encoding differs:\n got %q\nwant %q", got, string(want)+"\n")
		}
	})
}

// parseParamsReference is the url.Values decoder parseParams replaced,
// kept as the reference FuzzQueryDecode holds it to. Edges and terms are
// 32-bit: a larger value is an error, not the ID it would wrap around to.
func parseParamsReference(raw string, q *queryRequest) error {
	vals, _ := url.ParseQuery(raw)
	for name, set := range map[string]func(string) error{
		"edge":     func(v string) error { e, err := strconv.ParseInt(v, 10, 32); q.Edge = dsks.EdgeID(e); return err },
		"offset":   func(v string) (err error) { q.Offset, err = strconv.ParseFloat(v, 64); return },
		"bEdge":    func(v string) error { e, err := strconv.ParseInt(v, 10, 32); q.BEdge = dsks.EdgeID(e); return err },
		"bOffset":  func(v string) (err error) { q.BOffset, err = strconv.ParseFloat(v, 64); return },
		"deltaMax": func(v string) (err error) { q.DeltaMax, err = strconv.ParseFloat(v, 64); return },
		"k":        func(v string) (err error) { q.K, err = strconv.Atoi(v); return },
		"lambda":   func(v string) (err error) { q.Lambda, err = strconv.ParseFloat(v, 64); return },
		"alpha":    func(v string) (err error) { q.Alpha, err = strconv.ParseFloat(v, 64); return },
		"maxDist":  func(v string) (err error) { q.MaxDist, err = strconv.ParseFloat(v, 64); return },
		"timeout":  func(v string) error { q.Timeout = v; return nil },
		"terms": func(v string) error {
			for _, part := range strings.Split(v, ",") {
				t, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
				if err != nil {
					return fmt.Errorf("term %q: %w", part, err)
				}
				q.Terms = append(q.Terms, dsks.TermID(t))
			}
			return nil
		},
	} {
		if v := vals.Get(name); v != "" {
			if err := set(v); err != nil {
				return fmt.Errorf("parameter %s: %w", name, err)
			}
		}
	}
	return nil
}

// cacheKeyReference is the fmt-built cache key cacheKey replaced.
func cacheKeyReference(kind string, q *queryRequest) string {
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "%s|e%d|o%s|E%d|O%s|d%s|k%d|l%s|a%s|m%s|t", kind,
		q.Edge, g(q.Offset), q.BEdge, g(q.BOffset), g(q.DeltaMax), q.K,
		g(q.Lambda), g(q.Alpha), g(q.MaxDist))
	for i, t := range q.Terms {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(t)))
	}
	return b.String()
}

// decodeBoth runs the one-pass decoder and the reference on raw.
func decodeBoth(raw string) (got, want *queryRequest, gerr, werr error) {
	got, want = &queryRequest{Lambda: 0.8, Alpha: 0.5}, &queryRequest{Lambda: 0.8, Alpha: 0.5}
	return got, want, parseParams(raw, got), parseParamsReference(raw, want)
}

func FuzzQueryDecode(f *testing.F) {
	for _, s := range []string{
		"edge=12&offset=0.5&terms=1,2&deltaMax=300",
		"edge=3&terms=4&k=5&lambda=0.25&algo=seq&timeout=50ms",
		"edge=1&edge=2&edge=x",
		"edge=&edge=5",
		"terms=1,,2", "terms=1,", "terms=%201%20,+2", "terms=", "terms=-3,+4",
		"deltaMax=NaN&offset=-Inf&maxDist=1e400&alpha=0x1p-2&lambda=-0",
		"k=1;x=2&k=3", "%zz=1&edge=3", "edge=%zz&edge=4", "ed%67e=4", "ed%67e=4&edge=5",
		"algo=a+b%3C%3E&timeout=1s&timeout=", "bEdge=9&bOffset=1.5e-7",
		"&&=&edge", "k=99999999999999999999", "",
		"edge=4294967299", "bEdge=-2147483649", "terms=1,4294967297", "edge=2147483647",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		got, want, gerr, werr := decodeBoth(raw)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%q: error %v, reference error %v", raw, gerr, werr)
		}
		if gerr != nil {
			return
		}
		if g, w := fmt.Sprintf("%+v", *got), fmt.Sprintf("%+v", *want); g != w {
			t.Fatalf("%q:\n got %s\nwant %s", raw, g, w)
		}
		if g, w := got.cacheKey("search"), cacheKeyReference("search", want); g != w {
			t.Fatalf("%q: cache key %q, want %q", raw, g, w)
		}
	})
}

// TestQueryDecodeErrorText: one malformed parameter reads the same as it
// did through url.Values.
func TestQueryDecodeErrorText(t *testing.T) {
	for _, raw := range []string{
		"edge=x", "offset=1e400", "k=1.5", "terms=1,,2", "terms=1,", "terms=x&edge=3",
		"lambda=%20", "bEdge=99999999999999999999", "edge=4294967299", "terms=4294967297",
	} {
		_, _, gerr, werr := decodeBoth(raw)
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			t.Errorf("%q: error %v, want %v", raw, gerr, werr)
		}
	}
}
