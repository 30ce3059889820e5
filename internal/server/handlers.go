package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"dsks"
	"dsks/internal/breaker"
	"dsks/internal/obj"
	"dsks/internal/shard"
)

// The /v1 endpoints. Every query endpoint shares one flow: parse → open
// a read view (pinning the current version token: a commit LSN, or the
// per-shard LSN vector) → canonical cache key → cache lookup keyed on
// the token (hits bypass admission entirely) → admission (bounded queue,
// 429 + Retry-After when full) → deadline-bound query against the view →
// serialize (appendResponse), fill cache, respond. Because the whole
// query runs against the pinned snapshot, the stored entry is *exactly*
// consistent with its token — a mutation landing mid-query publishes a
// higher one and simply misses the entry, it can never make a cached body
// look fresher or staler than it is. With the cache off (capacity 0) the
// key and token steps are skipped and every lookup is a counted miss.
//
// Behind a sharded backend a query may come back partial (the set's
// partial-result policy): the merged survivors are served as 206 with
// the failed legs' detail in the envelope, never cached (the answer is
// not the one this token promises), and neutral for the breaker — one
// dead shard must not shed the healthy ones.

// errBadRequest marks client errors (malformed or invalid queries).
var errBadRequest = errors.New("bad request")

// badRequest wraps a validation failure for the 400 mapping.
func badRequest(err error) error {
	return fmt.Errorf("%w: %v", errBadRequest, err)
}

// queryRequest is the shared request shape of the /v1 query endpoints; each
// endpoint reads the fields it needs. GET requests carry the fields as URL
// parameters (terms comma-separated), POSTs as a JSON document.
type queryRequest struct {
	Edge     dsks.EdgeID   `json:"edge"`
	Offset   float64       `json:"offset"`
	BEdge    dsks.EdgeID   `json:"bEdge"`   // second position (distance)
	BOffset  float64       `json:"bOffset"` // second position (distance)
	Terms    []dsks.TermID `json:"terms"`
	DeltaMax float64       `json:"deltaMax"`
	K        int           `json:"k"`
	Lambda   float64       `json:"lambda"`
	Alpha    float64       `json:"alpha"`
	MaxDist  float64       `json:"maxDist"`
	Timeout  string        `json:"timeout"`
}

// pos returns the primary query position.
func (q *queryRequest) pos() dsks.Position {
	return dsks.Position{Edge: q.Edge, Offset: q.Offset}
}

// posB returns the secondary position of a distance request.
func (q *queryRequest) posB() dsks.Position {
	return dsks.Position{Edge: q.BEdge, Offset: q.BOffset}
}

// cacheKey is the canonical encoding of a request to the kind endpoint:
// terms are normalized at parse time, floats rendered with full precision,
// so two requests for the same logical query share an entry regardless of
// JSON field order or term duplication. The Timeout field is deliberately
// excluded — it shapes execution, not the result.
func (q *queryRequest) cacheKey(kind string) string {
	b := make([]byte, 0, 96+4*len(q.Terms))
	b = append(append(b, kind...), "|e"...)
	b = strconv.AppendInt(b, int64(q.Edge), 10)
	b = appendKeyFloat(b, "|o", q.Offset)
	b = strconv.AppendInt(append(b, "|E"...), int64(q.BEdge), 10)
	b = appendKeyFloat(b, "|O", q.BOffset)
	b = appendKeyFloat(b, "|d", q.DeltaMax)
	b = strconv.AppendInt(append(b, "|k"...), int64(q.K), 10)
	b = appendKeyFloat(b, "|l", q.Lambda)
	b = appendKeyFloat(b, "|a", q.Alpha)
	b = append(appendKeyFloat(b, "|m", q.MaxDist), "|t"...)
	for i, t := range q.Terms {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(t), 10)
	}
	return string(b)
}

// appendKeyFloat appends a cache-key field: its tag, then f with full
// precision.
func appendKeyFloat(b []byte, tag string, f float64) []byte {
	return strconv.AppendFloat(append(b, tag...), f, 'g', -1, 64)
}

// parseQueryRequest reads a queryRequest from URL parameters (GET) or the
// JSON body (POST) and normalizes the term list.
func parseQueryRequest(r *http.Request) (*queryRequest, error) {
	q := &queryRequest{Lambda: 0.8, Alpha: 0.5}
	switch r.Method {
	case http.MethodGet:
		if err := parseParams(r.URL.RawQuery, q); err != nil {
			return nil, err
		}
	case http.MethodPost:
		body := http.MaxBytesReader(nil, r.Body, 1<<20)
		if err := json.NewDecoder(body).Decode(q); err != nil {
			return nil, fmt.Errorf("decoding request body: %w", err)
		}
	default:
		return nil, fmt.Errorf("method %s not allowed", r.Method)
	}
	q.Terms = obj.NormalizeTerms(q.Terms)
	return q, nil
}

// The GET parameters a queryRequest reads, as bits of parseParams' seen
// set.
const (
	pEdge = 1 << iota
	pOffset
	pBEdge
	pBOffset
	pDeltaMax
	pK
	pLambda
	pAlpha
	pMaxDist
	pTimeout
	pTerms
)

// parseParams fills q from a URL query string in one pass. It splits the
// query as url.ParseQuery does: pairs separated by '&', a pair holding a
// ';' or an invalid escape skipped, names and values unescaped. As with
// url.Values.Get, only a parameter's first occurrence counts, and an empty
// value leaves the field at its default.
func parseParams(raw string, q *queryRequest) error {
	var seen uint
	first := func(bit uint, v string) bool {
		ok := seen&bit == 0 && v != ""
		seen |= bit
		return ok
	}
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		name, v, _ := strings.Cut(pair, "=")
		name, err := url.QueryUnescape(name)
		if err != nil {
			continue
		}
		if v, err = url.QueryUnescape(v); err != nil {
			continue
		}
		switch name {
		case "edge":
			if first(pEdge, v) {
				q.Edge, err = parseID[dsks.EdgeID](v)
			}
		case "offset":
			if first(pOffset, v) {
				q.Offset, err = strconv.ParseFloat(v, 64)
			}
		case "bEdge":
			if first(pBEdge, v) {
				q.BEdge, err = parseID[dsks.EdgeID](v)
			}
		case "bOffset":
			if first(pBOffset, v) {
				q.BOffset, err = strconv.ParseFloat(v, 64)
			}
		case "deltaMax":
			if first(pDeltaMax, v) {
				q.DeltaMax, err = strconv.ParseFloat(v, 64)
			}
		case "k":
			if first(pK, v) {
				q.K, err = strconv.Atoi(v)
			}
		case "lambda":
			if first(pLambda, v) {
				q.Lambda, err = strconv.ParseFloat(v, 64)
			}
		case "alpha":
			if first(pAlpha, v) {
				q.Alpha, err = strconv.ParseFloat(v, 64)
			}
		case "maxDist":
			if first(pMaxDist, v) {
				q.MaxDist, err = strconv.ParseFloat(v, 64)
			}
		case "timeout":
			if first(pTimeout, v) {
				q.Timeout = v
			}
		case "terms":
			if first(pTerms, v) {
				err = parseTerms(v, q)
			}
		}
		if err != nil {
			return fmt.Errorf("parameter %s: %w", name, err)
		}
	}
	return nil
}

// parseTerms appends the comma-separated term list v to q.Terms; an empty
// element (",", a trailing comma) is a malformed term.
func parseTerms(v string, q *queryRequest) error {
	for {
		part, rest, more := strings.Cut(v, ",")
		t, err := parseID[dsks.TermID](strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("term %q: %w", part, err)
		}
		q.Terms = append(q.Terms, t)
		if !more {
			return nil
		}
		v = rest
	}
}

// parseID parses a decimal edge or term ID. Both are 32-bit: a value
// past that range is an error, never an ID it wraps around to.
func parseID[T ~int32](v string) (T, error) {
	n, err := strconv.ParseInt(v, 10, 32)
	return T(n), err
}

// deadlineFor resolves the request's deadline: the client's timeout
// parameter clamped to MaxTimeout, or DefaultTimeout when absent.
func (s *Server) deadlineFor(timeout string) (time.Duration, error) {
	if timeout == "" {
		return s.cfg.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(timeout)
	if err != nil {
		return 0, fmt.Errorf("timeout %q: %w", timeout, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("timeout must be positive, got %v", d)
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// candidatePayload is one result object on the wire.
type candidatePayload struct {
	ID     dsks.ObjectID `json:"id"`
	Edge   dsks.EdgeID   `json:"edge"`
	Offset float64       `json:"offset"`
	Dist   float64       `json:"dist"`
}

// rankedPayload is one scored object of a ranked query.
type rankedPayload struct {
	ID      dsks.ObjectID `json:"id"`
	Edge    dsks.EdgeID   `json:"edge"`
	Offset  float64       `json:"offset"`
	Dist    float64       `json:"dist"`
	Matched int           `json:"matched"`
	Score   float64       `json:"score"`
}

// collectivePayload is the keyword-covering group of a collective query.
type collectivePayload struct {
	Objects   []candidatePayload `json:"objects"`
	Cost      float64            `json:"cost"`
	Covered   bool               `json:"covered"`
	Uncovered []dsks.TermID      `json:"uncovered,omitempty"`
}

// queryResponse is the shared response envelope of the query endpoints
// and the one declaration of their wire shape: appendResponse encodes it
// exactly as json.Marshal would.
// The shard fields (lsns onward) appear only behind a sharded backend:
// the pinned per-shard LSN vector, the legs actually queried after
// routing pruning, and — on a 206 — the partial flag with the failed
// legs' detail.
type queryResponse struct {
	Kind          string             `json:"kind"`
	Candidates    []candidatePayload `json:"candidates,omitempty"`
	F             float64            `json:"f,omitempty"`
	Ranked        []rankedPayload    `json:"ranked,omitempty"`
	Collective    *collectivePayload `json:"collective,omitempty"`
	Distance      *float64           `json:"distance,omitempty"`
	ElapsedMicros int64              `json:"elapsedMicros"`
	DiskReads     int64              `json:"diskReads"`
	LSNs          []uint64           `json:"lsns,omitempty"`
	Queried       []int              `json:"queriedShards,omitempty"`
	Pruned        int                `json:"prunedShards,omitempty"`
	Partial       bool               `json:"partial,omitempty"`
	ShardErrors   []shard.ShardError `json:"shardErrors,omitempty"`
}

// stampMeta folds a sharded view's scatter metadata into the envelope.
func (q *queryResponse) stampMeta(m shard.Meta) {
	q.LSNs = m.LSNs
	q.Queried = m.Queried
	q.Pruned = m.Pruned
	q.Partial = m.Partial
	q.ShardErrors = m.Errors
}

// candidates converts a result slice to the wire shape.
func candidates(cs []dsks.Candidate) []candidatePayload {
	out := make([]candidatePayload, len(cs))
	for i, c := range cs {
		out[i] = candidatePayload{ID: c.Ref.ID, Edge: c.Ref.Edge, Offset: c.Ref.Offset, Dist: c.Dist}
	}
	return out
}

// envelope is the response to a query: every payload field and the
// shared ones filled from its Result. A family fills only its own payload
// fields, so the others stay empty and off the wire.
func envelope(kind string, res dsks.Result) *queryResponse {
	out := &queryResponse{
		Kind:          kind,
		F:             res.F,
		ElapsedMicros: res.Elapsed.Microseconds(),
		DiskReads:     res.DiskReads,
	}
	if len(res.Candidates) > 0 {
		out.Candidates = candidates(res.Candidates)
	}
	if len(res.Ranked) > 0 {
		out.Ranked = make([]rankedPayload, len(res.Ranked))
		for i, rr := range res.Ranked {
			out.Ranked[i] = rankedPayload{
				ID: rr.Ref.ID, Edge: rr.Ref.Edge, Offset: rr.Ref.Offset,
				Dist: rr.Dist, Matched: rr.Matched, Score: rr.Score,
			}
		}
	}
	if c := res.Collective; c != nil {
		out.Collective = &collectivePayload{
			Objects:   candidates(c.Objects),
			Cost:      c.Cost,
			Covered:   c.Covered,
			Uncovered: c.Uncovered,
		}
	}
	return out
}

// runner executes one parsed query against a pinned read view under an
// admitted, deadline-bound context and returns the response payload. A
// runner may return BOTH a payload and an error wrapping
// shard.ErrPartialResult: the merged survivors of a partly failed
// fan-out, which queryEndpoint serves as 206.
type runner func(ctx context.Context, v QueryView, req *queryRequest) (*queryResponse, error)

// queryEndpoint wraps a runner in the shared serving flow.
func (s *Server) queryEndpoint(kind string, run runner) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, err := parseQueryRequest(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		budget, err := s.deadlineFor(req.Timeout)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}

		// Open the read view first: it pins the version token the whole
		// request is served at — the cache lookup, the query, and the
		// stored entry all agree on that one snapshot. Opening never
		// blocks on writers (an atomic root-set load plus an epoch pin
		// per shard).
		v, err := s.backend.View(r.Context())
		if err != nil {
			s.writeQueryError(w, err)
			return
		}
		defer v.Close()

		// With the cache off the lookup is a counted miss: no key, no
		// version token, no lock.
		var key, version string
		if s.cache.cap == 0 {
			s.cacheMisses.Add(1)
		} else {
			key, version = req.cacheKey(kind), versionToken(v)
			if body, ok := s.cache.get(key, version); ok {
				w.Header().Set("X-Dsks-Cache", "hit")
				w.Header().Set("Content-Type", "application/json")
				_, _ = w.Write(body)
				return
			}
		}
		w.Header().Set("X-Dsks-Cache", "miss")

		// Degraded-mode gate: with the circuit open, storage is failing
		// and every query would hit it — shed with 503 except the single
		// half-open probe, whose outcome decides whether to close. Cache
		// hits were already served above; they touch no storage. The
		// ticket ends when the handler does, so an early return or a
		// panicking query ends it neutral; only a storage-class error
		// (500) is a failure.
		tk, admitted := s.health.Allow()
		if !admitted {
			w.Header().Set("Retry-After", retryAfter(s.health.Cooldown()))
			writeError(w, http.StatusServiceUnavailable, "storage degraded: circuit breaker open")
			return
		}
		outcome := breaker.Neutral
		defer func() { tk.End(outcome) }()

		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()
		if err := s.admit(w, ctx); err != nil {
			return
		}
		defer s.lim.release()

		resp, err := run(ctx, v, req)
		partial := err != nil && errors.Is(err, shard.ErrPartialResult) && resp != nil
		if err != nil && !partial {
			if statusFor(err) == http.StatusInternalServerError {
				outcome = breaker.Failure
			}
			s.writeQueryError(w, err)
			return
		}
		if mv, ok := v.(*shard.MultiView); ok {
			resp.stampMeta(mv.Meta())
		}
		// A partial answer is coherent but incomplete: served with 206
		// and the failed legs' detail, never cached, and neutral for the
		// breaker (the healthy shards did serve).
		if !partial {
			outcome = breaker.Success
		}
		body, err := appendResponse(make([]byte, 0, responseSize(resp)), resp)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if partial {
			w.WriteHeader(http.StatusPartialContent)
			_, _ = w.Write(body)
			return
		}
		s.cache.put(key, version, body)
		_, _ = w.Write(body)
	}
}

// admit runs the admission gate, writing the rejection response itself:
// 429 + Retry-After when the wait queue is full, 504 when the request's
// deadline expired while queued, 499 when the client went away. A nil
// return means a slot is held and must be released.
func (s *Server) admit(w http.ResponseWriter, ctx context.Context) error {
	err := s.lim.acquire(ctx)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, errQueueFull):
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1") // the shortest whole-second hint
		writeError(w, http.StatusTooManyRequests, "server overloaded: admission queue full")
	case errors.Is(err, context.DeadlineExceeded):
		s.deadlines.Add(1)
		writeError(w, http.StatusGatewayTimeout, "deadline expired while queued for admission")
	default: // client canceled
		writeError(w, statusClientClosedRequest, "client closed request")
	}
	return err
}

// retryAfter renders a wait as a Retry-After value: whole seconds, rounded
// up, at least one. A hint of 0 would tell clients to retry at once.
func retryAfter(d time.Duration) string {
	return strconv.Itoa(max(1, int(math.Ceil(d.Seconds()))))
}

// statusClientClosedRequest is nginx's non-standard 499, the least-wrong
// status for a client that vanished mid-request.
const statusClientClosedRequest = 499

// statusFor maps an engine error to its HTTP status. The 500 class is
// exactly the storage-class failures (injected faults, detected page
// corruption, a shard down, anything unclassified) that drive the health
// breaker; everything else is a client-attributable or capability error
// and is neutral for health purposes. Partial results normally never
// reach this mapping (queryEndpoint serves them as 206 with a body); the
// case is the coherent fallback.
func statusFor(err error) int {
	switch {
	case errors.Is(err, shard.ErrPartialResult):
		return http.StatusPartialContent
	case errors.Is(err, errBadRequest),
		errors.Is(err, dsks.ErrUnknownEdge),
		errors.Is(err, dsks.ErrTermOutOfRange):
		return http.StatusBadRequest
	case errors.Is(err, dsks.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, dsks.ErrCanceled):
		return statusClientClosedRequest
	case errors.Is(err, dsks.ErrNoPath), errors.Is(err, dsks.ErrUnknownObject):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

// writeQueryError maps an engine error to its HTTP response.
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusGatewayTimeout {
		s.deadlines.Add(1)
	}
	writeError(w, status, err.Error())
}

// family is the runner of one query family: build makes the family's
// query from the request, the view runs it, and the response is the
// envelope of its Result, labeled with the family's kind.
func family[Q dsks.Query](build func(*queryRequest) Q) runner {
	return func(ctx context.Context, v QueryView, req *queryRequest) (*queryResponse, error) {
		q := build(req)
		if err := q.Validate(); err != nil {
			return nil, badRequest(err)
		}
		res, err := v.Query(ctx, q)
		if err != nil && !errors.Is(err, shard.ErrPartialResult) {
			return nil, err
		}
		return envelope(string(q.Kind()), res), err
	}
}

// skQuery is the /v1/search query.
func (r *queryRequest) skQuery() dsks.SKQuery {
	return dsks.SKQuery{Pos: r.pos(), Terms: r.Terms, DeltaMax: r.DeltaMax}
}

// divQuery is the /v1/diversified query.
func (r *queryRequest) divQuery() dsks.DivQuery {
	return dsks.DivQuery{SKQuery: r.skQuery(), K: r.K, Lambda: r.Lambda}
}

// knnQuery is the /v1/knn query.
func (r *queryRequest) knnQuery() dsks.KNNQuery {
	return dsks.KNNQuery{Pos: r.pos(), Terms: r.Terms, K: r.K, MaxDist: r.MaxDist}
}

// rankedQuery is the /v1/ranked query.
func (r *queryRequest) rankedQuery() dsks.RankedQuery {
	return dsks.RankedQuery{Pos: r.pos(), Terms: r.Terms, K: r.K, Alpha: r.Alpha, DeltaMax: r.DeltaMax}
}

// collectiveQuery is the /v1/collective query.
func (r *queryRequest) collectiveQuery() dsks.CollectiveQuery {
	return dsks.CollectiveQuery{Pos: r.pos(), Terms: r.Terms, DeltaMax: r.DeltaMax}
}

// runDistance serves /v1/distance: the exact network distance between two
// positions, 404 when no path connects them.
func (s *Server) runDistance(ctx context.Context, v QueryView, req *queryRequest) (*queryResponse, error) {
	for _, off := range [2]float64{req.Offset, req.BOffset} {
		if math.IsNaN(off) || math.IsInf(off, 0) {
			return nil, badRequest(fmt.Errorf("position offset must be finite, got %v", off))
		}
	}
	d, err := v.NetworkDistance(ctx, req.pos(), req.posB())
	if err != nil {
		return nil, err
	}
	return &queryResponse{Kind: "distance", Distance: &d}, nil
}

// insertRequest is the /v1/insert body.
type insertRequest struct {
	Edge   dsks.EdgeID   `json:"edge"`
	Offset float64       `json:"offset"`
	Terms  []dsks.TermID `json:"terms"`
}

// handleInsert serves /v1/insert: add one object, publishing a new
// database version under a fresh commit LSN (which invalidates the
// result cache — entries are keyed by the LSN they were computed at).
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req insertRequest
	if err := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request body: %v", err))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()
	if err := s.admit(w, ctx); err != nil {
		return
	}
	defer s.lim.release()
	id, lsn, err := s.backend.Insert(dsks.Position{Edge: req.Edge, Offset: req.Offset}, req.Terms)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "lsn": lsn})
}

// removeRequest is the /v1/remove body.
type removeRequest struct {
	ID dsks.ObjectID `json:"id"`
}

// handleRemove serves /v1/remove: tombstone one object, publishing a new
// database version under a fresh commit LSN (which invalidates the
// result cache — entries are keyed by the LSN they were computed at).
func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req removeRequest
	if err := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request body: %v", err))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()
	if err := s.admit(w, ctx); err != nil {
		return
	}
	defer s.lim.release()
	lsn, err := s.backend.Remove(req.ID)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": req.ID, "lsn": lsn})
}
