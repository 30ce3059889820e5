// Package server is the production query-serving layer: an HTTP/JSON
// API exposing every query family plus mutations over a Backend — one
// *dsks.DB (New) or an N-way shard.Set behind the scatter-gather router
// (NewRouter) — with admission control (a bounded concurrency limiter
// that sheds load with 429 + Retry-After), per-request deadlines plumbed
// into the engine so rejected and expired queries stop doing disk reads,
// an invalidation-correct LRU result cache keyed by the read view's
// version token (a commit LSN, or the per-shard LSN vector — every query
// runs inside a pinned view, so cached entries are exactly consistent
// with their token), panic isolation per request, and live observability
// (/healthz, /varz JSON, /metricsz Prometheus text) rendered from the
// backend's own metrics registry. Everything is standard library only,
// like the rest of the repository.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"dsks"
	"dsks/internal/breaker"
	"dsks/internal/metrics"
)

// Config sizes the server. Zero values take the documented defaults, so
// Config{} is a usable development configuration.
type Config struct {
	// Addr is the listen address (default ":8080").
	Addr string
	// MaxInflight bounds the queries executing concurrently (default 16).
	MaxInflight int
	// QueueDepth bounds the requests waiting for an execution slot;
	// beyond it requests are shed with 429 (default 64).
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the client sends
	// none (default 2s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the client-requested deadline (default 30s).
	MaxTimeout time.Duration
	// CacheSize is the result cache capacity in entries; 0 keeps the
	// default (4096), negative disables caching.
	CacheSize int
	// DegradeAfter is the count of consecutive storage-class errors that
	// moves health from healthy to degraded (default 3, breaker.New's).
	DegradeAfter int
	// BreakAfter is the count of consecutive storage-class errors that
	// opens the circuit: queries are shed with 503 + Retry-After until a
	// half-open probe succeeds (default 5, and never below DegradeAfter).
	BreakAfter int
	// BreakerCooldown is how long the breaker stays open before it lets
	// one probe query through (default 1s, breaker.New's).
	BreakerCooldown time.Duration
}

// withDefaults fills the zero fields, except the breaker's own:
// breaker.New defaults DegradeAfter and BreakerCooldown and keeps
// BreakAfter at or above DegradeAfter.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 16
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.CacheSize < 0 {
		c.CacheSize = 0
	}
	if c.BreakAfter <= 0 {
		c.BreakAfter = 5
	}
	return c
}

// Server serves spatial keyword queries over HTTP. Create with New (one
// database) or NewRouter (a shard set), wire the Handler into an
// http.Server (or use Start/Shutdown), and share one Server per backend —
// the admission limiter and cache are per-Server.
type Server struct {
	backend Backend
	cfg     Config
	lim     *limiter
	cache   *resultCache
	health  *breaker.Breaker
	mux     *http.ServeMux

	started time.Time
	http    *http.Server
	ln      net.Listener

	// Serving counters, folded into the DB's metrics registry so /varz
	// and /metricsz render them alongside the engine's own aggregates.
	requests    *atomic.Int64
	rejected    *atomic.Int64
	deadlines   *atomic.Int64
	panics      *atomic.Int64
	cacheHits   *atomic.Int64
	cacheMisses *atomic.Int64
}

// New builds a server over an open database.
func New(db *dsks.DB, cfg Config) *Server {
	return newServer(dbBackend{db}, cfg)
}

// newServer wires the serving machinery over any backend. The serving
// counters fold into the backend's own metrics registry — the engine's
// for a single database, the router's for a shard set — so /varz and
// /metricsz render them alongside that backend's aggregates.
func newServer(backend Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := backend.Metrics()
	s := &Server{
		backend:     backend,
		cfg:         cfg,
		lim:         newLimiter(cfg.MaxInflight, cfg.QueueDepth),
		started:     time.Now(),
		requests:    reg.Counter("server_requests_total"),
		rejected:    reg.Counter("server_admission_rejected_total"),
		deadlines:   reg.Counter("server_deadline_exceeded_total"),
		panics:      reg.Counter("server_panics_total"),
		cacheHits:   reg.Counter("server_cache_hits_total"),
		cacheMisses: reg.Counter("server_cache_misses_total"),
	}
	s.cache = newResultCache(cfg.CacheSize, s.cacheHits, s.cacheMisses,
		reg.Counter("server_cache_stale_evictions_total"))
	s.health = breaker.New(cfg.DegradeAfter, cfg.BreakAfter, cfg.BreakerCooldown, breaker.Counters{
		Opened: reg.Counter("server_breaker_opened_total"),
		Shed:   reg.Counter("server_breaker_shed_total"),
		State:  reg.Counter("server_health_state"),
	})
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// routes wires the endpoints.
func (s *Server) routes() {
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/varz", s.handleVarz)
	s.mux.HandleFunc("/metricsz", s.handleMetricsz)
	s.mux.HandleFunc("/v1/search", s.queryEndpoint("search", family((*queryRequest).skQuery)))
	s.mux.HandleFunc("/v1/diversified", s.queryEndpoint("diversified", family((*queryRequest).divQuery)))
	s.mux.HandleFunc("/v1/knn", s.queryEndpoint("knn", family((*queryRequest).knnQuery)))
	s.mux.HandleFunc("/v1/ranked", s.queryEndpoint("ranked", family((*queryRequest).rankedQuery)))
	s.mux.HandleFunc("/v1/collective", s.queryEndpoint("collective", family((*queryRequest).collectiveQuery)))
	s.mux.HandleFunc("/v1/distance", s.queryEndpoint("distance", s.runDistance))
	s.mux.HandleFunc("/v1/insert", s.handleInsert)
	s.mux.HandleFunc("/v1/remove", s.handleRemove)
}

// Handler returns the server's HTTP handler: the route mux wrapped in the
// panic-isolation middleware, so one bad request cannot take down the
// process.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				// The handler may have written nothing yet; try to fail the
				// request cleanly and keep the process alive.
				writeError(w, http.StatusInternalServerError,
					fmt.Sprintf("internal error: %v", v))
				debug.PrintStack()
			}
		}()
		s.requests.Add(1)
		s.mux.ServeHTTP(w, r)
	})
}

// Start listens on cfg.Addr and serves in a background goroutine. It
// returns once the listener is bound (so callers know the port is live);
// serve errors after that surface through the returned channel, which
// closes on clean shutdown.
func (s *Server) Start() (<-chan error, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.http = &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() {
		defer close(errc)
		if err := s.http.Serve(ln); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()
	return errc, nil
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Shutdown drains the server: the listener closes immediately, in-flight
// requests run to completion, and once ctx ends remaining connections are
// cut. A nil http server (never started) is a no-op.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.http == nil {
		return nil
	}
	return s.http.Shutdown(ctx)
}

// handleHealthz reports liveness and the degradation state: 200 while the
// server is healthy or degraded (it is still serving), 503 while the
// circuit is open (queries are being shed).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.health.State()
	status := http.StatusOK
	if st == breaker.Open {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfter(s.health.Cooldown()))
	}
	body := map[string]any{
		"status": st.String(),
		"uptime": time.Since(s.started).String(),
		"lsn":    s.backend.LSN(),
	}
	if sb, ok := s.backend.(sharded); ok {
		// Per-shard failover state ("primary"|"replica"|"down"): a shard
		// can lose its primary and keep serving from replicas without
		// the server-wide breaker noticing — surface it here.
		body["shards"] = sb.ShardHealth()
	}
	writeJSON(w, status, body)
}

// varzPayload is the /varz document: the serving state plus the full
// metrics snapshot. PinnedViews counts the read views open on the
// backend, summed over shards and replicas behind the router: it follows
// the requests in flight and falls back to zero when they are done. Shards is present only behind NewRouter: one row per
// shard with its commit/durable LSNs, live objects and fan-out counters.
type varzPayload struct {
	Uptime      string               `json:"uptime"`
	DBLSN       uint64               `json:"dbLSN"`
	LiveObjects int                  `json:"liveObjects"`
	PinnedViews int                  `json:"pinnedViews"`
	DurableLSN  uint64               `json:"durableLSN"`
	Health      string               `json:"health"`
	Inflight    int                  `json:"inflight"`
	Queued      int64                `json:"queued"`
	CacheLen    int                  `json:"cacheLen"`
	CacheCap    int                  `json:"cacheCap"`
	MaxInflight int                  `json:"maxInflight"`
	QueueDepth  int                  `json:"queueDepth"`
	Shards      []ShardVarz          `json:"shards,omitempty"`
	Metrics     dsks.MetricsSnapshot `json:"metrics"`
}

// handleVarz serves the JSON metrics snapshot.
func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	payload := varzPayload{
		Uptime:      time.Since(s.started).String(),
		DBLSN:       s.backend.LSN(),
		LiveObjects: s.backend.LiveObjects(),
		PinnedViews: s.backend.PinnedViews(),
		DurableLSN:  s.backend.DurableLSN(),
		Health:      s.health.State().String(),
		Inflight:    s.lim.inflight(),
		Queued:      s.lim.waiting(),
		CacheLen:    s.cache.len(),
		CacheCap:    s.cfg.CacheSize,
		MaxInflight: s.cfg.MaxInflight,
		QueueDepth:  s.cfg.QueueDepth,
		Metrics:     s.backend.Snapshot(),
	}
	if sb, ok := s.backend.(sharded); ok {
		payload.Shards = sb.ShardVarz()
	}
	writeJSON(w, http.StatusOK, payload)
}

// handleMetricsz serves the Prometheus text rendering of the registry.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := metrics.WritePrometheus(w, s.backend.Snapshot()); err != nil {
		// The connection is gone mid-write; nothing sensible to send.
		return
	}
}

// writeJSON writes a compact JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the JSON error envelope.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
