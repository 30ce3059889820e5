package server

import (
	"context"
	"strconv"
	"strings"

	"dsks"
	"dsks/internal/shard"
)

// The serving layer is generic over its query engine: a Backend is either
// one *dsks.DB (New) or an N-way shard.Set behind the scatter-gather
// router (NewRouter). Handlers never touch the engine directly — every
// query runs against a QueryView pinned for the whole request, every
// mutation goes through the Backend, and the result cache keys on the
// view's version token (a single commit LSN, or the joined per-shard LSN
// vector). The sharded backend additionally surfaces per-shard state
// through the sharded interface (per-shard /varz and /healthz sections),
// and its views carry partial-result metadata (shard.Meta).

// Backend abstracts the query engine the server fronts.
type Backend interface {
	// View pins a consistent read snapshot for one request.
	View(ctx context.Context) (QueryView, error)
	// Insert adds one object; the returned token is the backend's
	// mutation clock (commit LSN, or the router's sequence number) and is
	// monotone across acknowledged mutations.
	Insert(pos dsks.Position, terms []dsks.TermID) (dsks.ObjectID, uint64, error)
	// Remove tombstones one object, returning the same clock.
	Remove(id dsks.ObjectID) (uint64, error)
	LSN() uint64
	DurableLSN() uint64
	LiveObjects() int
	// PinnedViews counts the read views open on the backend's databases
	// (replicas included); zero whenever no request is in flight.
	PinnedViews() int
	Metrics() *dsks.MetricsRegistry
	Snapshot() dsks.MetricsSnapshot
}

// QueryView is one pinned read snapshot: the query surface a *dsks.View
// and a *shard.MultiView share.
type QueryView interface {
	Query(ctx context.Context, q dsks.Query) (dsks.Result, error)
	NetworkDistance(ctx context.Context, a, b dsks.Position) (float64, error)
	Close()
}

// versionToken is the snapshot identity the result cache keys on: the
// view's commit LSN, or a multi-view's pinned per-shard LSN vector joined.
// Two views with equal tokens serve byte-identical answers.
func versionToken(v QueryView) string {
	mv, ok := v.(*shard.MultiView)
	if !ok {
		return strconv.FormatUint(v.(*dsks.View).LSN(), 10)
	}
	var b strings.Builder
	for i, lsn := range mv.LSNs() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(lsn, 10))
	}
	return b.String()
}

// sharded is the optional backend surface of a shard set: the per-shard
// /varz and /healthz sections.
type sharded interface {
	ShardVarz() []ShardVarz
	// ShardHealth is the per-shard availability vector
	// ("primary"|"replica"|"down"), reported on /healthz and /varz.
	ShardHealth() []string
}

// ShardVarz is one shard's row in the /varz shards section.
type ShardVarz struct {
	LSN         uint64 `json:"lsn"`
	DurableLSN  uint64 `json:"durableLSN"`
	LiveObjects int    `json:"liveObjects"`
	Requests    int64  `json:"requests"`
	Errors      int64  `json:"errors"`
	// Health is the shard's failover state ("primary"|"replica"|"down");
	// Replicas lists its read replicas' applied LSNs and lag.
	Health   string              `json:"health,omitempty"`
	Replicas []shard.ReplicaVarz `json:"replicas,omitempty"`
}

// dbBackend serves one unsharded database.
type dbBackend struct{ db *dsks.DB }

func (b dbBackend) View(ctx context.Context) (QueryView, error) {
	v, err := b.db.View(ctx)
	if err != nil {
		return nil, err
	}
	return v, nil
}

// Insert acks the database's commit LSN after the mutation, preserving
// the pre-Backend wire behavior (the LSN is at least the insert's own).
func (b dbBackend) Insert(pos dsks.Position, terms []dsks.TermID) (dsks.ObjectID, uint64, error) {
	id, err := b.db.Insert(pos, terms)
	return id, b.db.LSN(), err
}

func (b dbBackend) Remove(id dsks.ObjectID) (uint64, error) {
	err := b.db.Remove(id)
	return b.db.LSN(), err
}

func (b dbBackend) LSN() uint64                    { return b.db.LSN() }
func (b dbBackend) DurableLSN() uint64             { return b.db.DurableLSN() }
func (b dbBackend) LiveObjects() int               { return b.db.LiveObjects() }
func (b dbBackend) PinnedViews() int               { return b.db.PinnedViews() }
func (b dbBackend) Metrics() *dsks.MetricsRegistry { return b.db.Metrics() }
func (b dbBackend) Snapshot() dsks.MetricsSnapshot { return b.db.Snapshot() }

// setBackend serves a sharded set through the scatter-gather router.
type setBackend struct{ set *shard.Set }

func (b setBackend) View(ctx context.Context) (QueryView, error) {
	mv, err := b.set.View(ctx)
	if err != nil {
		return nil, err
	}
	return mv, nil
}

func (b setBackend) Insert(pos dsks.Position, terms []dsks.TermID) (dsks.ObjectID, uint64, error) {
	return b.set.Insert(pos, terms)
}

func (b setBackend) Remove(id dsks.ObjectID) (uint64, error) { return b.set.Remove(id) }

// LSN is the router's mutation clock: one monotone token over the whole
// set (the per-shard LSN vector is in /varz and every query envelope).
func (b setBackend) LSN() uint64 { return b.set.Seq() }

// DurableLSN is the floor of the per-shard durable LSNs — the
// conservative scalar for display; the full vector is in ShardVarz.
func (b setBackend) DurableLSN() uint64 {
	var min uint64
	for i, lsn := range b.set.DurableLSNs() {
		if i == 0 || lsn < min {
			min = lsn
		}
	}
	return min
}

func (b setBackend) LiveObjects() int               { return b.set.LiveObjects() }
func (b setBackend) PinnedViews() int               { return b.set.PinnedViews() }
func (b setBackend) Metrics() *dsks.MetricsRegistry { return b.set.Metrics() }
func (b setBackend) Snapshot() dsks.MetricsSnapshot { return b.set.Snapshot() }

func (b setBackend) ShardVarz() []ShardVarz {
	reg := b.set.Metrics()
	out := make([]ShardVarz, b.set.Shards())
	for i := range out {
		db := b.set.DB(i)
		out[i] = ShardVarz{
			LSN:         db.LSN(),
			DurableLSN:  db.DurableLSN(),
			LiveObjects: db.LiveObjects(),
			Requests:    reg.Counter("shard" + strconv.Itoa(i) + "_requests_total").Load(),
			Errors:      reg.Counter("shard" + strconv.Itoa(i) + "_errors_total").Load(),
			Health:      b.set.ShardHealth(i),
			Replicas:    b.set.ShardReplicas(i),
		}
	}
	return out
}

func (b setBackend) ShardHealth() []string { return b.set.Health() }

// NewRouter builds a server over an N-way shard set: the same HTTP API
// as New, with queries scattered to the routed shards and merged, the
// result cache keyed by the per-shard LSN vector, a per-shard section in
// /varz, and partial results (when the set's policy allows them) served
// as 206 with per-leg error detail — never cached, neutral for the
// breaker (a single dead shard must not shed the healthy ones).
func NewRouter(set *shard.Set, cfg Config) *Server {
	return newServer(setBackend{set}, cfg)
}
