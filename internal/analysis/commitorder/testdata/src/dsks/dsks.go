// Package dsks exercises commitorder: in-order commits stay silent,
// inversions are reported, and a helper's ops arrive at its call sites
// through the package's summaries, wherever the helper is declared.
package dsks

import (
	"sync"
	"sync/atomic"

	"dsks/internal/storage"
	"dsks/internal/wal"
)

// Roots is one published version's root set.
type Roots struct {
	lsn uint64
}

// DB is the database handle.
type DB struct {
	mu    sync.Mutex
	wal   *wal.Log
	pool  *storage.BufferPool
	roots atomic.Pointer[Roots]
}

// PublishVersion installs a mutation: pages first, then the root swap.
func (db *DB) PublishVersion(b *storage.WriteBatch, next *Roots) {
	db.pool.Publish(b)
	db.roots.Store(next)
}

// InstallRoots swaps the published root set only — a startup/recovery
// primitive whose summary is just the root store.
func (db *DB) InstallRoots(next *Roots) {
	db.roots.Store(next)
}

// --- in-order commits (no diagnostics) --------------------------------

// Insert is the protocol done right: log, then publish through a helper.
func (db *DB) Insert(b *storage.WriteBatch, next *Roots, rec wal.Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, err := db.wal.Append(rec); err != nil {
		return err
	}
	db.PublishVersion(b, next)
	return nil
}

// GoodCommit performs one full mutation in protocol order.
func GoodCommit(db *DB, b *storage.WriteBatch, next *Roots, rec wal.Record) error {
	if _, err := db.wal.Append(rec); err != nil {
		return err
	}
	db.pool.Publish(b)
	db.roots.Store(next)
	return nil
}

// GoodBackToBack runs two complete commits in sequence: the second
// Append starts a fresh mutation, not an inversion.
func GoodBackToBack(db *DB, b *storage.WriteBatch, next *Roots, rec wal.Record) error {
	if err := GoodCommit(db, b, next, rec); err != nil {
		return err
	}
	return GoodCommit(db, b, next, rec)
}

// GoodThroughLaterHelper logs, then publishes through a helper declared
// further down the file.
func GoodThroughLaterHelper(db *DB, b *storage.WriteBatch, next *Roots, rec wal.Record) {
	db.wal.Append(rec)
	db.applyAt(b, next)
}

// GoodRecovery is the startup shape: install initial roots from idle,
// then replay publishes records with no Appends — each Publish starts a
// new mutation, none of it is an inversion.
func GoodRecovery(db *DB, b *storage.WriteBatch, boot, next *Roots) {
	db.InstallRoots(boot)
	db.pool.Publish(b)
	db.roots.Store(next)
	db.pool.Publish(b)
	db.roots.Store(next)
}

// GoodReplicaApply is the read replica's tail-and-apply loop: each
// shipped record re-runs the replay path — publish, then store — with no
// local Append anywhere (a replica never writes its own log), so every
// iteration is a fresh in-order mutation, not an inversion of the last.
func GoodReplicaApply(db *DB, batches []*storage.WriteBatch, next *Roots) {
	for _, b := range batches {
		db.pool.Publish(b)
		db.roots.Store(next)
	}
}

// GoodUnlogged publishes without a WAL attached: no Append, no
// violation.
func GoodUnlogged(db *DB, b *storage.WriteBatch, next *Roots) {
	db.pool.Publish(b)
	db.roots.Store(next)
}

// GoodBranches logs on one arm only: the other arm's store starts from
// the state before the if.
func GoodBranches(db *DB, b *storage.WriteBatch, next *Roots, rec wal.Record, logged bool) {
	if logged {
		db.wal.Append(rec)
		db.PublishVersion(b, next)
	} else {
		db.InstallRoots(next)
	}
}

// --- protocol violations ----------------------------------------------

// BadStoreBeforePublish makes the logged mutation's LSN reachable
// before its pages are installed.
func BadStoreBeforePublish(db *DB, b *storage.WriteBatch, next *Roots, rec wal.Record) {
	db.wal.Append(rec)
	db.roots.Store(next) // want `roots\.Store before pool\.Publish for the mutation logged at line`
	db.pool.Publish(b)
}

// BadHelperStoreEarly trips the same violation through a helper:
// InstallRoots's summary says it stores the roots.
func BadHelperStoreEarly(db *DB, b *storage.WriteBatch, next *Roots, rec wal.Record) {
	db.wal.Append(rec)
	db.InstallRoots(next) // want `roots\.Store \(via InstallRoots\) before pool\.Publish`
	db.pool.Publish(b)
}

// BadAppendAfterPublish logs a new mutation while the previous one's
// pages are published but never made visible.
func BadAppendAfterPublish(db *DB, b *storage.WriteBatch, rec wal.Record) error {
	db.pool.Publish(b)
	if _, err := db.wal.Append(rec); err != nil { // want `wal\.Append after pool\.Publish .* with no intervening roots\.Store`
		return err
	}
	return nil
}

// BadLaterHelperStoresEarly stores the roots through a helper declared
// below it, then publishes: the summary resolves regardless of order.
func BadLaterHelperStoresEarly(db *DB, b *storage.WriteBatch, next *Roots, rec wal.Record) {
	db.wal.Append(rec)
	db.swap(next) // want `roots\.Store \(via swap\) before pool\.Publish`
	db.pool.Publish(b)
}

// SuppressedStoreEarly is a real violation muted with a reasoned ignore;
// the run must report nothing here.
func SuppressedStoreEarly(db *DB, b *storage.WriteBatch, next *Roots, rec wal.Record) {
	db.wal.Append(rec)
	//lint:ignore commitorder the batch is empty: there are no pages to install
	db.roots.Store(next)
}

// applyAt reaches the publish through one more helper level.
func (db *DB) applyAt(b *storage.WriteBatch, next *Roots) {
	db.PublishVersion(b, next)
}

// swap stores the roots through one more helper level.
func (db *DB) swap(next *Roots) {
	db.InstallRoots(next)
}
