// Package dsks is a reduced stub of the real library root, just enough
// surface for the lockio analyzer to recognize the DB query and mutation
// entry points that the serving layer must never call under a latch, and
// the View query methods that must themselves stay latch-free.
package dsks

import (
	"context"
	"sync"
)

type (
	EdgeID int32
	TermID int32
	ObjectID int32
)

type Position struct {
	Edge   EdgeID
	Offset float64
}

type SKQuery struct {
	Pos      Position
	Terms    []TermID
	DeltaMax float64
}

type DivQuery struct {
	SKQuery
	K      int
	Lambda float64
}

type Candidate struct {
	ID   ObjectID
	Dist float64
}

type Result struct {
	Candidates []Candidate
}

type DB struct{}

func (db *DB) Search(ctx context.Context, q SKQuery) (Result, error) {
	_ = ctx
	_ = q
	return Result{}, nil
}

func (db *DB) SearchDiversified(ctx context.Context, q DivQuery) (Result, error) {
	_ = ctx
	_ = q
	return Result{}, nil
}

func (db *DB) Insert(pos Position, terms []TermID) (ObjectID, error) {
	_ = pos
	_ = terms
	return 0, nil
}

func (db *DB) Remove(id ObjectID) error {
	_ = id
	return nil
}

// InsertAsync is the buffered half of the insert protocol: append +
// apply + publish, no fsync wait — legal under a latch.
func (db *DB) InsertAsync(pos Position, terms []TermID) (ObjectID, uint64, error) {
	_ = pos
	_ = terms
	return 0, 1, nil
}

// WaitDurable blocks until the WAL group commit covers lsn: the
// blocking half, never legal under a latch.
func (db *DB) WaitDurable(lsn uint64) error {
	_ = lsn
	return nil
}

// WALRecord stubs the shipped log record a replica applies.
type WALRecord struct {
	LSN uint64
}

// ApplyShipped applies one shipped WAL record through the replay path.
// It takes the engine latch internally and mutates index pages, so it is
// as blocking as Insert — never legal under a caller's latch.
func (db *DB) ApplyShipped(rec WALRecord) error {
	_ = rec
	return nil
}

func (db *DB) Version() uint64 { return 0 }

// View opens a read view; it is an atomic root-set load plus an epoch
// pin, so — unlike the query entry points — it is legal under a latch.
func (db *DB) View(ctx context.Context) (*View, error) {
	_ = ctx
	return &View{db: db}, nil
}

// View is the stub of the MVCC read view: its query methods are
// latch-free by contract (they read an immutable pinned snapshot), so
// the analyzer flags any mutex acquisition inside them.
type View struct {
	db *DB
	mu sync.Mutex
	n  int
}

func (v *View) Close()      {}
func (v *View) LSN() uint64 { return 0 }

// Search is a clean view query: no latches, snapshot reads only.
func (v *View) Search(ctx context.Context, q SKQuery) (Result, error) {
	_ = ctx
	_ = q
	return Result{}, nil
}

// BadSearchDiversified latches inside a view-scoped query path: the
// mutex re-serializes readers behind whoever else grabs it, defeating
// the latch-free MVCC read contract.
func (v *View) BadSearchDiversified(ctx context.Context, q DivQuery) (Result, error) {
	v.mu.Lock() // want `lockio: Lock of v.mu inside view-scoped View.BadSearchDiversified`
	defer v.mu.Unlock()
	_ = ctx
	_ = q
	v.n++
	return Result{}, nil
}

// BadNetworkDistance read-latches the DB from a view method: even a
// shared latch makes the reader wait on a writer holding it exclusively.
func (v *View) BadNetworkDistance(dbmu *sync.RWMutex, a, b Position) float64 {
	dbmu.RLock() // want `lockio: RLock of dbmu inside view-scoped View.BadNetworkDistance`
	defer dbmu.RUnlock()
	_ = a
	_ = b
	return 0
}
