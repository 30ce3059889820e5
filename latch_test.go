package dsks

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dsks/internal/wal"
)

// The tests in this file pin the database latch's discipline: readers
// never take db.mu, and no fsync or page read of the durability and
// snapshot paths runs while it is held.

// onOp is a storage.Injector that only watches the operations of a page
// or log file.
type onOp func(op string)

func (f onOp) BeforeOp(op string, _ uint32) error { f(op); return nil }
func (onOp) CorruptRead(uint32, []byte) bool      { return false }
func (onOp) WriteLimit(_ uint32, size int) int    { return size }

// latchProbe records the first time db.mu was not free when an I/O
// began, and how many I/Os it saw.
type latchProbe struct {
	db *DB

	mu   sync.Mutex
	seen int
	held string
}

// check waits for db.mu to be free, for at most 5 s. A holder that is not
// waiting on this I/O lets go within microseconds (a mutator applying its
// record while the group commit starts an fsync); one that waits on it
// never does.
func (p *latchProbe) check(what string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seen++
	if p.held != "" {
		return
	}
	for deadline := time.Now().Add(5 * time.Second); !p.db.mu.TryLock(); {
		if time.Now().After(deadline) {
			p.held = what
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
	p.db.mu.Unlock()
}

func (p *latchProbe) verdict(t *testing.T, what string) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.seen == 0 {
		t.Fatalf("no %s was observed", what)
	}
	if p.held != "" {
		t.Fatalf("%s ran with db.mu held", p.held)
	}
}

// TestViewQueriesRunUnderTheWriteLatch: a writer parked holding db.mu
// blocks no reader. A view opens and runs every query family, both
// streams and NetworkDistance; 10 s is only the failure bound.
func TestViewQueriesRunUnderTheWriteLatch(t *testing.T) {
	g, objects, vocab, origin, edges := walBase(t)
	db, err := Open(g, objects, vocab.Size(), Options{Index: IndexSIF})
	if err != nil {
		t.Fatal(err)
	}
	CheckNoPins(t, db)
	terms, err := vocab.LookupAll([]string{"pizza", "wine"})
	if err != nil {
		t.Fatal(err)
	}

	db.mu.Lock()
	done := make(chan error, 1)
	go func() { done <- everyViewQuery(db, origin, Position{Edge: edges[2], Offset: 50}, terms) }()
	select {
	case err := <-done:
		db.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		db.mu.Unlock()
		<-done
		t.Fatal("a view query waited on the write latch")
	}
}

// everyViewQuery opens a view and runs each of its query methods once.
func everyViewQuery(db *DB, origin, far Position, terms []TermID) error {
	ctx := context.Background()
	v, err := db.View(ctx)
	if err != nil {
		return err
	}
	defer v.Close()
	sk := SKQuery{Pos: origin, Terms: terms[:1], DeltaMax: 1000}
	for name, run := range map[string]func() (Result, error){
		"search":      func() (Result, error) { return v.Query(ctx, sk) },
		"diversified": func() (Result, error) { return v.Query(ctx, DivQuery{SKQuery: sk, K: 2, Lambda: 0.5}) },
		"knn":         func() (Result, error) { return v.Query(ctx, KNNQuery{Pos: origin, Terms: sk.Terms, K: 2}) },
		"ranked": func() (Result, error) {
			return v.Query(ctx, RankedQuery{Pos: origin, Terms: terms, K: 2, Alpha: 0.5, DeltaMax: 1000})
		},
		"collective": func() (Result, error) {
			return v.Query(ctx, CollectiveQuery{Pos: origin, Terms: terms, DeltaMax: 1000})
		},
	} {
		if _, err := run(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	for name, open := range map[string]func() (*Stream, error){
		"stream":    func() (*Stream, error) { return v.Stream(ctx, sk) },
		"streamAny": func() (*Stream, error) { return v.StreamAny(ctx, SKQuery{Pos: origin, Terms: terms, DeltaMax: 1000}) },
	} {
		s, err := open()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for {
			_, ok, err := s.Next()
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if !ok {
				break
			}
		}
	}
	if _, err := v.NetworkDistance(ctx, origin, far); err != nil {
		return fmt.Errorf("network distance: %w", err)
	}
	return nil
}

// TestFsyncsRunWithTheLatchFree: every WAL fsync of Insert and Remove,
// and the checkpoint of SaveTo, starts with db.mu free. A mutator that
// waited for durability, or a SaveTo that checkpointed, under the latch
// would hold it across the fsync.
func TestFsyncsRunWithTheLatchFree(t *testing.T) {
	dir := t.TempDir()
	g, objects, vocab, _, edges := walBase(t)
	db, err := Open(g, objects, vocab.Size(), Options{Index: IndexSIF, WALDir: filepath.Join(dir, "wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	wine, err := vocab.LookupAll([]string{"wine"})
	if err != nil {
		t.Fatal(err)
	}

	syncs := &latchProbe{db: db}
	db.wal.SetInjector(onOp(func(op string) {
		if op == "sync" {
			syncs.check("a WAL fsync")
		}
	}))
	checkpoints := &latchProbe{db: db}
	wal.CrashHook = func(point string) error {
		if point == "checkpoint-start" {
			checkpoints.check("the WAL checkpoint")
		}
		return nil
	}
	defer func() { wal.CrashHook = nil }()

	var ids []ObjectID
	for i := 0; i < 4; i++ {
		id, err := db.Insert(Position{Edge: edges[i%len(edges)], Offset: 40}, wine)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := db.Remove(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveTo(filepath.Join(dir, "snap")); err != nil {
		t.Fatal(err)
	}
	syncs.verdict(t, "WAL fsync")
	checkpoints.verdict(t, "WAL checkpoint")
}

// TestOracleSerializedWithTheLatchFree: SaveTo reads the landmark
// oracle's pages with db.mu free. The pools start cold, so serializing
// the oracle reads its file.
func TestOracleSerializedWithTheLatchFree(t *testing.T) {
	g, objects, vocab, _, _ := walBase(t)
	db, err := Open(g, objects, vocab.Size(), Options{Index: IndexSIF, Oracle: true, Landmarks: 2, OracleSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ResetIO(); err != nil {
		t.Fatal(err)
	}
	pools := db.eng.Pools()
	reads := &latchProbe{db: db}
	pools[len(pools)-1].File().SetInjector(onOp(func(op string) {
		if op == "read" {
			reads.check("an oracle page read")
		}
	}))
	if err := db.SaveTo(filepath.Join(t.TempDir(), "snap")); err != nil {
		t.Fatal(err)
	}
	reads.verdict(t, "oracle page read")
}
