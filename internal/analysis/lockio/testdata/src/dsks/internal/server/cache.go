// Package server stubs the serving layer's result cache: a mutex-guarded
// map filled from dsks.DB queries. Holding the cache latch across a query
// stalls every concurrent request behind one network expansion.
package server

import (
	"context"
	"sync"

	"dsks"
)

type cache struct {
	mu      sync.Mutex
	db      *dsks.DB
	entries map[string][]byte
}

// BadFill runs the query while the cache latch is held: every other
// request blocks on mu for the full duration of the search.
func (c *cache) BadFill(ctx context.Context, key string, q dsks.DivQuery) (dsks.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return dsks.Result{}, nil
	}
	res, err := c.db.SearchDiversified(ctx, q) // want `lockio: database SearchDiversified call while c.mu is held`
	if err != nil {
		return dsks.Result{}, err
	}
	c.entries[key] = nil
	return res, nil
}

// BadLookup shows the one-signature query methods are classified like the
// old ...Ctx pairs were: DB.Search(ctx, q) opens a view and runs the whole
// expansion, so it is just as blocking under the latch.
func (c *cache) BadLookup(ctx context.Context, q dsks.SKQuery) (dsks.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.db.Search(ctx, q) // want `lockio: database Search call while c.mu is held`
}

// BadInsert mutates the database under the cache latch; Insert takes the
// DB write latch and runs index I/O, so this is just as blocking.
func (c *cache) BadInsert(pos dsks.Position, terms []dsks.TermID) (dsks.ObjectID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.entries)
	return c.db.Insert(pos, terms) // want `lockio: database Insert call while c.mu is held`
}

// GoodFill checks the cache under the latch, releases it for the query,
// and re-acquires it to store the result.
func (c *cache) GoodFill(ctx context.Context, key string, q dsks.DivQuery) (dsks.Result, error) {
	c.mu.Lock()
	_, ok := c.entries[key]
	c.mu.Unlock()
	if ok {
		return dsks.Result{}, nil
	}
	res, err := c.db.SearchDiversified(ctx, q)
	if err != nil {
		return dsks.Result{}, err
	}
	c.mu.Lock()
	c.entries[key] = nil
	c.mu.Unlock()
	return res, nil
}

// Version is a plain accessor, not a query entry point: clean under the
// latch.
func (c *cache) staleness(have uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.db.Version() != have
}

// BadViewFill holds the cache latch across a view query: the view itself
// never blocks on writers, but every other request still piles up on mu
// for the query's full duration.
func (c *cache) BadViewFill(ctx context.Context, key string, v *dsks.View, q dsks.SKQuery) (dsks.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return dsks.Result{}, nil
	}
	res, err := v.Search(ctx, q) // want `lockio: view Search query while c.mu is held`
	if err != nil {
		return dsks.Result{}, err
	}
	c.entries[key] = nil
	return res, nil
}

// GoodViewFill opens the view under the latch (legal: an atomic load
// plus an epoch pin), releases the latch for the query, and re-acquires
// it to store the result.
func (c *cache) GoodViewFill(ctx context.Context, key string, q dsks.SKQuery) (dsks.Result, error) {
	c.mu.Lock()
	_, ok := c.entries[key]
	v, err := c.db.View(ctx)
	c.mu.Unlock()
	if err != nil || ok {
		return dsks.Result{}, err
	}
	defer v.Close()
	res, err := v.Search(ctx, q)
	if err != nil {
		return dsks.Result{}, err
	}
	c.mu.Lock()
	c.entries[key] = nil
	c.mu.Unlock()
	return res, nil
}
