package server

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Query-result cache: an LRU over serialized responses, keyed by the
// canonical encoding of the query and versioned by the opaque version
// token of the read view the response was computed against — the commit
// LSN of a single database, or the joined per-shard LSN vector of a
// shard set. Because each request runs
// entirely inside one pinned MVCC view, a cached body is *exactly* the
// answer the database gives at that LSN — not merely conservatively
// fresh: the view the handler opens fixes the snapshot before the cache
// lookup, the query, and the store, so a mutation landing mid-query
// publishes a higher token and simply bypasses the entry. Lookups at a
// different token evict the entry and count as misses, which is the
// invalidation rule: Insert/Remove publish new LSNs, so post-mutation
// queries can never be answered from pre-mutation state.
//
// Locking discipline: the cache mutex guards only the map and list, and
// is taken only inside get, put and len, none of which calls out. So no
// caller can hold it across a view query; the handler flow is
// get → query → put.

// cacheEntry is one cached response body.
type cacheEntry struct {
	key     string
	version string
	body    []byte
}

// resultCache is a mutex-guarded LRU. Capacity 0 disables storage (every
// lookup misses) while keeping the counters live.
type resultCache struct {
	hits   *atomic.Int64
	misses *atomic.Int64
	stale  *atomic.Int64

	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent
	byKey map[string]*list.Element
}

// newResultCache builds a cache of at most capacity entries, reporting
// hit/miss/stale counts through the given counters.
func newResultCache(capacity int, hits, misses, stale *atomic.Int64) *resultCache {
	if capacity < 0 {
		capacity = 0
	}
	return &resultCache{
		hits:   hits,
		misses: misses,
		stale:  stale,
		cap:    capacity,
		ll:     list.New(),
		byKey:  make(map[string]*list.Element, capacity),
	}
}

// get returns the cached body for key if it was computed at the given
// version token. An entry from a different token is evicted and the
// lookup counts as a (stale) miss.
func (c *resultCache) get(key string, version string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.version != version {
		c.ll.Remove(el)
		delete(c.byKey, key)
		c.stale.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return ent.body, true
}

// put stores a response body computed at the given version token,
// evicting the least-recently-used entry beyond capacity.
func (c *resultCache) put(key string, version string, body []byte) {
	if c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.version, ent.body = version, body
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, version: version, body: body})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.byKey, back.Value.(*cacheEntry).key)
	}
}

// len reports the resident entries (for /varz).
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
