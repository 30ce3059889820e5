package storage

import (
	"context"
	"fmt"
)

// PageMemo is one query's page source: a PageReader over the query's
// pinned view that keeps every page the query has read and hands it back
// without going to the pool again. A B+-tree probe walks the same root and
// inner nodes, and usually the same leaf and heap page, as the probe
// before it; through the pool each of those requests can miss once the
// other in-flight queries have cycled the frames, through the memo a page
// is physically read at most once per query whatever the others evict.
//
// Holding a page past its frame's life is sound because of the page
// contract (see BufferPool): a *Page read through a pinned view is
// immutable. A memo hit is therefore the byte-identical answer the pool
// would give, it is not a pool request (no logical read is counted), and
// it still checks ctx, so a cancelled query stops on its next page
// whether that page is held or not. Misses go to the source unchanged, so
// retries, checksum verification, fault injection and the disk-read
// counters see every physical read.
//
// The memo holds at most limit pages — the engine passes the pool's own
// frame count, so a query never keeps more outside the buffer budget than
// the budget itself. Once full it stops admitting: later pages pass
// through to the source unheld. The pages admitted first are the root, the
// inner nodes and the leaves around the query point, which are the ones
// re-read most.
//
// A PageMemo belongs to one query and is not safe for concurrent use.
type PageMemo struct {
	src   PageReader
	limit int
	held  map[PageID]*Page
}

var _ PageReader = (*PageMemo)(nil)

// NewPageMemo returns an empty memo over src holding at most limit pages.
func NewPageMemo(src PageReader, limit int) *PageMemo {
	return &PageMemo{src: src, limit: limit}
}

// Held returns the number of pages the memo holds: the memory this query
// keeps outside the buffer budget, in pages.
func (m *PageMemo) Held() int { return len(m.held) }

// Get returns the page as the memo's source sees it.
func (m *PageMemo) Get(id PageID) (*Page, error) {
	return m.GetCtx(context.Background(), id)
}

// GetCtx returns the held page, or reads it through the source and holds
// it. A done ctx fails the call on a hit exactly as the pool fails it on a
// request: the returned error wraps ctx.Err().
func (m *PageMemo) GetCtx(ctx context.Context, id PageID) (*Page, error) {
	if p, ok := m.held[id]; ok {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("storage: page %d read aborted: %w", id, err)
		}
		return p, nil
	}
	p, err := m.src.GetCtx(ctx, id)
	if err != nil {
		return nil, err
	}
	if len(m.held) < m.limit {
		if m.held == nil {
			m.held = make(map[PageID]*Page, min(m.limit, 16))
		}
		m.held[id] = p
	}
	return p, nil
}
