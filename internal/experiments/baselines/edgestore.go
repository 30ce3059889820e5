package baselines

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"dsks/internal/graph"
	"dsks/internal/index"
	"dsks/internal/obj"
	"dsks/internal/storage"
)

// On-page layout (per edge, a chain of pages):
//
//	page header: next uint32, count uint16
//	object:      id uint32, offset float64, nterms uint16, nterms × uint32
const (
	pageHeader = 6
	objHeader  = 14
)

// EdgeStore is the C1 baseline of the paper's performance analysis
// (Section 3.2): spatio-textual objects stored directly with their edges
// in the road-network style of storage, with no inverted structure at all.
// Every visited edge loads *all* of its objects — term lists included —
// before the keyword constraint can be tested, which is the behaviour the
// paper's introduction calls out as the reason to adopt inverted indexing
// (expected loads C1 = l_e·m vs C2 and C3). The layout is a page chain
// per edge holding its objects with full term lists, plus a
// memory-resident edge→chain directory.
type EdgeStore struct {
	pool  *storage.BufferPool
	heads map[graph.EdgeID]storage.PageID
	pages int
	// scanned counts every object record decoded at query time — the C1
	// of the paper's expected-load analysis.
	scanned atomic.Int64
}

// BuildEdgeStore lays the collection out edge by edge.
func BuildEdgeStore(c *obj.Collection, vocabSize int, pool *storage.BufferPool) (*EdgeStore, error) {
	s := &EdgeStore{pool: pool, heads: make(map[graph.EdgeID]storage.PageID)}
	for _, e := range c.Edges() {
		ids := c.OnEdge(e)
		head, err := s.writeEdge(c, ids, vocabSize)
		if err != nil {
			return nil, err
		}
		s.heads[e] = head
	}
	if err := pool.Flush(); err != nil {
		return nil, err
	}
	return s, nil
}

func objSize(o *obj.Object) int { return objHeader + 4*len(o.Terms) }

func (s *EdgeStore) writeEdge(c *obj.Collection, ids []obj.ID, vocabSize int) (storage.PageID, error) {
	var head, prev storage.PageID = storage.InvalidPageID, storage.InvalidPageID
	i := 0
	for i < len(ids) {
		page, err := s.pool.Allocate()
		if err != nil {
			return storage.InvalidPageID, err
		}
		s.pages++
		id := page.ID()
		page.PutUint32(0, uint32(storage.InvalidPageID))
		off := pageHeader
		count := 0
		for i < len(ids) {
			o := c.Get(ids[i])
			for _, t := range o.Terms {
				if int(t) >= vocabSize {
					return storage.InvalidPageID, fmt.Errorf("C1: term %d outside vocabulary of %d", t, vocabSize)
				}
			}
			sz := objSize(o)
			if off+sz > storage.PageSize {
				if count == 0 {
					return storage.InvalidPageID, fmt.Errorf("C1: object %d (%d terms) exceeds one page", o.ID, len(o.Terms))
				}
				break
			}
			page.PutUint32(off, uint32(o.ID))
			page.PutFloat64(off+4, o.Pos.Offset)
			page.PutUint16(off+12, uint16(len(o.Terms)))
			off += objHeader
			for _, t := range o.Terms {
				page.PutUint32(off, uint32(t))
				off += 4
			}
			count++
			i++
		}
		page.PutUint16(4, uint16(count))
		s.pool.MarkDirty(id)
		if head == storage.InvalidPageID {
			head = id
		} else {
			pp, err := s.pool.Get(prev)
			if err != nil {
				return storage.InvalidPageID, err
			}
			pp.PutUint32(0, uint32(id))
			s.pool.MarkDirty(prev)
		}
		prev = id
	}
	return head, nil
}

// LoadObjects implements index.Loader: every object of the edge is read
// from disk (the C1 cost), then filtered by the AND keyword constraint.
func (s *EdgeStore) LoadObjects(ctx context.Context, e graph.EdgeID, terms []obj.TermID) ([]index.ObjectRef, error) {
	if len(terms) == 0 {
		return nil, nil
	}
	head, ok := s.heads[e]
	if !ok {
		return nil, nil
	}
	var out []index.ObjectRef
	for id := head; id != storage.InvalidPageID; {
		page, err := s.pool.GetCtx(ctx, id)
		if err != nil {
			return nil, err
		}
		next := storage.PageID(page.Uint32(0))
		count := int(page.Uint16(4))
		off := pageHeader
		s.scanned.Add(int64(count))
		for i := 0; i < count; i++ {
			oid := obj.ID(page.Uint32(off))
			offset := page.Float64(off + 4)
			nt := int(page.Uint16(off + 12))
			off += objHeader
			ts := make([]obj.TermID, nt)
			for j := 0; j < nt; j++ {
				ts[j] = obj.TermID(page.Uint32(off))
				off += 4
			}
			o := obj.Object{ID: oid, Terms: ts}
			if o.HasAllTerms(terms) {
				out = append(out, index.ObjectRef{ID: oid, Edge: e, Offset: offset})
			}
		}
		id = next
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// ObjectsScanned returns how many object records queries have decoded.
func (s *EdgeStore) ObjectsScanned() int64 { return s.scanned.Load() }

// ResetScanned zeroes the scan counter.
func (s *EdgeStore) ResetScanned() { s.scanned.Store(0) }

// SizeBytes implements index.Sizer.
func (s *EdgeStore) SizeBytes() int64 { return int64(s.pages) * storage.PageSize }

// NumPages returns the page count.
func (s *EdgeStore) NumPages() int { return s.pages }
