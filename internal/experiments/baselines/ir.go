package baselines

import (
	"context"
	"fmt"
	"sort"

	"dsks/internal/geo"
	"dsks/internal/graph"
	"dsks/internal/index"
	"dsks/internal/obj"
	"dsks/internal/rtree"
	"dsks/internal/storage"
)

// Object table record: edge uint32, offset float64 (12 bytes).
const (
	recordSize     = 12
	recordsPerPage = storage.PageSize / recordSize
)

// InvertedRTree is the Inverted R-tree baseline (IR) of the paper's
// evaluation: one R-tree per keyword over the object locations, the
// natural extension of the INE object lookup of Papadias et al. to keyword
// search. Because the trees are built in Euclidean space, independent of
// the road network, retrieving the objects lying on an edge requires a
// spatial range query with the edge's MBR on every query keyword's tree,
// and every candidate the query returns must then be verified against the
// object table (a disk-resident record fetch) to learn which edge it
// actually lies on — which is exactly why the paper reports IR to be
// several times slower than the network-aware inverted file. Rare
// keywords (few objects) still get a tree; its single page mirrors a
// one-page inverted list.
type InvertedRTree struct {
	g     *graph.Graph
	trees map[obj.TermID]*rtree.Tree
	pool  *storage.BufferPool

	tablePages []storage.PageID // object table: id/recordsPerPage -> page
	numObjects int
	size       int64
}

// BuildIR bulk-loads the per-keyword R-trees and the object table for all
// objects in c.
func BuildIR(g *graph.Graph, c *obj.Collection, vocabSize int, pool *storage.BufferPool) (*InvertedRTree, error) {
	idx := &InvertedRTree{
		g:          g,
		trees:      make(map[obj.TermID]*rtree.Tree),
		pool:       pool,
		numObjects: c.Len(),
	}

	// Object table, in object-ID order.
	for start := 0; start < c.Len(); start += recordsPerPage {
		page, err := pool.Allocate()
		if err != nil {
			return nil, err
		}
		end := start + recordsPerPage
		if end > c.Len() {
			end = c.Len()
		}
		off := 0
		for i := start; i < end; i++ {
			o := c.Get(obj.ID(i))
			page.PutUint32(off, uint32(o.Pos.Edge))
			page.PutFloat64(off+4, o.Pos.Offset)
			off += recordSize
		}
		pool.MarkDirty(page.ID())
		idx.tablePages = append(idx.tablePages, page.ID())
	}
	idx.size = int64(len(idx.tablePages)) * storage.PageSize

	// Per-keyword R-trees over the object locations.
	perTerm := make(map[obj.TermID][]rtree.Entry)
	for _, e := range c.Edges() {
		for _, id := range c.OnEdge(e) {
			o := c.Get(id)
			loc := g.Location(o.Pos)
			ent := rtree.Entry{Rect: geo.RectOf(loc, loc), Ref: uint64(id)}
			for _, t := range o.Terms {
				if int(t) >= vocabSize {
					return nil, fmt.Errorf("IR: term %d outside vocabulary of %d", t, vocabSize)
				}
				perTerm[t] = append(perTerm[t], ent)
			}
		}
	}
	terms := make([]obj.TermID, 0, len(perTerm))
	for t := range perTerm {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i] < terms[j] })
	for _, t := range terms {
		tr, err := rtree.BulkLoad(pool, perTerm[t])
		if err != nil {
			return nil, err
		}
		idx.trees[t] = tr
		idx.size += tr.SizeBytes()
	}
	if err := pool.Flush(); err != nil {
		return nil, err
	}
	return idx, nil
}

// fetchRecord reads an object's (edge, offset) from the disk-resident
// object table.
func (idx *InvertedRTree) fetchRecord(ctx context.Context, id obj.ID) (graph.EdgeID, float64, error) {
	if id < 0 || int(id) >= idx.numObjects {
		return 0, 0, fmt.Errorf("IR: unknown object %d", id)
	}
	page, err := idx.pool.GetCtx(ctx, idx.tablePages[int(id)/recordsPerPage])
	if err != nil {
		return 0, 0, err
	}
	off := (int(id) % recordsPerPage) * recordSize
	return graph.EdgeID(page.Uint32(off)), page.Float64(off + 4), nil
}

// LoadObjects implements index.Loader: every query keyword's R-tree is
// probed with the edge's MBR; each Euclidean candidate is verified against
// the object table (one record fetch) to keep only the objects that
// actually lie on the edge, then the per-keyword results are intersected
// with AND semantics.
func (idx *InvertedRTree) LoadObjects(ctx context.Context, e graph.EdgeID, terms []obj.TermID) ([]index.ObjectRef, error) {
	if len(terms) == 0 {
		return nil, nil
	}
	mbr := idx.g.EdgeMBR(e)
	var inter map[obj.ID]index.ObjectRef
	for i, t := range terms {
		tr, ok := idx.trees[t]
		if !ok {
			return nil, nil
		}
		var candidates []obj.ID
		err := tr.SearchCtx(ctx, mbr, func(ent rtree.Entry) bool {
			candidates = append(candidates, obj.ID(ent.Ref))
			return true
		})
		if err != nil {
			return nil, err
		}
		found := make(map[obj.ID]index.ObjectRef)
		for _, id := range candidates {
			oe, off, err := idx.fetchRecord(ctx, id)
			if err != nil {
				return nil, err
			}
			if oe == e {
				found[id] = index.ObjectRef{ID: id, Edge: e, Offset: off}
			}
		}
		if len(found) == 0 {
			return nil, nil
		}
		if i == 0 {
			inter = found
			continue
		}
		for oid := range inter {
			if _, ok := found[oid]; !ok {
				delete(inter, oid)
			}
		}
		if len(inter) == 0 {
			return nil, nil
		}
	}
	out := make([]index.ObjectRef, 0, len(inter))
	for _, r := range inter {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// SizeBytes implements index.Sizer.
func (idx *InvertedRTree) SizeBytes() int64 { return idx.size }

// NumTrees returns the number of per-keyword trees.
func (idx *InvertedRTree) NumTrees() int { return len(idx.trees) }
