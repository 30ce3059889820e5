package invindex

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"dsks/internal/btree"
	"dsks/internal/ccam"
	"dsks/internal/core"
	"dsks/internal/dataset"
	"dsks/internal/geo"
	"dsks/internal/graph"
	"dsks/internal/index"
	"dsks/internal/obj"
	"dsks/internal/storage"
)

// zCellPostingSize is the reference layout's record: object uint32, edge
// uint32, offset float64.
const zCellPostingSize = 16

// zCellIndex is the layout Build wrote before every key named one edge,
// kept as the reference the served layout must read no more pages than:
// a term's postings on the edges whose centres share a Z-cell are one list
// under the cell's key (the paper's key), sorted by (edge, offset,
// object), and each 16-byte record names its edge. A list of more than
// btree.MaxValueSize bytes lives in an overflow heap, appended at its tail
// and started on a fresh page when it does not fit the rest of the last.
type zCellIndex struct {
	g    *graph.Graph
	pool *storage.BufferPool
	tree btree.Meta
}

func buildZCell(g *graph.Graph, c *obj.Collection, pool *storage.BufferPool) (*zCellIndex, error) {
	type rec struct {
		key    uint64
		e      graph.EdgeID
		offset float64
		id     obj.ID
	}
	var recs []rec
	for _, e := range c.Edges() {
		cell := geo.ZCode(g.EdgeCenter(e))
		for _, id := range c.OnEdge(e) {
			o := c.Get(id)
			for _, t := range o.Terms {
				recs = append(recs, rec{edgeKey(t, cell), e, o.Pos.Offset, id})
			}
		}
	}
	slices.SortFunc(recs, func(a, b rec) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.e, b.e), cmp.Compare(a.offset, b.offset), cmp.Compare(a.id, b.id))
	})

	heapPage, heapOff := storage.InvalidPageID, storage.PageSize
	newHeapPage := func() error {
		page, err := pool.Allocate()
		heapPage, heapOff = page.ID(), 0
		return err
	}
	var entries []btree.Entry
	for start := 0; start < len(recs); {
		end := start + 1
		for end < len(recs) && recs[end].key == recs[start].key {
			end++
		}
		value := make([]byte, 0, (end-start)*zCellPostingSize)
		for _, r := range recs[start:end] {
			value = binary.LittleEndian.AppendUint32(value, uint32(r.id))
			value = binary.LittleEndian.AppendUint32(value, uint32(r.e))
			value = binary.LittleEndian.AppendUint64(value, math.Float64bits(r.offset))
		}
		if len(value) > btree.MaxValueSize {
			if end-start > (storage.PageSize-heapOff)/zCellPostingSize {
				if err := newHeapPage(); err != nil {
					return nil, err
				}
			}
			ref := packListRef(heapPage, heapOff, end-start)
			for rest := value; len(rest) > 0; {
				if heapOff == storage.PageSize {
					if err := newHeapPage(); err != nil {
						return nil, err
					}
				}
				page, err := pool.Get(heapPage)
				if err != nil {
					return nil, err
				}
				k := copy(page.Data()[heapOff:], rest)
				pool.MarkDirty(heapPage)
				heapOff += k
				rest = rest[k:]
			}
			value = binary.LittleEndian.AppendUint64(nil, ref)
		}
		entries = append(entries, btree.Entry{Key: recs[start].key, Value: value})
		start = end
	}
	tree, err := btree.BulkLoad(pool, entries)
	if err != nil {
		return nil, err
	}
	return &zCellIndex{g: g, pool: pool, tree: tree.Meta()}, pool.Flush()
}

// LoadObjects implements index.Loader as Loader does, in query order: the
// objects on e that hold every term, by ascending ID.
func (z *zCellIndex) LoadObjects(ctx context.Context, e graph.EdgeID, terms []obj.TermID) ([]index.ObjectRef, error) {
	cell := geo.ZCode(z.g.EdgeCenter(e))
	var inter []index.ObjectRef
	for i, t := range terms {
		v, err := btree.GetAt(ctx, z.pool, z.tree, edgeKey(t, cell))
		if errors.Is(err, btree.ErrNotFound) {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		if len(v) == overflowRefSize {
			pageID, off, count := unpackListRef(binary.LittleEndian.Uint64(v))
			v = nil
			for ; count > 0; pageID, off = pageID+1, 0 {
				page, err := z.pool.GetCtx(ctx, pageID)
				if err != nil {
					return nil, err
				}
				k := min(count, (storage.PageSize-off)/zCellPostingSize)
				v = append(v, page.Data()[off:off+k*zCellPostingSize]...)
				count -= k
			}
		}
		var refs []index.ObjectRef
		for ; len(v) >= zCellPostingSize; v = v[zCellPostingSize:] {
			if graph.EdgeID(binary.LittleEndian.Uint32(v[4:])) == e {
				refs = append(refs, index.ObjectRef{
					ID:     obj.ID(binary.LittleEndian.Uint32(v)),
					Edge:   e,
					Offset: math.Float64frombits(binary.LittleEndian.Uint64(v[8:])),
				})
			}
		}
		slices.SortFunc(refs, func(a, b index.ObjectRef) int { return cmp.Compare(a.ID, b.ID) })
		if i > 0 {
			refs = slices.DeleteFunc(refs, func(r index.ObjectRef) bool {
				_, found := slices.BinarySearchFunc(inter, r.ID, func(a index.ObjectRef, id obj.ID) int { return cmp.Compare(a.ID, id) })
				return !found
			})
		}
		if inter = refs; len(inter) == 0 {
			return nil, nil
		}
	}
	return inter, nil
}

// TestRankedKeysReadNoMoreIndexPages is the count verdict for the key
// order and the compact record: 200 seeded boolean queries, each from an
// empty index pool as a cold query's would be, miss no more index pages
// over the served layout than over the Z-cell reference, on the sparse NA
// network and on the denser TW one, and both layouts answer every query
// alike.
func TestRankedKeysReadNoMoreIndexPages(t *testing.T) {
	ctx := context.Background()
	for _, p := range []struct {
		preset dataset.Preset
		scale  int
	}{{dataset.PresetNA, 200}, {dataset.PresetTW, 200}} {
		ds, err := dataset.GeneratePreset(p.preset, p.scale, 7)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{NumQueries: 200, Keywords: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		g := ds.Graph
		servedPool := storage.NewBufferPool(storage.NewPageFile(), 1<<10, &storage.IOStats{})
		idx, err := Build(g, ds.Objects, ds.VocabSize, servedPool)
		if err != nil {
			t.Fatal(err)
		}
		refPool := storage.NewBufferPool(storage.NewPageFile(), 1<<10, &storage.IOStats{})
		ref, err := buildZCell(g, ds.Objects, refPool)
		if err != nil {
			t.Fatal(err)
		}
		sides := []struct {
			pool   *storage.BufferPool
			loader index.Loader
		}{{servedPool, &Loader{Idx: idx, Coder: GraphZCoder{G: g}}}, {refPool, ref}}
		var misses [2]int64
		found := 0
		for i, w := range ws {
			q := core.SKQuery{Pos: w.Pos, Terms: w.Terms, DeltaMax: w.DeltaMax}
			var answers [2][]core.Candidate
			for j, side := range sides {
				if err := side.pool.DropAll(); err != nil {
					t.Fatal(err)
				}
				before := side.pool.Stats().DiskRead.Load()
				res, err := core.Run(ctx, ccam.InMemory{G: g}, side.loader, q)
				if err != nil {
					t.Fatal(err)
				}
				misses[j] += side.pool.Stats().DiskRead.Load() - before
				answers[j] = res.Candidates
			}
			if !reflect.DeepEqual(answers[0], answers[1]) {
				t.Fatalf("%s/%d query %d: served %v, Z-cell %v", p.preset, p.scale, i, answers[0], answers[1])
			}
			found += len(answers[0])
		}
		t.Logf("%s/%d: %d candidates; index pages missed over %d queries: served %d, Z-cell %d",
			p.preset, p.scale, found, len(ws), misses[0], misses[1])
		if found == 0 {
			t.Fatalf("%s/%d: no query found anything; the answers compare nothing", p.preset, p.scale)
		}
		if misses[0] > misses[1] {
			t.Errorf("%s/%d: the served layout missed %d index pages, the Z-cell reference %d", p.preset, p.scale, misses[0], misses[1])
		}
	}
}
