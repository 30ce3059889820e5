// Package ccam implements the connectivity-clustered access method of
// Shekhar & Liu, the disk-based road-network representation the paper
// adopts: node adjacency lists are clustered into 4KB pages by
// connectivity, each page grown breadth first from a Z-order seed over its
// nodes' neighbours. Traversal fetches pages through an LRU buffer pool,
// so an expansion along the network's edges stays on few pages. The
// memory-resident directory addresses a node's entry by (page, byte
// offset), so a lookup is one buffer-pool fetch and the decode of that
// entry alone.
package ccam

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"dsks/internal/geo"
	"dsks/internal/graph"
	"dsks/internal/storage"
)

// AdjEntry is one record of a node's adjacency list as stored on disk.
type AdjEntry struct {
	Edge   graph.EdgeID
	Other  graph.NodeID
	Length float64
	Weight float64
}

// EdgeInfo describes an edge as needed to anchor mid-edge positions during
// distance computation: its end-nodes and cost.
type EdgeInfo struct {
	N1, N2 graph.NodeID
	Length float64
	Weight float64
}

// Network is the access interface the search algorithms traverse: a node
// count, adjacency-list lookup, and edge resolution. Both the disk-resident
// File and the zero-I/O InMemory satisfy it.
type Network interface {
	NumNodes() int
	// Adjacency fetches node n's adjacency list. Disk-backed implementations
	// honor ctx: a done context aborts the page read (wrapping ctx.Err())
	// before any I/O is charged.
	Adjacency(ctx context.Context, n graph.NodeID) ([]AdjEntry, error)
	// EdgeInfo resolves an edge's end-nodes and cost. Like the node->page
	// directory, the edge directory is memory-resident metadata, so no
	// context is needed.
	EdgeInfo(e graph.EdgeID) (EdgeInfo, error)
}

// On-page encoding:
//
//	page header:  numNodes uint16
//	node entry:   nodeID uint32, degree uint16, degree × adjRecord
//	adjRecord:    edgeID uint32, other uint32, length float64, weight float64
const (
	pageHeaderSize = 2
	nodeHeaderSize = 6
	adjRecordSize  = 24
)

func nodeEntrySize(degree int) int { return nodeHeaderSize + degree*adjRecordSize }

// File is the disk-resident CCAM structure. The node directory is kept in
// memory (as in the original design, where it is small and hot) and names
// each node's entry by page and byte offset, so a lookup reads the one
// entry rather than scanning the page for it; adjacency lists live on
// pages and every lookup goes through the buffer pool. Build fills the
// directory on every open, so it has no persisted form.
type File struct {
	pool     *storage.BufferPool
	dir      []storage.PageID // node -> page holding its adjacency list
	slot     []uint16         // node -> byte offset of its entry on that page
	edges    []EdgeInfo       // edge directory (memory-resident metadata)
	numNodes int
	numPages int
}

// Build lays out g's adjacency lists into pages of the pool's file and
// returns the resulting File. Every page is a connected region of the
// network where it can be (GrowPages), so an expansion reads few pages.
func Build(g *graph.Graph, pool *storage.BufferPool) (*File, error) {
	groups, err := GrowPages(g)
	if err != nil {
		return nil, err
	}
	return writePages(g, pool, groups)
}

// zOrder returns g's nodes sorted by the Z-order code of their locations,
// ties by node ID.
func zOrder(g *graph.Graph) []graph.NodeID {
	order, codes := make([]graph.NodeID, g.NumNodes()), make([]uint64, g.NumNodes())
	for i := range order {
		order[i], codes[i] = graph.NodeID(i), geo.ZCode(g.Node(graph.NodeID(i)).Loc)
	}
	slices.SortFunc(order, func(a, b graph.NodeID) int { return cmp.Or(cmp.Compare(codes[a], codes[b]), cmp.Compare(a, b)) })
	return order
}

// GrowPages assigns every node to one page, by connectivity, and returns
// the pages' nodes in page order: Build writes group i as the file's i-th
// page, and the inverted file orders its keys by the same regions. A page
// starts at the lowest-Z node not yet placed and grows breadth first over
// unplaced neighbours, in g.Adjacent order, until the next entry does not
// fit; a region that runs dry before its page is full continues from the
// next unplaced node in Z order.
func GrowPages(g *graph.Graph) ([][]graph.NodeID, error) {
	seeds, placed := zOrder(g), make([]bool, g.NumNodes())
	var groups [][]graph.NodeID
	var queue []graph.NodeID
	size := storage.PageSize // the open page's bytes; full before the first
	for next := 0; ; {
		if len(queue) == 0 {
			for next < len(seeds) && placed[seeds[next]] {
				next++
			}
			if next == len(seeds) {
				return groups, nil
			}
			queue = append(queue, seeds[next])
		}
		nd := queue[0]
		if queue = queue[1:]; placed[nd] {
			continue
		}
		if sz := nodeEntrySize(g.Degree(nd)); size+sz <= storage.PageSize {
			placed[nd], size = true, size+sz
			groups[len(groups)-1] = append(groups[len(groups)-1], nd)
		} else if size == pageHeaderSize {
			return nil, fmt.Errorf("ccam: node %d adjacency list (%d edges) exceeds one page", nd, g.Degree(nd))
		} else { // open the next page at the lowest-Z unplaced node
			groups, queue, size = append(groups, nil), nil, pageHeaderSize
			continue
		}
		for _, eid := range g.Adjacent(nd) {
			if o := g.Edge(eid).OtherEnd(nd); !placed[o] {
				queue = append(queue, o)
			}
		}
	}
}

// writePages writes groups, one page each in order, into the pool's file
// and returns the File that addresses them.
func writePages(g *graph.Graph, pool *storage.BufferPool, groups [][]graph.NodeID) (*File, error) {
	n := g.NumNodes()
	f := &File{pool: pool, dir: make([]storage.PageID, n), slot: make([]uint16, n), numNodes: n}
	f.edges = make([]EdgeInfo, g.NumEdges())
	for i := range f.edges {
		e := g.Edge(graph.EdgeID(i))
		f.edges[i] = EdgeInfo{N1: e.N1, N2: e.N2, Length: e.Length, Weight: e.Weight}
	}
	for _, group := range groups {
		if err := f.writeGroup(g, group); err != nil {
			return nil, err
		}
	}
	if err := pool.Flush(); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *File) writeGroup(g *graph.Graph, group []graph.NodeID) error {
	page, err := f.pool.Allocate()
	if err != nil {
		return err
	}
	page.PutUint16(0, uint16(len(group)))
	off := pageHeaderSize
	for _, nd := range group {
		adj := g.Adjacent(nd)
		f.dir[nd], f.slot[nd] = page.ID(), uint16(off)
		page.PutUint32(off, uint32(nd))
		page.PutUint16(off+4, uint16(len(adj)))
		off += nodeHeaderSize
		for _, eid := range adj {
			e := g.Edge(eid)
			page.PutUint32(off, uint32(eid))
			page.PutUint32(off+4, uint32(e.OtherEnd(nd)))
			page.PutFloat64(off+8, e.Length)
			page.PutFloat64(off+16, e.Weight)
			off += adjRecordSize
		}
	}
	f.pool.MarkDirty(page.ID())
	f.numPages++
	return nil
}

// NumNodes returns the number of nodes in the network.
func (f *File) NumNodes() int { return f.numNodes }

// NumPages returns the number of pages the adjacency lists occupy.
func (f *File) NumPages() int { return f.numPages }

// SizeBytes returns the on-disk footprint of the structure.
func (f *File) SizeBytes() int64 { return int64(f.numPages) * storage.PageSize }

// Adjacency fetches node n's adjacency list from disk (through the buffer
// pool, counting a disk access on a miss). A done ctx aborts the read. An
// entry that does not carry n's ID, or whose degree runs past the page, is
// damage no checksum was on to catch: the error wraps
// storage.ErrCorruptPage.
func (f *File) Adjacency(ctx context.Context, n graph.NodeID) ([]AdjEntry, error) {
	if n < 0 || int(n) >= f.numNodes {
		return nil, fmt.Errorf("ccam: unknown node %d", n)
	}
	page, err := f.pool.GetCtx(ctx, f.dir[n])
	if err != nil {
		return nil, err
	}
	off := int(f.slot[n])
	if id := graph.NodeID(page.Uint32(off)); id != n {
		return nil, fmt.Errorf("ccam: node %d missing from its directory slot (found node %d): %w", n, id, storage.ErrCorruptPage)
	}
	deg := int(page.Uint16(off + 4))
	if off+nodeEntrySize(deg) > storage.PageSize {
		return nil, fmt.Errorf("ccam: node %d entry of degree %d runs past its page: %w", n, deg, storage.ErrCorruptPage)
	}
	off += nodeHeaderSize
	out := make([]AdjEntry, deg)
	for j := range out {
		out[j] = AdjEntry{
			Edge:   graph.EdgeID(page.Uint32(off)),
			Other:  graph.NodeID(page.Uint32(off + 4)),
			Length: page.Float64(off + 8),
			Weight: page.Float64(off + 16),
		}
		off += adjRecordSize
	}
	return out, nil
}

// EdgeInfo implements Network.
func (f *File) EdgeInfo(e graph.EdgeID) (EdgeInfo, error) {
	if e < 0 || int(e) >= len(f.edges) {
		return EdgeInfo{}, fmt.Errorf("ccam: unknown edge %d", e)
	}
	return f.edges[e], nil
}

// InMemory adapts a *graph.Graph to the Network interface with zero I/O
// cost; it is used by tests and by CPU-only distance computations.
type InMemory struct{ G *graph.Graph }

// NumNodes implements Network.
func (m InMemory) NumNodes() int { return m.G.NumNodes() }

// Adjacency implements Network. The in-memory adapter performs no I/O and
// ignores ctx.
func (m InMemory) Adjacency(_ context.Context, n graph.NodeID) ([]AdjEntry, error) {
	if n < 0 || int(n) >= m.G.NumNodes() {
		return nil, fmt.Errorf("ccam: unknown node %d", n)
	}
	adj := m.G.Adjacent(n)
	out := make([]AdjEntry, len(adj))
	for i, eid := range adj {
		e := m.G.Edge(eid)
		out[i] = AdjEntry{Edge: eid, Other: e.OtherEnd(n), Length: e.Length, Weight: e.Weight}
	}
	return out, nil
}

// EdgeInfo implements Network.
func (m InMemory) EdgeInfo(e graph.EdgeID) (EdgeInfo, error) {
	if e < 0 || int(e) >= m.G.NumEdges() {
		return EdgeInfo{}, fmt.Errorf("ccam: unknown edge %d", e)
	}
	ed := m.G.Edge(e)
	return EdgeInfo{N1: ed.N1, N2: ed.N2, Length: ed.Length, Weight: ed.Weight}, nil
}
