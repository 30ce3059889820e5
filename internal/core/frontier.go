package core

import (
	"context"

	"dsks/internal/ccam"
	"dsks/internal/graph"
	"dsks/internal/minheap"
)

// frontier is the one traversal kernel over the disk-resident network:
// the best-first expansion of Algorithm 3, which every search in this
// package configures rather than re-implements. A run varies in three
// things and nothing else:
//
//   - limit: a tentative distance beyond it is never labeled. The object
//     searches set DeltaMax, the distance engine its 2·DeltaMax bound, and
//     A* tightens it as its best answer improves.
//   - pot: nil orders the heap by distance (Dijkstra), a potential by
//     distance + potential (A*). A label that improves is queued again
//     even if its node has settled, so a potential off by floating-point
//     slack costs a re-expansion, never exactness; without a potential no
//     settled label can improve.
//   - the caller's work per settled node, done between peek and settle.
//
// The heap orders by (key, node ID), so the settle order is a function of
// the labels alone. One frontier serves every run of a query: start
// resets the heap and the label table and keeps their storage.
//
// The adjacency list of a settled node is remembered until the query ends,
// so a query that settles the same node in a thousand short runs fetches
// and decodes it once. The view a query runs on is immutable, which keeps
// a remembered list valid; a page miss still happens on the first fetch,
// so only the buffer pool's logical reads fall.
type frontier struct {
	ctx context.Context
	net ccam.Network

	limit float64
	pot   func(graph.NodeID) (float64, error)

	heap     minheap.Heap[float64] // key g+pot(node), ID node, Val g
	labels   []label               // in first-touch order
	index    nodeTable             // node -> position in labels
	settledN int64                 // distinct nodes settled by this run

	adjs  [][]ccam.AdjEntry // every list this query fetched
	adjOf nodeTable         // node -> position in adjs; start keeps it
}

// label is the best-known distance of one touched node (16 bytes: the
// distance engine caches a run's labels as the source's distance table).
type label struct {
	node    graph.NodeID
	settled bool
	g       float64
}

func newFrontier(ctx context.Context, net ccam.Network) *frontier {
	return &frontier{ctx: ctx, net: net}
}

// start begins a run from position p: it drops the previous run's labels,
// seeds the two end-nodes of p's edge, and returns the edge together with
// the traversal cost from its reference node to p.
func (f *frontier) start(p graph.Position, limit float64, pot func(graph.NodeID) (float64, error)) (ccam.EdgeInfo, float64, error) {
	f.heap.Reset()
	f.labels = f.labels[:0]
	f.index.reset()
	f.settledN = 0
	f.limit, f.pot = limit, pot
	info, err := f.net.EdgeInfo(p.Edge)
	if err != nil {
		return info, 0, err
	}
	w1 := offsetCost(info.Weight, info.Length, p.Offset)
	if err := f.relax(info.N1, w1); err != nil {
		return info, 0, err
	}
	return info, w1, f.relax(info.N2, info.Weight-w1)
}

// relax offers node n the tentative distance g.
func (f *frontier) relax(n graph.NodeID, g float64) error {
	if g > f.limit {
		return nil
	}
	i, seen := f.index.get(n)
	if seen && g >= f.labels[i].g {
		return nil
	}
	key := g
	if f.pot != nil {
		p, err := f.pot(n)
		if err != nil {
			return err
		}
		key += p
	}
	if seen {
		f.labels[i].g = g
	} else {
		f.index.put(n, int32(len(f.labels)))
		f.labels = append(f.labels, label{node: n, g: g})
	}
	f.heap.Push(key, int32(n), g)
	return nil
}

// peek returns the heap entry (Key g+pot, ID node, Val g) of the node
// settle would take next, or false when the run is exhausted; entries
// superseded by a better label are dropped on the way.
func (f *frontier) peek() (minheap.Entry[float64], bool) {
	for f.heap.Len() > 0 {
		top := f.heap.Min()
		if i, _ := f.index.get(graph.NodeID(top.ID)); top.Val == f.labels[i].g {
			return top, true
		}
		f.heap.Pop()
	}
	return minheap.Entry[float64]{}, false
}

// settle takes the node peek announced: it fetches the node's adjacency
// list unless the query already has it, relaxes the neighbors, and hands
// node, distance and list to the caller. This is the only place a
// traversal checks its context and reads the network, so cancellation
// latency is one node's work whether or not the list was remembered.
func (f *frontier) settle() (graph.NodeID, float64, []ccam.AdjEntry, error) {
	if err := ctxErr(f.ctx); err != nil {
		return 0, 0, nil, err
	}
	top := f.heap.Pop()
	n, g := graph.NodeID(top.ID), top.Val
	i, _ := f.index.get(n)
	if l := &f.labels[i]; !l.settled {
		l.settled = true
		f.settledN++
	}
	var adj []ccam.AdjEntry
	if at, ok := f.adjOf.get(n); ok {
		adj = f.adjs[at]
	} else {
		var err error
		if adj, err = f.net.Adjacency(f.ctx, n); err != nil {
			return 0, 0, nil, mapCtxErr(err)
		}
		f.adjOf.put(n, int32(len(f.adjs)))
		f.adjs = append(f.adjs, adj)
	}
	for _, a := range adj {
		if err := f.relax(a.Other, g+a.Weight); err != nil {
			return 0, 0, nil, err
		}
	}
	return n, g, adj, nil
}
