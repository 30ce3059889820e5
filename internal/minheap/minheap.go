// Package minheap is the one priority queue of the tree: a typed binary
// min-heap of float64-keyed entries. Entries live in one slice, so nothing
// is boxed through interface{} and a Reset heap reuses its storage.
package minheap

// Entry is one queued value. Entries order by (Key, ID): with the ID as a
// tie-break, pop order is a function of the entries themselves and never
// of the heap's shape or the push history.
type Entry[T any] struct {
	Key float64
	ID  int32
	Val T
}

func (a Entry[T]) less(b Entry[T]) bool {
	return a.Key < b.Key || (a.Key == b.Key && a.ID < b.ID)
}

// Heap is a min-heap of entries; the zero value is an empty heap.
type Heap[T any] struct {
	e []Entry[T]
}

// Len returns the number of queued entries.
func (h *Heap[T]) Len() int { return len(h.e) }

// Reset empties the heap, keeping its storage for the next use.
func (h *Heap[T]) Reset() { h.e = h.e[:0] }

// Min returns the smallest entry without removing it; the heap must not
// be empty.
func (h *Heap[T]) Min() Entry[T] { return h.e[0] }

// Push queues val under (key, id).
func (h *Heap[T]) Push(key float64, id int32, val T) {
	x := Entry[T]{Key: key, ID: id, Val: val}
	h.e = append(h.e, x)
	i := len(h.e) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.less(h.e[parent]) {
			break
		}
		h.e[i] = h.e[parent]
		i = parent
	}
	h.e[i] = x
}

// Pop removes and returns the smallest entry; the heap must not be empty.
func (h *Heap[T]) Pop() Entry[T] {
	top := h.e[0]
	n := len(h.e) - 1
	x := h.e[n]
	h.e = h.e[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.e[c+1].less(h.e[c]) {
			c++
		}
		if !h.e[c].less(x) {
			break
		}
		h.e[i] = h.e[c]
		i = c
	}
	if n > 0 {
		h.e[i] = x
	}
	return top
}
