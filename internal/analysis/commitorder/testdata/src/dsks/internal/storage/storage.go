// Package storage stubs the buffer pool commitorder ranks.
package storage

// WriteBatch is one mutation's copy-on-write page set.
type WriteBatch struct{}

// BufferPool serves page versions.
type BufferPool struct{}

// Publish installs a batch's pages (rank 2).
func (p *BufferPool) Publish(w *WriteBatch) {}
