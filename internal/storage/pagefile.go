package storage

import (
	"fmt"
	"math"
	"sync"
)

func float64bits(v float64) uint64     { return math.Float64bits(v) }
func float64frombits(b uint64) float64 { return math.Float64frombits(b) }

// Injector intercepts the I/O of a PageFile or a LogFile. It is
// implemented by fault.Injector (internal/fault); the interface lives
// here, with plain string/uint32 parameters, so the storage layer stays
// free of the fault package and the fault package free of storage.
//
// Implementations must be safe for concurrent use.
type Injector interface {
	// BeforeOp is consulted before the operation; a non-nil return
	// aborts it with that error.
	BeforeOp(op string, page uint32) error
	// CorruptRead may mutate buf — the bytes a successful read is about
	// to return — and reports whether it did (silent media corruption).
	CorruptRead(page uint32, buf []byte) bool
	// WriteLimit reports how many of the size bytes of a page write
	// should reach the medium (size = full write, less = a torn write
	// that still reports success).
	WriteLimit(page uint32, size int) int
}

// PageFile is the backing "disk": an append-only collection of pages kept
// in memory. Page 0 is reserved so that InvalidPageID can act as a null
// reference. PageFile is safe for concurrent use.
type PageFile struct {
	mu    sync.RWMutex
	pages [][]byte
	inj   Injector
}

// NewPageFile returns an empty page file.
func NewPageFile() *PageFile {
	// Reserve page 0 so that PageID 0 is never a live page.
	return &PageFile{pages: make([][]byte, 1)}
}

// Allocate reserves a fresh zeroed page and returns its ID.
func (f *PageFile) Allocate() PageID {
	f.mu.Lock()
	defer f.mu.Unlock()
	id := PageID(len(f.pages))
	f.pages = append(f.pages, make([]byte, PageSize))
	return id
}

// NumPages returns the number of allocated pages (excluding the reserved
// null page).
func (f *PageFile) NumPages() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.pages) - 1
}

// SizeBytes returns the total size of the file in bytes.
func (f *PageFile) SizeBytes() int64 { return int64(f.NumPages()) * PageSize }

// SetInjector installs (or clears, with nil) the fault injector.
func (f *PageFile) SetInjector(in Injector) {
	f.mu.Lock()
	f.inj = in
	f.mu.Unlock()
}

// read copies the page's bytes into dst.
func (f *PageFile) read(id PageID, dst []byte) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.inj != nil {
		if err := f.inj.BeforeOp("read", uint32(id)); err != nil {
			return err
		}
	}
	if id == InvalidPageID || int(id) >= len(f.pages) {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	copy(dst, f.pages[id])
	if f.inj != nil {
		f.inj.CorruptRead(uint32(id), dst[:PageSize])
	}
	return nil
}

// write copies src into the page's bytes.
func (f *PageFile) write(id PageID, src []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	limit := PageSize
	if f.inj != nil {
		if err := f.inj.BeforeOp("write", uint32(id)); err != nil {
			return err
		}
		limit = f.inj.WriteLimit(uint32(id), PageSize)
	}
	if id == InvalidPageID || int(id) >= len(f.pages) {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	copy(f.pages[id], src[:limit])
	return nil
}
