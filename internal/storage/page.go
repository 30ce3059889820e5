// Package storage simulates the disk-resident setting of the paper: every
// index structure serializes into fixed-size 4096-byte pages held by an
// in-memory PageFile, and all reads go through an LRU buffer pool that
// counts buffer misses as disk accesses. An optional per-I/O latency can
// be injected so that response times become I/O-dominated, as on the
// paper's testbed. Fault campaigns (internal/fault) intercept the I/O of a
// PageFile and of the write-ahead log's LogFile through Injector.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PageSize is the fixed page size in bytes, matching the paper's setup.
const PageSize = 4096

// PageID identifies a page within a PageFile. The zero value InvalidPageID
// never refers to a real page.
type PageID uint32

// InvalidPageID is the null page reference.
const InvalidPageID PageID = 0

// ErrPageBounds is returned when a read or write would cross a page border.
var ErrPageBounds = errors.New("storage: access beyond page bounds")

// Page is a fixed-size block of bytes with little-endian accessors. A Page
// is obtained from a buffer pool, a view or a write batch; one read
// through a pinned PageView is immutable and may be held past its frame's
// eviction (the page contract on BufferPool).
type Page struct {
	id   PageID
	data [PageSize]byte
}

// ID returns the page's identifier.
func (p *Page) ID() PageID { return p.id }

// Data returns the raw page bytes.
func (p *Page) Data() []byte { return p.data[:] }

// PutUint16 stores v at byte offset off.
func (p *Page) PutUint16(off int, v uint16) {
	binary.LittleEndian.PutUint16(p.data[off:off+2], v)
}

// Uint16 loads the value at byte offset off.
func (p *Page) Uint16(off int) uint16 { return binary.LittleEndian.Uint16(p.data[off : off+2]) }

// PutUint32 stores v at byte offset off.
func (p *Page) PutUint32(off int, v uint32) {
	binary.LittleEndian.PutUint32(p.data[off:off+4], v)
}

// Uint32 loads the value at byte offset off.
func (p *Page) Uint32(off int) uint32 { return binary.LittleEndian.Uint32(p.data[off : off+4]) }

// PutUint64 stores v at byte offset off.
func (p *Page) PutUint64(off int, v uint64) {
	binary.LittleEndian.PutUint64(p.data[off:off+8], v)
}

// Uint64 loads the value at byte offset off.
func (p *Page) Uint64(off int) uint64 { return binary.LittleEndian.Uint64(p.data[off : off+8]) }

// PutFloat64 stores v at byte offset off as IEEE-754 bits.
func (p *Page) PutFloat64(off int, v float64) { p.PutUint64(off, float64bits(v)) }

// Float64 loads the value at byte offset off.
func (p *Page) Float64(off int) float64 { return float64frombits(p.Uint64(off)) }

// WriteAt copies b into the page at offset off.
func (p *Page) WriteAt(off int, b []byte) error {
	// off > PageSize is checked before the subtraction so that off+len(b)
	// can never be computed in overflowing form.
	if off < 0 || off > PageSize || len(b) > PageSize-off {
		return fmt.Errorf("%w: off=%d len=%d", ErrPageBounds, off, len(b))
	}
	copy(p.data[off:], b)
	return nil
}

// ReadAt copies len(b) bytes from the page at offset off into b.
func (p *Page) ReadAt(off int, b []byte) error {
	if off < 0 || off > PageSize || len(b) > PageSize-off {
		return fmt.Errorf("%w: off=%d len=%d", ErrPageBounds, off, len(b))
	}
	copy(b, p.data[off:off+len(b)])
	return nil
}
