package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Record framing. Every record is
//
//	[size uint32][crc32c uint32][payload]
//
// where size = len(payload) and the CRC32C covers the payload only. The
// payload is
//
//	[lsn uint64][type uint8][body]
//
// with a type-specific body:
//
//	insert:        [id int32][edge int32][offset float64][nterms uint16][terms int32...]
//	remove:        [id int32]
//	skipped insert: [id int32][base int32][edge int32][offset float64][nterms uint16][terms int32...]
//
// All integers are little-endian. The insert body carries the object ID
// the live process assigned, so replay can verify that applying the log
// over the restored collection reassigns exactly the same IDs — any
// divergence means the snapshot and the log do not belong together. An
// insert that skipped IDs (a shard of a sharded set stores each object
// under its set-wide ID) is logged as a skipped insert, which also
// carries base, the collection length it was assigned over (0 ≤ base <
// id); every other insert keeps the plain encoding.

// RecordType tags a log record's payload.
type RecordType uint8

// The mutation kinds the log records.
const (
	RecInsert RecordType = 1
	RecRemove RecordType = 2
	// recInsertSkip is the wire type of a RecInsert with Skipped > 0.
	recInsertSkip RecordType = 3
)

// Record is one logged mutation.
type Record struct {
	// LSN is the record's log sequence number; assigned by Append,
	// verified dense and ascending by replay.
	LSN uint64
	// Type selects which of the remaining fields are meaningful.
	Type RecordType
	// ID is the object inserted or removed.
	ID int32
	// Skipped is how many IDs below ID an insert skipped: the collection
	// held ID−Skipped IDs when it assigned ID (RecInsert; 0 for an insert
	// that took the next ID).
	Skipped int32
	// Edge and Offset are the inserted object's position (RecInsert).
	Edge   int32
	Offset float64
	// Terms are the inserted object's keywords (RecInsert).
	Terms []int32
}

const (
	// recHeader is the length/CRC prefix before each payload.
	recHeader = 8
	// minPayload is the smallest legal payload: LSN + type + a 4-byte body.
	minPayload = 8 + 1 + 4
	// maxPayload bounds a single record; anything larger in the framing
	// is treated as corruption, not an allocation request.
	maxPayload = 1 << 20
)

// recCRC is the Castagnoli table shared with the snapshot manifest.
var recCRC = crc32.MakeTable(crc32.Castagnoli)

// appendRecord encodes r (with its LSN already stamped) onto buf.
func appendRecord(buf []byte, r Record) ([]byte, error) {
	var body []byte
	switch r.Type {
	case RecInsert:
		if len(r.Terms) > math.MaxUint16 {
			return nil, fmt.Errorf("wal: insert with %d terms exceeds the record format", len(r.Terms))
		}
		base := int64(r.ID) - int64(r.Skipped)
		if r.Skipped != 0 && (r.Skipped < 0 || base < 0) {
			return nil, fmt.Errorf("wal: insert of object %d skipping %d IDs", r.ID, r.Skipped)
		}
		body = make([]byte, 0, 9+4+4+4+8+2+4*len(r.Terms))
		body = binary.LittleEndian.AppendUint64(body, r.LSN)
		typ := RecInsert
		if r.Skipped != 0 {
			typ = recInsertSkip
		}
		body = append(body, byte(typ))
		body = binary.LittleEndian.AppendUint32(body, uint32(r.ID))
		if typ == recInsertSkip {
			body = binary.LittleEndian.AppendUint32(body, uint32(base))
		}
		body = binary.LittleEndian.AppendUint32(body, uint32(r.Edge))
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(r.Offset))
		body = binary.LittleEndian.AppendUint16(body, uint16(len(r.Terms)))
		for _, t := range r.Terms {
			body = binary.LittleEndian.AppendUint32(body, uint32(t))
		}
	case RecRemove:
		body = make([]byte, 0, 9+4)
		body = binary.LittleEndian.AppendUint64(body, r.LSN)
		body = append(body, byte(r.Type))
		body = binary.LittleEndian.AppendUint32(body, uint32(r.ID))
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", r.Type)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, recCRC))
	return append(buf, body...), nil
}

// decodePayload parses a CRC-verified payload into a Record.
func decodePayload(p []byte) (Record, error) {
	if len(p) < 9 {
		return Record{}, fmt.Errorf("wal: payload of %d bytes too short", len(p))
	}
	r := Record{
		LSN:  binary.LittleEndian.Uint64(p),
		Type: RecordType(p[8]),
	}
	body := p[9:]
	switch r.Type {
	case RecInsert, recInsertSkip:
		head := 4 + 4 + 8 + 2
		if r.Type == recInsertSkip {
			head += 4
		}
		if len(body) < head {
			return Record{}, fmt.Errorf("wal: insert body of %d bytes too short", len(body))
		}
		r.ID = int32(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if r.Type == recInsertSkip {
			base := int32(binary.LittleEndian.Uint32(body))
			if base < 0 || base >= r.ID {
				return Record{}, fmt.Errorf("wal: skipped insert of object %d over %d IDs", r.ID, base)
			}
			r.Type, r.Skipped = RecInsert, r.ID-base
			body = body[4:]
		}
		r.Edge = int32(binary.LittleEndian.Uint32(body))
		r.Offset = math.Float64frombits(binary.LittleEndian.Uint64(body[4:]))
		n := int(binary.LittleEndian.Uint16(body[12:]))
		body = body[14:]
		if len(body) != 4*n {
			return Record{}, fmt.Errorf("wal: insert claims %d terms, body has %d bytes", n, len(body))
		}
		r.Terms = make([]int32, n)
		for i := range r.Terms {
			r.Terms[i] = int32(binary.LittleEndian.Uint32(body[4*i:]))
		}
	case RecRemove:
		if len(body) != 4 {
			return Record{}, fmt.Errorf("wal: remove body of %d bytes, want 4", len(body))
		}
		r.ID = int32(binary.LittleEndian.Uint32(body))
	default:
		return Record{}, fmt.Errorf("wal: unknown record type %d", r.Type)
	}
	return r, nil
}
