package wal

import (
	"bytes"
	"math"
	"testing"
)

// FuzzWALRecord drives parseNext, the replay decoder, with arbitrary
// bytes: it must never panic, the length it reports must lie inside the
// input, and a record it accepts must re-encode through appendRecord to
// exactly the bytes it was decoded from — so the log has one encoding per
// record and replay cannot accept bytes the writer would not produce.
func FuzzWALRecord(f *testing.F) {
	for _, r := range []Record{
		{LSN: 1, Type: RecInsert, ID: 7, Edge: 3, Offset: 12.5, Terms: []int32{4, 9}},
		{LSN: 2, Type: RecInsert, ID: 0, Edge: 0, Offset: 0},
		{LSN: math.MaxUint64, Type: RecInsert, ID: -1, Edge: math.MaxInt32, Offset: math.Inf(-1), Terms: []int32{-5}},
		{LSN: 3, Type: RecRemove, ID: 7},
		{LSN: 4, Type: RecInsert, ID: 1000, Skipped: 997, Edge: 37, Offset: 0.5, Terms: []int32{2}},
	} {
		enc, err := appendRecord(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		// Two records back to back, and one cut short by a byte.
		f.Add(append(append([]byte(nil), enc...), enc...))
		f.Add(enc[:len(enc)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, r, err := parseNext(data)
		if n < 0 || n > len(data) {
			t.Fatalf("parseNext reported length %d for %d bytes", n, len(data))
		}
		if err != nil {
			return
		}
		enc, err := appendRecord(nil, r)
		if err != nil {
			t.Fatalf("accepted record %+v does not re-encode: %v", r, err)
		}
		if !bytes.Equal(enc, data[:n]) {
			t.Fatalf("record %+v re-encodes to %x, decoded from %x", r, enc, data[:n])
		}
	})
}
