package wal

import (
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"reflect"
	"testing"
)

// TestPlainRecordsKeepTheirBytes pins the encoding of an insert that
// skipped no ID and of a remove: logs written before skipped inserts
// existed replay unchanged, and a single node's log stays byte-identical.
func TestPlainRecordsKeepTheirBytes(t *testing.T) {
	for _, tc := range []struct {
		r   Record
		hex string
	}{
		{Record{LSN: 9, Type: RecInsert, ID: 1000, Edge: 37, Offset: 12.5, Terms: []int32{4, 9}},
			"2300000082c9ffcf090000000000000001e803000025000000000000000000294002000400000009000000"},
		{Record{LSN: 10, Type: RecRemove, ID: 1000}, "0d000000699ee91c0a0000000000000002e8030000"},
	} {
		enc, err := appendRecord(nil, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(enc); got != tc.hex {
			t.Errorf("%+v encodes to %s, want %s", tc.r, got, tc.hex)
		}
		want, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatal(err)
		}
		if n, r, err := parseNext(want); err != nil || n != len(want) || !reflect.DeepEqual(r, tc.r) {
			t.Errorf("%s decodes to %+v (%d bytes, %v), want %+v", tc.hex, r, n, err, tc.r)
		}
	}
}

// TestSkippedInsertRoundTrip: an insert that skipped IDs is logged with
// the length it was assigned over and decodes to the same record; the
// decoder refuses a base that is not below the ID or is negative, and the
// encoder refuses a skip it could not decode.
func TestSkippedInsertRoundTrip(t *testing.T) {
	r := Record{LSN: 4, Type: RecInsert, ID: 1000, Skipped: 997, Edge: 37, Offset: 12.5, Terms: []int32{4, 9}}
	enc, err := appendRecord(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if n, got, err := parseNext(enc); err != nil || n != len(enc) || !reflect.DeepEqual(got, r) {
		t.Fatalf("decoded %+v (%d of %d bytes, %v), want %+v", got, n, len(enc), err, r)
	}
	if typ := RecordType(enc[recHeader+8]); typ != recInsertSkip {
		t.Fatalf("skipped insert logged as type %d, want %d", typ, recInsertSkip)
	}

	// Rewrite the base field (after size, CRC, LSN, type and ID) and
	// re-frame the payload so only the decoder's check can refuse it.
	for _, base := range []int32{1000, 1001, -1} {
		payload := append([]byte(nil), enc[recHeader:]...)
		binary.LittleEndian.PutUint32(payload[8+1+4:], uint32(base))
		framed := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		framed = binary.LittleEndian.AppendUint32(framed, crc32.Checksum(payload, recCRC))
		framed = append(framed, payload...)
		if _, got, err := parseNext(framed); err == nil {
			t.Errorf("skipped insert of object 1000 over base %d decoded as %+v", base, got)
		}
	}

	for _, skipped := range []int32{-1, 1001} {
		bad := r
		bad.Skipped = skipped
		if _, err := appendRecord(nil, bad); err == nil {
			t.Errorf("insert of object %d skipping %d IDs encoded", bad.ID, skipped)
		}
	}
}
