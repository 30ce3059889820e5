package dsks

import (
	"errors"
	"testing"
)

// TestRestoreIDSpaceHostile: a snapshot's tombstone list must ascend
// strictly within the allocated IDs and fill them with the live objects;
// a duplicate, a descending pair, an ID out of range or a wrong count is
// a bad snapshot, and never a panic, wherever in the list the fault sits.
// A good list puts every live object back at its own ID.
func TestRestoreIDSpaceHostile(t *testing.T) {
	dense := NewCollection() // three live objects, saved densely
	for e := range 3 {
		dense.Add(Position{Edge: EdgeID(e)}, []TermID{TermID(e)})
	}
	const allocated = 5
	for _, tc := range []struct {
		name       string
		tombstones []ObjectID
	}{
		{"duplicate", []ObjectID{1, 1}},
		{"descending pair", []ObjectID{3, 1}},
		{"negative ID", []ObjectID{-1, 3}},
		{"ID at allocated", []ObjectID{1, allocated}},
		{"too few", []ObjectID{1}},
		{"too many", []ObjectID{0, 1, 3}},
		// Each of these is valid where it first shows, so the objects
		// before it are placed before the list goes wrong.
		{"duplicate at the tail", []ObjectID{4, 4}},
		{"duplicate past the live objects", []ObjectID{3, 3}},
		{"descending past the live objects", []ObjectID{4, 2}},
	} {
		if _, err := restoreIDSpace(dense, allocated, tc.tombstones); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s %v: err = %v, want ErrBadSnapshot", tc.name, tc.tombstones, err)
		}
	}

	for _, tombstones := range [][]ObjectID{{1, 3}, {0, 1}, {3, 4}, {0, 4}} {
		col, err := restoreIDSpace(dense, allocated, tombstones)
		if err != nil {
			t.Fatalf("%v: %v", tombstones, err)
		}
		next := 0
		for id := range ObjectID(allocated) {
			dead := id == tombstones[0] || id == tombstones[1]
			if col.Removed(id) != dead {
				t.Fatalf("%v: ID %d removed = %v, want %v", tombstones, id, col.Removed(id), dead)
			}
			if dead {
				continue
			}
			if got := col.Get(id); got.Pos.Edge != EdgeID(next) {
				t.Fatalf("%v: ID %d holds the object of edge %d, want %d", tombstones, id, got.Pos.Edge, next)
			}
			next++
		}
	}
}
