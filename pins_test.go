package dsks

import "testing"

// CheckNoPins fails t, once the test and its deferred calls are done,
// when a read view opened on db is still pinned: a View, a Stream or a
// query path that never closed what it opened. It is exported (in test
// builds only) so the helpers of the external test package register it
// too.
func CheckNoPins(t testing.TB, db *DB) {
	t.Helper()
	t.Cleanup(func() {
		if n := db.PinnedViews(); n != 0 {
			t.Errorf("%d read views still pinned when the test ended", n)
		}
	})
}
