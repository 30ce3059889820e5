package engine_test

import (
	"os/exec"
	"strings"
	"testing"
)

// deps returns the import closure of the given packages (module-relative
// patterns, resolved from this directory).
func deps(t *testing.T, patterns ...string) map[string]bool {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list", "-deps"}, patterns...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps %v: %v\n%s", patterns, err, out)
	}
	set := make(map[string]bool)
	for _, pkg := range strings.Fields(string(out)) {
		set[pkg] = true
	}
	return set
}

// TestLayering pins the inversion: the database, the router and the served
// binary stand on the engine and never link the experiments harness (or
// the experiment-only IR and C1 baselines), and the engine itself knows
// neither the harness nor the dataset generators.
func TestLayering(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	product := deps(t, "dsks", "dsks/internal/shard", "dsks/internal/server", "dsks/cmd/dsks-serve")
	for _, banned := range []string{"dsks/internal/harness", "dsks/internal/experiments", "dsks/internal/edgestore", "dsks/internal/ir"} {
		if product[banned] {
			t.Errorf("the product packages link %s", banned)
		}
	}
	if !product["dsks/internal/engine"] {
		t.Error("the product packages do not link dsks/internal/engine; is the pattern list stale?")
	}
	eng := deps(t, "dsks/internal/engine")
	for _, banned := range []string{"dsks/internal/harness", "dsks/internal/dataset"} {
		if eng[banned] {
			t.Errorf("internal/engine links %s", banned)
		}
	}
}
