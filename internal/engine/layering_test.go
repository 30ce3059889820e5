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

// TestLayering pins the inversion: the database, the router, the served
// binary and the packages under them stand on the engine and never link
// the experiments harness or anything under internal/experiments (the
// drivers and their baselines: SEQ, SIF-G, the partition DP, the replayed
// query log, IR and C1), and the engine itself knows neither the harness
// nor the dataset generators. The served packages link neither the fault
// injector (only tests arm one, through DB.SetInjector) nor the R-tree
// (only the preprocessing snapper and the IR baseline stand on it).
func TestLayering(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	for _, pkg := range []string{
		"dsks", "dsks/cmd/dsks-serve",
		"dsks/internal/shard", "dsks/internal/server", "dsks/internal/engine",
		"dsks/internal/core", "dsks/internal/sig", "dsks/internal/invindex",
	} {
		closure := deps(t, pkg)
		for dep := range closure {
			if dep == "dsks/internal/harness" || dep == "dsks/internal/experiments" || strings.HasPrefix(dep, "dsks/internal/experiments/") {
				t.Errorf("%s links %s", pkg, dep)
			}
		}
		switch pkg {
		case "dsks", "dsks/cmd/dsks-serve", "dsks/internal/shard", "dsks/internal/server", "dsks/internal/engine":
			for _, dep := range []string{"dsks/internal/fault", "dsks/internal/rtree"} {
				if closure[dep] {
					t.Errorf("%s links %s", pkg, dep)
				}
			}
		}
		if pkg == "dsks/cmd/dsks-serve" && !closure["dsks/internal/engine"] {
			t.Error("the served binary does not link dsks/internal/engine; is the pattern list stale?")
		}
	}
	if deps(t, "dsks/internal/engine")["dsks/internal/dataset"] {
		t.Error("internal/engine links dsks/internal/dataset")
	}
}
