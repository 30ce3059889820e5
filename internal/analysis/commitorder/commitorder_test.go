package commitorder_test

import (
	"testing"

	"dsks/internal/analysis/analysistest"
	"dsks/internal/analysis/commitorder"
)

// TestCommitorder checks the stub database package, where the protocol
// and every helper that carries part of it live.
func TestCommitorder(t *testing.T) {
	analysistest.Run(t, "testdata", commitorder.Analyzer, "dsks")
}
