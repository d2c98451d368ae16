package wirecodec

import "testing"

// TestCoveredGolden stands in for a golden-file test: it mentions the
// Covered identifier and the file contains the word "golden", which is the
// coverage convention the analyzer checks for.
func TestCoveredGolden(t *testing.T) {
	if (Covered{A: 1}).A != 1 {
		t.Fatal("fixture")
	}
}
