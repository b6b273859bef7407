package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateFig8Golden = flag.Bool("update-golden", false, "rewrite testdata/fig8_golden.txt from the current Fig. 8 output")

// TestFig8Golden pins the rendered Fig. 8 byte for byte: the per-group,
// per-kind counts, the pair and threat totals and the candidate-generation
// line (app pairs from index postings, rule pairs never generated, rule
// pairs pruned). TestFig8ShapeMatchesPaper checks only the shape.
// Regenerate with: go test ./internal/experiments -run Fig8Golden -update-golden
func TestFig8Golden(t *testing.T) {
	got := FormatFig8(Fig8())
	path := filepath.Join("testdata", "fig8_golden.txt")
	if *updateFig8Golden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Fatalf("Fig. 8 diverged from the golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
