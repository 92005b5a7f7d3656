package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the experiment tables under testdata/golden")

// TestTablesGolden renders every experiment of All() as closlab -all
// prints it and compares the text with its pinned table, so a change
// that moves any published number fails here. Printed in All() order,
// each followed by a blank line, the files are closlab -all's output.
// Regenerate with
//
//	go test ./internal/experiments -run TestTablesGolden -update-golden
//
// and only when the change to a table is deliberate.
func TestTablesGolden(t *testing.T) {
	for _, r := range All() {
		t.Run(r.ID, func(t *testing.T) {
			tab, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := tab.String()
			golden := filepath.Join("testdata", "golden", r.ID+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden table (run with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Errorf("table drifted from golden %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}
