package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// cell finds the value in the named column of row i.
func cell(t *testing.T, tab *Table, i int, column string) string {
	t.Helper()
	for ci, c := range tab.Columns {
		if c == column {
			return tab.Rows[i][ci]
		}
	}
	t.Fatalf("table %s has no column %q", tab.ID, column)
	return ""
}

func TestRunF1(t *testing.T) {
	tab, err := RunF1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	if got := cell(t, tab, 0, "sorted rate vector"); got != "[1/3, 1/3, 1/3, 2/3, 2/3, 1]" {
		t.Errorf("macro vector = %s", got)
	}
	if got := cell(t, tab, 1, "sorted rate vector"); got != "[1/3, 1/3, 1/3, 2/3, 2/3, 2/3]" {
		t.Errorf("routing A vector = %s", got)
	}
	if got := cell(t, tab, 2, "sorted rate vector"); got != "[1/3, 1/3, 1/3, 1/3, 2/3, 1]" {
		t.Errorf("routing B vector = %s", got)
	}
	// The exhaustive optimum matches routing A.
	if a, opt := tab.Rows[1][1], tab.Rows[3][1]; a != opt {
		t.Errorf("lex-max-min %s != routing A %s", opt, a)
	}
	for _, i := range []int{1, 2, 3} {
		if got := cell(t, tab, i, "vs macro"); got != "lex-below" {
			t.Errorf("row %d vs macro = %s, want lex-below", i, got)
		}
	}
}

func TestRunF2(t *testing.T) {
	tab, err := RunF2()
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, tab, 0, "throughput"); got != "2" {
		t.Errorf("T^MT = %s, want 2", got)
	}
	if got := cell(t, tab, 1, "throughput"); got != "3/2" {
		t.Errorf("T^MmF = %s, want 3/2", got)
	}
}

func TestRunT1(t *testing.T) {
	tab, err := RunT1([]int{1, 2}, []int{1, 8, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	for i := range tab.Rows {
		if got := cell(t, tab, i, "≥ 1/2"); got != "yes" {
			t.Errorf("row %d violates the 1/2 lower bound", i)
		}
		if len(tab.Rows[i]) != len(tab.Columns) {
			t.Errorf("row %d flagged a theory mismatch: %v", i, tab.Rows[i])
		}
	}
	// k=64 row: ratio (k+2)/(2k+2) = 66/130 = 33/65.
	if got := cell(t, tab, 2, "theory (k+2)/(2k+2)"); got != "33/65" {
		t.Errorf("theory cell = %s, want 33/65", got)
	}
}

func TestRunF3(t *testing.T) {
	tab, err := RunF3([]int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		if got := cell(t, tab, i, "macro rates replicable"); got != "no" {
			t.Errorf("row %d: replicable = %s, want no", i, got)
		}
		if got := cell(t, tab, i, "replicable without type-3 flow"); got != "yes" {
			t.Errorf("row %d: partial replicable = %s, want yes", i, got)
		}
	}
}

func TestRunT2(t *testing.T) {
	tab, err := RunT2([]int{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{3, 4, 5} {
		if got := cell(t, tab, i, "type-3 macro rate"); got != "1" {
			t.Errorf("n=%d: macro rate = %s", n, got)
		}
		want := "1/" + strconv.Itoa(n)
		if got := cell(t, tab, i, "type-3 lex-max-min rate"); got != want {
			t.Errorf("n=%d: lex rate = %s, want %s", n, got, want)
		}
		if got := cell(t, tab, i, "witness verified"); got != "yes" {
			t.Errorf("n=%d: witness not verified", n)
		}
		if got := cell(t, tab, i, "local-opt certified"); got != "yes" {
			t.Errorf("n=%d: local-opt = %s, want yes", n, got)
		}
	}
}

func TestRunF4(t *testing.T) {
	tab, err := RunF4()
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, tab, 0, "throughput"); got != "9/2" {
		t.Errorf("macro throughput = %s, want 9/2", got)
	}
	if got := cell(t, tab, 1, "throughput"); got != "5" {
		t.Errorf("doom throughput = %s, want 5", got)
	}
	if got := cell(t, tab, 1, "type-1 rate"); got != "2/3" {
		t.Errorf("type-1 rate = %s, want 2/3", got)
	}
	if got := cell(t, tab, 1, "type-2 rate"); got != "1/3" {
		t.Errorf("type-2 rate = %s, want 1/3", got)
	}
}

func TestRunT3(t *testing.T) {
	tab, err := RunT3([]int{5, 7}, []int{1, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		if got := cell(t, tab, i, "≤ 2"); got != "yes" {
			t.Errorf("row %d violates the 2x upper bound", i)
		}
	}
	// n=7, k=1 is Example 5.3: gain = 5 / (9/2) = 10/9.
	if got := cell(t, tab, 2, "gain"); !strings.HasPrefix(got, "10/9") {
		t.Errorf("example 5.3 gain = %s, want 10/9", got)
	}
}

func TestRunS1Small(t *testing.T) {
	tab, err := RunS1(SimConfig{Sizes: []int{2}, FlowsPerServerPair: 1, Trials: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// 1 size × 4 workloads × 4 algorithms.
	if len(tab.Rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(tab.Rows))
	}
	for i := range tab.Rows {
		mean, err := strconv.ParseFloat(cell(t, tab, i, "mean ratio"), 64)
		if err != nil {
			t.Fatalf("row %d mean unparsable: %v", i, err)
		}
		if mean <= 0 || mean > 1.5 {
			t.Errorf("row %d: implausible mean ratio %v", i, mean)
		}
	}
}

func TestRunS1Adversarial(t *testing.T) {
	tab, err := RunS1Adversarial([]int{3, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Min ratios must not beat the information-theoretic floor by much:
	// the type-3 flow cannot exceed... actually it can reach 1 for
	// routings that sacrifice type-2 flows; here we just require valid
	// positive ratios ≤ 1.
	for i := range tab.Rows {
		v, err := strconv.ParseFloat(cell(t, tab, i, "min flow ratio"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if v <= 0 || v > 1+1e-9 {
			t.Errorf("row %d: min ratio %v outside (0, 1]", i, v)
		}
	}
}

func TestRunP1(t *testing.T) {
	tab, err := RunP1()
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		if got := cell(t, tab, i, "rates identical"); got != "yes" {
			t.Errorf("row %d: splittable rates differ from macro rates", i)
		}
		if got := cell(t, tab, i, "max |gap|"); got != "0" {
			t.Errorf("row %d: gap = %s, want 0", i, got)
		}
	}
}

func TestRegistry(t *testing.T) {
	runners := All()
	if len(runners) != 18 {
		t.Fatalf("registry has %d runners", len(runners))
	}
	seen := map[string]bool{}
	for _, r := range runners {
		if seen[r.ID] {
			t.Errorf("duplicate runner %s", r.ID)
		}
		seen[r.ID] = true
		if r.Title == "" || r.Run == nil {
			t.Errorf("runner %s incomplete", r.ID)
		}
	}
	if _, err := ByID("F1"); err != nil {
		t.Errorf("ByID(F1): %v", err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown ID accepted")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		ID:      "X",
		Title:   "demo",
		Columns: []string{"a", "b"},
	}
	tab.AddRow(1, "x,y")
	tab.AddRow("long-value", `has "quotes"`)
	tab.AddNote("note %d", 1)

	s := tab.String()
	if !strings.Contains(s, "== X: demo ==") || !strings.Contains(s, "note: note 1") {
		t.Errorf("String output malformed:\n%s", s)
	}
	csv := tab.CSV()
	if !strings.Contains(csv, `"x,y"`) {
		t.Errorf("CSV quoting missing:\n%s", csv)
	}
	if !strings.Contains(csv, `"has ""quotes"""`) {
		t.Errorf("CSV quote escaping missing:\n%s", csv)
	}
}

func TestTableJSON(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Columns: []string{"a"}}
	tab.AddRow("v")
	out, err := tab.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"id": "X"`) || !strings.Contains(out, `"v"`) {
		t.Errorf("JSON output malformed:\n%s", out)
	}
}
