package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestRunE1(t *testing.T) {
	tab, err := RunE1([]int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// k=4: fair sharing avg = 5; scheduler: completions 1,1,2,3,4,5 →
	// avg 16/6 = 8/3.
	if got := cell(t, tab, 1, "avg FCT fair sharing"); got != "5" {
		t.Errorf("fair avg = %s, want 5", got)
	}
	if got := cell(t, tab, 1, "avg FCT scheduled"); got != "8/3" {
		t.Errorf("sched avg = %s, want 8/3", got)
	}
	// Speedup must exceed 1 everywhere and grow with k.
	prev := 0.0
	for i := range tab.Rows {
		s := cell(t, tab, i, "speedup")
		// format "p/q (x.xxxx)"
		open := strings.Index(s, "(")
		val, err := strconv.ParseFloat(strings.TrimSuffix(s[open+1:], ")"), 64)
		if err != nil {
			t.Fatalf("unparsable speedup %q", s)
		}
		if val <= 1 {
			t.Errorf("row %d: speedup %v not above 1", i, val)
		}
		if val < prev {
			t.Errorf("row %d: speedup %v decreased from %v", i, val, prev)
		}
		prev = val
	}
}

func TestRunR1(t *testing.T) {
	tab, err := RunR1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Example 2.3: lex 2/3 vs relative 3/4.
	if got := cell(t, tab, 0, "lex-max-min min ratio"); got != "2/3" {
		t.Errorf("lex ratio = %s, want 2/3", got)
	}
	if got := cell(t, tab, 0, "relative-max-min min ratio"); got != "3/4" {
		t.Errorf("relative ratio = %s, want 3/4", got)
	}
	// Starvation family rows: lex ratio = 1/n.
	if got := cell(t, tab, 1, "lex-max-min min ratio"); got != "1/3" {
		t.Errorf("n=3 lex ratio = %s, want 1/3", got)
	}
	if got := cell(t, tab, 2, "lex-max-min min ratio"); got != "1/4" {
		t.Errorf("n=4 lex ratio = %s, want 1/4", got)
	}
}

func TestRunM1(t *testing.T) {
	tab, err := RunM1([]int{3}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Theorem 4.2 (n=3) demands need exactly 4 middles.
	if got := cell(t, tab, 0, "min middles"); got != "4" {
		t.Errorf("min middles = %s, want 4", got)
	}
	if got := cell(t, tab, 0, "conjecture bound 2n-1"); got != "5" {
		t.Errorf("bound = %s, want 5", got)
	}
	// Random workloads stay within the conjecture bound.
	worst, err := strconv.Atoi(cell(t, tab, 1, "min middles"))
	if err != nil {
		t.Fatal(err)
	}
	if worst > 5 {
		t.Errorf("random worst = %d exceeds the conjecture bound 5", worst)
	}
}

func TestRunD1(t *testing.T) {
	cfg := DynConfig{Size: 2, Loads: []float64{0.5}, MeanSize: 1, NumFlows: 120, Seed: 3}
	tab, err := RunD1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 { // 1 load x 2 size dists x 4 policies
		t.Fatalf("rows = %d, want 8", len(tab.Rows))
	}
	for i := range tab.Rows {
		v, err := strconv.ParseFloat(cell(t, tab, i, "mean slowdown"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < 1 {
			t.Errorf("row %d: mean slowdown %v below 1", i, v)
		}
	}
	if _, err := RunD1(DynConfig{Size: 2, Loads: []float64{1.5}, MeanSize: 1, NumFlows: 10, Seed: 1}); err == nil {
		t.Error("overload accepted")
	}
}

func TestRunS2(t *testing.T) {
	tab, err := RunS2(SimConfig{Sizes: []int{2}, FlowsPerServerPair: 1, Trials: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	// CDF columns are monotone left to right and end at 100%.
	for i := range tab.Rows {
		prev := -1.0
		for ci := 2; ci < len(tab.Columns); ci++ {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimSpace(tab.Rows[i][ci]), "%f%%", &v); err != nil {
				t.Fatalf("row %d col %d unparsable: %q", i, ci, tab.Rows[i][ci])
			}
			if v < prev {
				t.Fatalf("row %d: CDF not monotone", i)
			}
			prev = v
		}
		// The CDF need not reach 100% at ratio 1.00: a flow can exceed
		// its macro rate when a competitor is throttled inside the
		// fabric, freeing a shared server link.
		if prev > 100 {
			t.Fatalf("row %d: CDF above 100%% (got %v)", i, prev)
		}
	}
}

// TestS2RatiosAboveOneAreExact: over S2's own instances (its registry
// configuration), the float ratios above 1.0 that fall outside the
// "≤1.00" column are exactly the flows whose exact network rate exceeds
// their exact macro rate. A pair of equal rates must read exactly 1.0,
// not float noise above it.
func TestS2RatiosAboveOneAreExact(t *testing.T) {
	cfg := SimConfig{Sizes: []int{4}, FlowsPerServerPair: 2, Trials: 5, Seed: 1}
	floatAbove, exactAbove := 0, 0
	if err := forEachSimRun(cfg, func(r simRun) {
		var s simStats
		s.observe(r.clos, r.macro)
		for _, x := range s.ratios {
			if x > 1.0 {
				floatAbove++
			}
		}
		for fi := range r.clos {
			if r.macro[fi].Sign() > 0 && r.clos[fi].Cmp(r.macro[fi]) > 0 {
				exactAbove++
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if exactAbove == 0 {
		t.Fatal("no exact ratio above 1: the instances do not exercise the column")
	}
	if floatAbove != exactAbove {
		t.Errorf("float ratios above 1.0: %d, exact ratios above 1: %d", floatAbove, exactAbove)
	}
}

func TestRunO1(t *testing.T) {
	tab, err := RunO1(4, 2, []int{1, 2, 4}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	parse := func(i int, col string) float64 {
		v, err := strconv.ParseFloat(cell(t, tab, i, col), 64)
		if err != nil {
			t.Fatalf("row %d %s unparsable: %v", i, col, err)
		}
		return v
	}
	// At or below full bisection the throughput ratio should be high;
	// well beyond it the fabric physically lacks capacity, so the
	// throughput ratio must drop.
	under := parse(0, "throughput ratio") // 1 server vs 2 middles
	over := parse(2, "throughput ratio")  // 4 servers vs 2 middles
	if under < 0.9 {
		t.Errorf("under-subscribed throughput ratio %v suspiciously low", under)
	}
	if over >= under {
		t.Errorf("oversubscribed throughput ratio %v not below under-subscribed %v", over, under)
	}
}

func TestRunA1(t *testing.T) {
	tab, err := RunA1([]int{2}, 6, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	mean, err := strconv.ParseFloat(cell(t, tab, 0, "mean doom/opt"), 64)
	if err != nil {
		t.Fatal(err)
	}
	minR, err := strconv.ParseFloat(cell(t, tab, 0, "min doom/opt"), 64)
	if err != nil {
		t.Fatal(err)
	}
	// The doom routing can never beat the exhaustive optimum, and it
	// should be a decent approximation on light instances.
	if mean > 1+1e-9 || minR > mean+1e-9 {
		t.Errorf("implausible ratios: mean %v min %v", mean, minR)
	}
	if minR <= 0 {
		t.Errorf("non-positive min ratio %v", minR)
	}
}

// TestRunS3 exercises the cross-family stochastic study at a reduced
// size: every ratio must be finite, in (0, 1], and carry a finite
// confidence half-width.
func TestRunS3(t *testing.T) {
	tab, err := RunS3([]string{"clos", "benes"}, 3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 { // 2 families x 3 traffic models
		t.Fatalf("%d rows, want 6", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		for _, col := range []int{4, 5, 6, 7, 8} {
			v, err := strconv.ParseFloat(fmt.Sprint(row[col]), 64)
			if err != nil {
				t.Fatalf("row %d col %d: %v", i, col, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1.0001 {
				t.Errorf("row %d col %d: ratio %v out of range", i, col, v)
			}
		}
	}
}

// TestRunS3UnknownFamilyEmpty: asking for no known family yields an
// empty (but well-formed) table rather than an error.
func TestRunS3UnknownFamilyEmpty(t *testing.T) {
	tab, err := RunS3([]string{"torus"}, 2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 0 {
		t.Errorf("%d rows for unknown family, want 0", len(tab.Rows))
	}
}
