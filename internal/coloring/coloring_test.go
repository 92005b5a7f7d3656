package coloring

import (
	"fmt"
	"math/rand"
	"testing"

	"closnet/internal/matching"
)

// bg builds a bipartite multigraph from (left, right) endpoint pairs.
func bg(nl, nr int, pairs ...int) matching.Graph {
	g := matching.Graph{NumLeft: nl, NumRight: nr}
	for i := 0; i < len(pairs); i += 2 {
		g.Edges = append(g.Edges, matching.Edge{Left: pairs[i], Right: pairs[i+1]})
	}
	return g
}

func TestEdgeColorSimpleCases(t *testing.T) {
	tests := []struct {
		name   string
		g      matching.Graph
		colors int
	}{
		{"empty", matching.Graph{NumLeft: 2, NumRight: 2}, 0},
		{"single edge", bg(1, 1, 0, 0), 1},
		{"parallel edges", bg(1, 1, 0, 0, 0, 0, 0, 0), 3},
		{"path needs 2", bg(2, 1, 0, 0, 1, 0), 2},
		{
			"perfect matching needs 1",
			bg(3, 3, 0, 0, 1, 1, 2, 2),
			1,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			color, err := EdgeColor(tt.g, tt.colors)
			if err != nil {
				t.Fatalf("EdgeColor: %v", err)
			}
			if err := verify(tt.g, color, tt.colors); err != nil {
				t.Errorf("verify: %v", err)
			}
		})
	}
}

func TestEdgeColorRejectsTooFewColors(t *testing.T) {
	g := bg(1, 2, 0, 0, 0, 1) // degree 2
	if _, err := EdgeColor(g, 1); err == nil {
		t.Error("expected error: 1 color for degree-2 graph")
	}
	bad := bg(1, 1, 0, 5)
	if _, err := EdgeColor(bad, 3); err == nil {
		t.Error("expected error: malformed graph")
	}
}

// TestEdgeColorKempeChain forces the Kempe-chain repair path: a C-shaped
// instance where the free colors at the two endpoints differ.
func TestEdgeColorKempeChain(t *testing.T) {
	// Edges in an order that forces a flip when coloring the last edge.
	// Edge order: (0,0) gets color 0, (1,0) gets color 1, (1,1) gets
	// color 0; the final edge (0,1) finds color 1 free on the left but
	// busy on the right, forcing a chain flip.
	g := bg(2, 2, 0, 0, 1, 0, 1, 1, 0, 1)
	color, err := EdgeColor(g, 2)
	if err != nil {
		t.Fatalf("EdgeColor: %v", err)
	}
	if err := verify(g, color, 2); err != nil {
		t.Errorf("verify: %v", err)
	}
}

// TestEdgeColorCompleteBipartite colors K_{n,n} (degree n) with n colors.
func TestEdgeColorCompleteBipartite(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		g := matching.Graph{NumLeft: n, NumRight: n}
		for l := 0; l < n; l++ {
			for r := 0; r < n; r++ {
				g.Edges = append(g.Edges, matching.Edge{Left: l, Right: r})
			}
		}
		color, err := EdgeColor(g, n)
		if err != nil {
			t.Fatalf("K_{%d,%d}: %v", n, n, err)
		}
		if err := verify(g, color, n); err != nil {
			t.Fatalf("K_{%d,%d}: %v", n, n, err)
		}
		// Each color class must be a perfect matching of size n.
		for c, size := range classSizes(color, n) {
			if size != n {
				t.Errorf("K_{%d,%d}: color %d has %d edges, want %d", n, n, c, size, n)
			}
		}
	}
}

// TestEdgeColorRandomMultigraphs colors random multigraphs with exactly
// max-degree colors (the König bound) and verifies propriety.
func TestEdgeColorRandomMultigraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		nl, nr := rng.Intn(6)+1, rng.Intn(6)+1
		g := matching.Graph{NumLeft: nl, NumRight: nr}
		for e := 0; e < rng.Intn(20); e++ {
			g.Edges = append(g.Edges, matching.Edge{Left: rng.Intn(nl), Right: rng.Intn(nr)})
		}
		d := g.MaxDegree()
		if d == 0 {
			continue
		}
		color, err := EdgeColor(g, d)
		if err != nil {
			t.Fatalf("trial %d: %v (graph %+v)", trial, err, g)
		}
		if err := verify(g, color, d); err != nil {
			t.Fatalf("trial %d: %v (graph %+v, colors %v)", trial, err, g, color)
		}
	}
}

func TestVerifyRejectsBadColorings(t *testing.T) {
	g := bg(2, 2, 0, 0, 0, 1)
	if err := verify(g, []int{0, 0}, 2); err == nil {
		t.Error("shared left endpoint color accepted")
	}
	g2 := bg(2, 1, 0, 0, 1, 0)
	if err := verify(g2, []int{1, 1}, 2); err == nil {
		t.Error("shared right endpoint color accepted")
	}
	if err := verify(g, []int{0}, 2); err == nil {
		t.Error("short coloring accepted")
	}
	if err := verify(g, []int{0, 5}, 2); err == nil {
		t.Error("out-of-range color accepted")
	}
	if err := verify(g, []int{0, 1}, 2); err != nil {
		t.Errorf("valid coloring rejected: %v", err)
	}
}

func TestClassSizes(t *testing.T) {
	sizes := classSizes([]int{0, 1, 1, 2, -1}, 3)
	want := []int{1, 2, 1}
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("classSizes[%d] = %d, want %d", i, sizes[i], want[i])
		}
	}
}

// TestColoringYieldsLinkDisjointRouting checks the correspondence used by
// Lemma 5.2: color classes of a degree-≤n multigraph on ToR switches have
// at most one edge per (node, color), i.e. assigning color classes to
// middle switches puts at most one matched flow on each fabric link.
func TestColoringYieldsLinkDisjointRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 4 // middle switches
	for trial := 0; trial < 50; trial++ {
		// Random multigraph on 2n x 2n ToR switches with degree ≤ n.
		g := matching.Graph{NumLeft: 2 * n, NumRight: 2 * n}
		degL := make([]int, 2*n)
		degR := make([]int, 2*n)
		for e := 0; e < 3*n; e++ {
			l, r := rng.Intn(2*n), rng.Intn(2*n)
			if degL[l] >= n || degR[r] >= n {
				continue
			}
			degL[l]++
			degR[r]++
			g.Edges = append(g.Edges, matching.Edge{Left: l, Right: r})
		}
		color, err := EdgeColor(g, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify(g, color, n); err != nil {
			t.Fatal(err)
		}
	}
}

// verify reports an error unless color is a proper edge coloring of g
// using colors in [0, colors).
func verify(g matching.Graph, color []int, colors int) error {
	if len(color) != len(g.Edges) {
		return fmt.Errorf("coloring: %d colors for %d edges", len(color), len(g.Edges))
	}
	seenL := make(map[[2]int]int)
	seenR := make(map[[2]int]int)
	for ei, c := range color {
		if c < 0 || c >= colors {
			return fmt.Errorf("coloring: edge %d has color %d, want [0,%d)", ei, c, colors)
		}
		e := g.Edges[ei]
		if other, ok := seenL[[2]int{e.Left, c}]; ok {
			return fmt.Errorf("coloring: edges %d and %d share left node %d with color %d", other, ei, e.Left, c)
		}
		if other, ok := seenR[[2]int{e.Right, c}]; ok {
			return fmt.Errorf("coloring: edges %d and %d share right node %d with color %d", other, ei, e.Right, c)
		}
		seenL[[2]int{e.Left, c}] = ei
		seenR[[2]int{e.Right, c}] = ei
	}
	return nil
}

// classSizes returns the number of edges per color class.
func classSizes(color []int, colors int) []int {
	sizes := make([]int, colors)
	for _, c := range color {
		if c >= 0 && c < colors {
			sizes[c]++
		}
	}
	return sizes
}
