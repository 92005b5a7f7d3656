package matching

import (
	"fmt"
	"math/rand"
	"testing"
)

// bruteForceMax returns the size of a maximum matching by exhaustive
// search over edge subsets. Only usable for tiny graphs.
func bruteForceMax(g Graph) int {
	best := 0
	var rec func(i int, usedL, usedR uint64, size int)
	rec = func(i int, usedL, usedR uint64, size int) {
		if size > best {
			best = size
		}
		if i == len(g.Edges) {
			return
		}
		// Prune: even taking every remaining edge cannot beat best.
		if size+len(g.Edges)-i <= best {
			return
		}
		rec(i+1, usedL, usedR, size)
		e := g.Edges[i]
		lBit, rBit := uint64(1)<<e.Left, uint64(1)<<e.Right
		if usedL&lBit == 0 && usedR&rBit == 0 {
			rec(i+1, usedL|lBit, usedR|rBit, size+1)
		}
	}
	rec(0, 0, 0, 0)
	return best
}

func TestMaxMatchingSimpleCases(t *testing.T) {
	tests := []struct {
		name string
		g    Graph
		want int
	}{
		{"empty", Graph{NumLeft: 3, NumRight: 3}, 0},
		{"single edge", Graph{1, 1, []Edge{{0, 0}}}, 1},
		{"parallel edges", Graph{1, 1, []Edge{{0, 0}, {0, 0}, {0, 0}}}, 1},
		{"perfect matching", Graph{2, 2, []Edge{{0, 0}, {1, 1}}}, 2},
		{"star", Graph{1, 4, []Edge{{0, 0}, {0, 1}, {0, 2}, {0, 3}}}, 1},
		{
			// Greedy on edge order {0,0},{1,0} picks {0,0} and stalls;
			// maximum is 2 via {0,1},{1,0}.
			"needs augmenting path",
			Graph{2, 2, []Edge{{0, 0}, {1, 0}, {0, 1}}},
			2,
		},
		{
			// Example 3.3's G^MS for k=1: sources {s11, s21},
			// destinations {t11, t21}; edges (s11,t11), (s21,t21),
			// (s21,t11).
			"example 3.3",
			Graph{2, 2, []Edge{{0, 0}, {1, 1}, {1, 0}}},
			2,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := MaxMatching(tt.g)
			if err != nil {
				t.Fatalf("MaxMatching: %v", err)
			}
			if err := verify(tt.g, m); err != nil {
				t.Fatalf("verify: %v", err)
			}
			if len(m) != tt.want {
				t.Errorf("matching size = %d, want %d", len(m), tt.want)
			}
		})
	}
}

func TestMaxMatchingAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nl, nr := rng.Intn(5)+1, rng.Intn(5)+1
		ne := rng.Intn(10)
		g := Graph{NumLeft: nl, NumRight: nr}
		for e := 0; e < ne; e++ {
			g.Edges = append(g.Edges, Edge{rng.Intn(nl), rng.Intn(nr)})
		}
		m, err := MaxMatching(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify(g, m); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := bruteForceMax(g); len(m) != want {
			t.Fatalf("trial %d: size %d, want %d (graph %+v)", trial, len(m), want, g)
		}
	}
}

func TestGreedyMatchingIsValidAndMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		nl, nr := rng.Intn(6)+1, rng.Intn(6)+1
		g := Graph{NumLeft: nl, NumRight: nr}
		for e := 0; e < rng.Intn(12); e++ {
			g.Edges = append(g.Edges, Edge{rng.Intn(nl), rng.Intn(nr)})
		}
		m, err := greedyMatching(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify(g, m); err != nil {
			t.Fatal(err)
		}
		// Maximal: no remaining edge has both endpoints free.
		usedL := make([]bool, nl)
		usedR := make([]bool, nr)
		for _, ei := range m {
			usedL[g.Edges[ei].Left] = true
			usedR[g.Edges[ei].Right] = true
		}
		for _, e := range g.Edges {
			if !usedL[e.Left] && !usedR[e.Right] {
				t.Fatalf("trial %d: greedy matching not maximal", trial)
			}
		}
		// A maximal matching is at least half a maximum one.
		max, _ := MaxMatching(g)
		if 2*len(m) < len(max) {
			t.Fatalf("trial %d: greedy %d < half of max %d", trial, len(m), len(max))
		}
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Graph{
		{NumLeft: -1, NumRight: 1},
		{1, 1, []Edge{{1, 0}}},
		{1, 1, []Edge{{0, 1}}},
		{1, 1, []Edge{{-1, 0}}},
	}
	for i, g := range bad {
		if _, err := MaxMatching(g); err == nil {
			t.Errorf("graph %d: expected error", i)
		}
		if _, err := greedyMatching(g); err == nil {
			t.Errorf("graph %d: greedy expected error", i)
		}
	}
}

func TestVerifyRejectsBadMatchings(t *testing.T) {
	g := Graph{2, 2, []Edge{{0, 0}, {0, 1}, {1, 1}}}
	if err := verify(g, Matching{0, 1}); err == nil {
		t.Error("shared left endpoint accepted")
	}
	if err := verify(g, Matching{1, 2}); err == nil {
		t.Error("shared right endpoint accepted")
	}
	if err := verify(g, Matching{5}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := verify(g, Matching{0, 2}); err != nil {
		t.Errorf("valid matching rejected: %v", err)
	}
}

func TestMaxDegree(t *testing.T) {
	g := Graph{2, 3, []Edge{{0, 0}, {0, 1}, {0, 2}, {1, 2}}}
	if got := g.MaxDegree(); got != 3 {
		t.Errorf("MaxDegree = %d, want 3", got)
	}
	if got := (Graph{NumLeft: 2, NumRight: 2}).MaxDegree(); got != 0 {
		t.Errorf("MaxDegree of empty graph = %d", got)
	}
	// Parallel edges count toward degree.
	p := Graph{1, 1, []Edge{{0, 0}, {0, 0}}}
	if got := p.MaxDegree(); got != 2 {
		t.Errorf("MaxDegree with parallel edges = %d, want 2", got)
	}
}

func TestMaxMatchingLargeBipartite(t *testing.T) {
	// Complete bipartite K_{40,40}: perfect matching of size 40.
	g := Graph{NumLeft: 40, NumRight: 40}
	for l := 0; l < 40; l++ {
		for r := 0; r < 40; r++ {
			g.Edges = append(g.Edges, Edge{l, r})
		}
	}
	m, err := MaxMatching(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 40 {
		t.Errorf("matching size = %d, want 40", len(m))
	}
	if err := verify(g, m); err != nil {
		t.Error(err)
	}
}

// greedyMatching returns a (maximal, not necessarily maximum) matching
// built by a single greedy pass: the ablation baseline of
// BenchmarkMatchingGreedy.
func greedyMatching(g Graph) (Matching, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	usedL := make([]bool, g.NumLeft)
	usedR := make([]bool, g.NumRight)
	var m Matching
	for i, e := range g.Edges {
		if usedL[e.Left] || usedR[e.Right] {
			continue
		}
		usedL[e.Left] = true
		usedR[e.Right] = true
		m = append(m, i)
	}
	return m, nil
}

// verify reports an error unless m is a valid matching of g: edge indices
// in range and no two edges sharing an endpoint.
func verify(g Graph, m Matching) error {
	usedL := make([]bool, g.NumLeft)
	usedR := make([]bool, g.NumRight)
	for _, ei := range m {
		if ei < 0 || ei >= len(g.Edges) {
			return fmt.Errorf("matching: edge index %d out of range", ei)
		}
		e := g.Edges[ei]
		if usedL[e.Left] {
			return fmt.Errorf("matching: left node %d matched twice", e.Left)
		}
		if usedR[e.Right] {
			return fmt.Errorf("matching: right node %d matched twice", e.Right)
		}
		usedL[e.Left] = true
		usedR[e.Right] = true
	}
	return nil
}

// The Hopcroft–Karp vs greedy matching ablation of DESIGN.md §5, on a
// random 128×128 multigraph with 1,024 edges.

func matchingInstance() Graph {
	rng := rand.New(rand.NewSource(2))
	g := Graph{NumLeft: 128, NumRight: 128}
	for e := 0; e < 1024; e++ {
		g.Edges = append(g.Edges, Edge{Left: rng.Intn(128), Right: rng.Intn(128)})
	}
	return g
}

func BenchmarkMatchingHopcroftKarp(b *testing.B) {
	g := matchingInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaxMatching(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchingGreedy(b *testing.B) {
	g := matchingInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := greedyMatching(g); err != nil {
			b.Fatal(err)
		}
	}
}
