package maxflow

import (
	"math/rand"
	"testing"
)

func mustEdge(t *testing.T, g *Graph, u, v int, c int64) int {
	t.Helper()
	id, err := g.AddEdge(u, v, c)
	if err != nil {
		t.Fatalf("AddEdge(%d,%d,%d): %v", u, v, c, err)
	}
	return id
}

func TestMaxFlowSimple(t *testing.T) {
	// s -> a -> t with a bottleneck of 3.
	g := NewGraph(3)
	mustEdge(t, g, 0, 1, 5)
	mustEdge(t, g, 1, 2, 3)
	r, err := g.Max(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 3 {
		t.Errorf("flow = %d, want 3", r.Value)
	}
}

func TestMaxFlowDiamond(t *testing.T) {
	// Classic diamond with a cross edge.
	g := NewGraph(4)
	mustEdge(t, g, 0, 1, 10)
	mustEdge(t, g, 0, 2, 10)
	e12 := mustEdge(t, g, 1, 2, 1)
	mustEdge(t, g, 1, 3, 10)
	mustEdge(t, g, 2, 3, 10)
	r, err := g.Max(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 20 {
		t.Errorf("flow = %d, want 20", r.Value)
	}
	if f := r.Flow(e12); f != 0 {
		t.Errorf("cross edge carries %d, want 0", f)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := NewGraph(2)
	r, err := g.Max(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 0 {
		t.Errorf("flow = %d, want 0", r.Value)
	}
}

func TestMaxFlowErrors(t *testing.T) {
	g := NewGraph(2)
	if _, err := g.AddEdge(0, 5, 1); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := g.AddEdge(0, 1, -1); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := g.Max(0, 0); err == nil {
		t.Error("s == t accepted")
	}
	if _, err := g.Max(0, 9); err == nil {
		t.Error("out-of-range terminal accepted")
	}
}

func TestFlowConservationAndCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(8) + 2
		g := NewGraph(n)
		type rec struct {
			id   int
			u, v int
			c    int64
		}
		var recs []rec
		for e := 0; e < rng.Intn(20); e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c := int64(rng.Intn(10))
			recs = append(recs, rec{mustEdge(t, g, u, v, c), u, v, c})
		}
		r, err := g.Max(0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		// Capacity constraints and conservation.
		net := make([]int64, n)
		for _, rc := range recs {
			f := r.Flow(rc.id)
			if f < 0 || f > rc.c {
				t.Fatalf("trial %d: edge flow %d outside [0,%d]", trial, f, rc.c)
			}
			net[rc.u] -= f
			net[rc.v] += f
		}
		if net[0] != -r.Value || net[n-1] != r.Value {
			t.Fatalf("trial %d: terminal imbalance", trial)
		}
		for u := 1; u < n-1; u++ {
			if net[u] != 0 {
				t.Fatalf("trial %d: node %d violates conservation by %d", trial, u, net[u])
			}
		}
	}
}

// minCut returns the source side of a minimum s-t cut after r = g.Max:
// the set of nodes reachable from s in the residual graph, as a boolean
// slice indexed by node.
func minCut(g *Graph, r *Result, s int) []bool {
	side := make([]bool, g.numNodes)
	side[s] = true
	queue := []int{s}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, ei := range g.heads[u] {
			v := g.edges[ei].to
			if r.residual[ei] > 0 && !side[v] {
				side[v] = true
				queue = append(queue, v)
			}
		}
	}
	return side
}

// TestMaxFlowMinCut checks the max-flow min-cut theorem on random graphs:
// the capacity of the extracted cut equals the flow value.
func TestMaxFlowMinCut(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(8) + 2
		g := NewGraph(n)
		type rec struct {
			id   int
			u, v int
			c    int64
		}
		var recs []rec
		for e := 0; e < rng.Intn(24); e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c := int64(rng.Intn(8))
			recs = append(recs, rec{mustEdge(t, g, u, v, c), u, v, c})
		}
		r, err := g.Max(0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		side := minCut(g, r, 0)
		if !side[0] || side[n-1] {
			t.Fatalf("trial %d: cut does not separate terminals", trial)
		}
		var cutCap int64
		for _, rc := range recs {
			if side[rc.u] && !side[rc.v] {
				cutCap += rc.c
			}
		}
		if cutCap != r.Value {
			t.Fatalf("trial %d: cut capacity %d != flow %d", trial, cutCap, r.Value)
		}
	}
}

// TestClosBisection verifies the full-bisection-bandwidth shape on a
// hand-built C_n fabric graph: the max flow from all inputs to all
// outputs through the middle stage equals the total server-facing
// capacity (2n² for n² server links of unit capacity per side... here we
// check fabric capacity 2n² ≥ server capacity 2n² exactly).
func TestClosBisection(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		// Nodes: super-source, 2n inputs, n middles, 2n outputs, super-sink.
		num := 1 + 2*n + n + 2*n + 1
		s, tk := 0, num-1
		input := func(i int) int { return 1 + i }
		middle := func(m int) int { return 1 + 2*n + m }
		output := func(o int) int { return 1 + 2*n + n + o }
		g := NewGraph(num)
		for i := 0; i < 2*n; i++ {
			// Each ToR has n unit server links.
			mustEdge(t, g, s, input(i), int64(n))
			mustEdge(t, g, output(i), tk, int64(n))
			for m := 0; m < n; m++ {
				mustEdge(t, g, input(i), middle(m), 1)
				mustEdge(t, g, middle(m), output(i), 1)
			}
		}
		r, err := g.Max(s, tk)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(2 * n * n); r.Value != want {
			t.Errorf("C_%d fabric max flow = %d, want %d", n, r.Value, want)
		}
	}
}
