// Package coloring implements constructive edge coloring of bipartite
// multigraphs (König's edge-coloring theorem): a bipartite multigraph with
// maximum degree Δ admits a proper Δ-edge-coloring.
//
// In the paper (footnote 5 and Lemma 5.2), an n-edge-coloring of the
// bipartite multigraph G^C — whose nodes are input/output ToR switches and
// whose edges are flows — corresponds to a link-disjoint routing of the
// flows in the Clos network C_n: all edges of color m are assigned to
// middle switch M_m. Step 2 of the Doom-Switch algorithm (Algorithm 1)
// uses exactly this correspondence.
//
// The implementation colors edges one at a time, repairing conflicts by
// flipping alternating Kempe chains; it runs in O(E·(V+E)) worst case,
// which is ample for the instance sizes of this library.
package coloring

import (
	"fmt"

	"closnet/internal/matching"
)

const none = -1

// EdgeColor returns a proper edge coloring of the bipartite multigraph g
// using at most `colors` colors: no two edges sharing an endpoint receive
// the same color. Colors are 0-based; the result is indexed like g.Edges.
//
// By König's theorem a coloring exists whenever colors ≥ g.MaxDegree();
// EdgeColor returns an error otherwise, and also if g is malformed.
func EdgeColor(g matching.Graph, colors int) ([]int, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if d := g.MaxDegree(); colors < d {
		return nil, fmt.Errorf("coloring: %d colors < maximum degree %d", colors, d)
	}
	st := &state{
		g:     g,
		atL:   newTable(g.NumLeft, colors),
		atR:   newTable(g.NumRight, colors),
		color: make([]int, len(g.Edges)),
	}
	for i := range st.color {
		st.color[i] = none
	}

	for ei, e := range g.Edges {
		a := freeAt(st.atL, e.Left)  // free at left endpoint
		b := freeAt(st.atR, e.Right) // free at right endpoint
		if a == none || b == none {
			// Impossible while colors ≥ max degree: an endpoint with all
			// colors occupied would have degree > colors.
			return nil, fmt.Errorf("coloring: no free color at edge %d (internal invariant violated)", ei)
		}
		if st.atR[e.Right][a] != none {
			// Color a is busy at the right endpoint. Flip the maximal
			// alternating (a, b)-chain starting at the right endpoint.
			// In a bipartite graph the chain reaches left nodes only via
			// a-colored edges, and a is free at e.Left, so the chain
			// never touches e.Left; after the flip, a is free at both
			// endpoints.
			st.flipChain(e.Right, a, b)
		}
		st.assign(ei, a)
	}
	return st.color, nil
}

type state struct {
	g        matching.Graph
	atL, atR [][]int // (node, color) -> edge index or none
	color    []int   // edge index -> color or none
}

func newTable(nodes, colors int) [][]int {
	t := make([][]int, nodes)
	backing := make([]int, nodes*colors)
	for i := range backing {
		backing[i] = none
	}
	for i := range t {
		t[i], backing = backing[:colors], backing[colors:]
	}
	return t
}

func freeAt(table [][]int, node int) int {
	for c, e := range table[node] {
		if e == none {
			return c
		}
	}
	return none
}

func (st *state) assign(ei, c int) {
	e := st.g.Edges[ei]
	st.color[ei] = c
	st.atL[e.Left][c] = ei
	st.atR[e.Right][c] = ei
}

// flipChain collects the maximal alternating chain of colors (a, b)
// starting at right node r with an a-colored edge, then swaps colors a
// and b along it. The chain is a simple path (every node has at most one
// edge of each color), so collection terminates.
func (st *state) flipChain(r, a, b int) {
	var chain []int
	node, onRight, want := r, true, a
	for {
		var ei int
		if onRight {
			ei = st.atR[node][want]
		} else {
			ei = st.atL[node][want]
		}
		if ei == none {
			break
		}
		chain = append(chain, ei)
		e := st.g.Edges[ei]
		if onRight {
			node = e.Left
		} else {
			node = e.Right
		}
		onRight = !onRight
		if want == a {
			want = b
		} else {
			want = a
		}
	}
	// Clear all chain entries first, then re-add with swapped colors:
	// recoloring in place would clobber the neighbors' table slots.
	for _, ei := range chain {
		e := st.g.Edges[ei]
		c := st.color[ei]
		st.atL[e.Left][c] = none
		st.atR[e.Right][c] = none
	}
	for _, ei := range chain {
		c := st.color[ei]
		if c == a {
			c = b
		} else {
			c = a
		}
		st.assign(ei, c)
	}
}
