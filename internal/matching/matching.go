// Package matching implements maximum bipartite matching on multigraphs.
//
// The paper uses maximum matchings twice: Lemma 3.2 identifies the maximum
// throughput across a macro-switch with the size of a maximum matching in
// the bipartite multigraph G^MS whose left/right nodes are sources and
// destinations and whose edges are the flows; and the Doom-Switch
// algorithm (Algorithm 1) starts from such a matching.
//
// The implementation is Hopcroft–Karp, O(E·sqrt(V)). The package's tests
// keep a greedy matcher beside it as the benchmarks' ablation baseline.
package matching

import (
	"fmt"
)

// Edge is an edge of a bipartite multigraph: Left indexes the left node
// set, Right the right node set. Parallel edges are allowed (they model
// multiple flows between the same server pair).
type Edge struct {
	Left, Right int
}

// Graph is a bipartite multigraph with dense 0-based node indexing.
type Graph struct {
	NumLeft, NumRight int
	Edges             []Edge
}

// Validate reports an error if any edge endpoint is out of range.
func (g Graph) Validate() error {
	if g.NumLeft < 0 || g.NumRight < 0 {
		return fmt.Errorf("matching: negative node count (%d, %d)", g.NumLeft, g.NumRight)
	}
	for i, e := range g.Edges {
		if e.Left < 0 || e.Left >= g.NumLeft {
			return fmt.Errorf("matching: edge %d: left endpoint %d out of range [0,%d)", i, e.Left, g.NumLeft)
		}
		if e.Right < 0 || e.Right >= g.NumRight {
			return fmt.Errorf("matching: edge %d: right endpoint %d out of range [0,%d)", i, e.Right, g.NumRight)
		}
	}
	return nil
}

// MaxDegree returns the maximum degree over all nodes of the multigraph.
func (g Graph) MaxDegree() int {
	degL := make([]int, g.NumLeft)
	degR := make([]int, g.NumRight)
	max := 0
	for _, e := range g.Edges {
		degL[e.Left]++
		degR[e.Right]++
		if degL[e.Left] > max {
			max = degL[e.Left]
		}
		if degR[e.Right] > max {
			max = degR[e.Right]
		}
	}
	return max
}

// Matching is a set of pairwise node-disjoint edges, given as indices
// into Graph.Edges.
type Matching []int

// MaxMatching returns a maximum matching of g computed with
// Hopcroft–Karp. Parallel edges are collapsed internally (at most one
// parallel edge can ever be matched); the returned indices identify one
// representative edge per matched pair.
func MaxMatching(g Graph) (Matching, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	const unmatched = -1

	// adj[l] lists edge indices leaving left node l; parallel edges are
	// deduplicated per (l, r) pair to keep layers small.
	adj := make([][]int, g.NumLeft)
	seen := make(map[[2]int]bool, len(g.Edges))
	for i, e := range g.Edges {
		key := [2]int{e.Left, e.Right}
		if seen[key] {
			continue
		}
		seen[key] = true
		adj[e.Left] = append(adj[e.Left], i)
	}

	matchL := make([]int, g.NumLeft) // edge index matched at left node, or -1
	matchR := make([]int, g.NumRight)
	for i := range matchL {
		matchL[i] = unmatched
	}
	for i := range matchR {
		matchR[i] = unmatched
	}

	dist := make([]int, g.NumLeft)
	queue := make([]int, 0, g.NumLeft)

	// bfs layers free left nodes; returns true if an augmenting path
	// exists.
	bfs := func() bool {
		const inf = int(^uint(0) >> 1)
		queue = queue[:0]
		for l := 0; l < g.NumLeft; l++ {
			if matchL[l] == unmatched {
				dist[l] = 0
				queue = append(queue, l)
			} else {
				dist[l] = inf
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			l := queue[qi]
			for _, ei := range adj[l] {
				r := g.Edges[ei].Right
				me := matchR[r]
				if me == unmatched {
					found = true
					continue
				}
				nl := g.Edges[me].Left
				if dist[nl] == inf {
					dist[nl] = dist[l] + 1
					queue = append(queue, nl)
				}
			}
		}
		return found
	}

	var dfs func(l int) bool
	dfs = func(l int) bool {
		for _, ei := range adj[l] {
			r := g.Edges[ei].Right
			me := matchR[r]
			if me == unmatched || (dist[g.Edges[me].Left] == dist[l]+1 && dfs(g.Edges[me].Left)) {
				matchL[l] = ei
				matchR[r] = ei
				return true
			}
		}
		const inf = int(^uint(0) >> 1)
		dist[l] = inf
		return false
	}

	for bfs() {
		for l := 0; l < g.NumLeft; l++ {
			if matchL[l] == unmatched {
				dfs(l)
			}
		}
	}

	var m Matching
	for l := 0; l < g.NumLeft; l++ {
		if matchL[l] != unmatched {
			m = append(m, matchL[l])
		}
	}
	return m, nil
}
