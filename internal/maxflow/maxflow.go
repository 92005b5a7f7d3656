// Package maxflow implements Dinic's maximum-flow algorithm on integer
// capacities, with a minimum-cut extractor.
//
// The library uses it to verify the full-bisection-bandwidth property of
// Clos networks (§1: the minimum capacity of a global cut inside the
// network is at least that of a cut outside it) and to check integral
// routability of unit-demand flow subsets, the splittable counterpart of
// the matching-based arguments in §3 and §5.
package maxflow

import (
	"fmt"
	"math"
)

// Graph is a flow network under construction. Nodes are dense 0-based
// indices. Use AddEdge to add directed capacitated edges; reverse edges
// with zero capacity are added automatically.
type Graph struct {
	numNodes int
	heads    [][]int // node -> indices into edges
	edges    []edge
}

type edge struct {
	to  int
	cap int64
}

// NewGraph returns an empty flow network with n nodes.
func NewGraph(n int) *Graph {
	return &Graph{
		numNodes: n,
		heads:    make([][]int, n),
	}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.numNodes }

// AddEdge adds a directed edge u→v with the given capacity and returns
// its index (usable with Flow after a Max run). It returns an error on
// out-of-range endpoints or negative capacity.
func (g *Graph) AddEdge(u, v int, capacity int64) (int, error) {
	if u < 0 || u >= g.numNodes || v < 0 || v >= g.numNodes {
		return 0, fmt.Errorf("maxflow: edge %d->%d out of range [0,%d)", u, v, g.numNodes)
	}
	if capacity < 0 {
		return 0, fmt.Errorf("maxflow: negative capacity %d", capacity)
	}
	id := len(g.edges)
	g.edges = append(g.edges, edge{to: v, cap: capacity})
	g.edges = append(g.edges, edge{to: u, cap: 0})
	g.heads[u] = append(g.heads[u], id)
	g.heads[v] = append(g.heads[v], id+1)
	return id, nil
}

// Result holds the outcome of a max-flow computation.
type Result struct {
	Value int64
	// residual[i] is the residual capacity of internal edge i.
	residual []int64
	original []edge
}

// Flow returns the flow pushed through the edge returned by AddEdge.
func (r *Result) Flow(edgeID int) int64 {
	return r.original[edgeID].cap - r.residual[edgeID]
}

// Max computes the maximum s→t flow using Dinic's algorithm. The graph is
// not modified; repeated calls are independent.
func (g *Graph) Max(s, t int) (*Result, error) {
	if s < 0 || s >= g.numNodes || t < 0 || t >= g.numNodes {
		return nil, fmt.Errorf("maxflow: terminal out of range")
	}
	if s == t {
		return nil, fmt.Errorf("maxflow: source equals sink")
	}

	res := make([]int64, len(g.edges))
	for i, e := range g.edges {
		res[i] = e.cap
	}
	level := make([]int, g.numNodes)
	iter := make([]int, g.numNodes)
	queue := make([]int, 0, g.numNodes)

	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		level[s] = 0
		queue = append(queue[:0], s)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, ei := range g.heads[u] {
				v := g.edges[ei].to
				if res[ei] > 0 && level[v] < 0 {
					level[v] = level[u] + 1
					queue = append(queue, v)
				}
			}
		}
		return level[t] >= 0
	}

	var dfs func(u int, f int64) int64
	dfs = func(u int, f int64) int64 {
		if u == t {
			return f
		}
		for ; iter[u] < len(g.heads[u]); iter[u]++ {
			ei := g.heads[u][iter[u]]
			v := g.edges[ei].to
			if res[ei] <= 0 || level[v] != level[u]+1 {
				continue
			}
			pushed := dfs(v, minInt64(f, res[ei]))
			if pushed > 0 {
				res[ei] -= pushed
				res[ei^1] += pushed
				return pushed
			}
		}
		return 0
	}

	var total int64
	for bfs() {
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := dfs(s, math.MaxInt64)
			if f == 0 {
				break
			}
			total += f
		}
	}
	return &Result{Value: total, residual: res, original: g.edges}, nil
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
