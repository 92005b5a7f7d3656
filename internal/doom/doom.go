// Package doom implements the Doom-Switch algorithm (Algorithm 1 of §5),
// which routes a flow collection in a Clos network so that the max-min
// fair allocation approximates a throughput-max-min fair allocation:
//
//  1. Compute a maximum matching F' of the bipartite multigraph G^MS
//     (sources × destinations, one edge per flow).
//  2. Compute an n-edge-coloring of the bipartite multigraph G^C
//     restricted to F' (input × output ToR switches) — possible because
//     every ToR has degree at most n under a matching — and assign the
//     flows of color m to middle switch M_m, yielding a link-disjoint
//     routing of F'.
//  3. Assign all remaining flows to the middle switch whose color class
//     is smallest: the eponymous doomed switch.
//
// The matched flows then rise toward rate 1 while the doomed flows are
// crushed onto one middle switch, trading fairness for throughput
// (Theorem 5.4).
package doom

import (
	"context"
	"fmt"

	"closnet/internal/coloring"
	"closnet/internal/core"
	"closnet/internal/matching"
	"closnet/internal/obs"
	"closnet/internal/topology"
)

// Result is the routing produced by the Doom-Switch algorithm.
type Result struct {
	// Assignment maps each flow to its middle switch (1-based).
	Assignment core.MiddleAssignment
	// Matched marks the flows of the maximum matching F'.
	Matched []bool
	// DoomMiddle is the middle switch (1-based) that received F \ F'.
	// It is 0 when every flow was matched.
	DoomMiddle int
}

// MatchedCount returns |F'|, which by Lemma 3.2 equals the maximum
// throughput across the macro-switch.
func (r *Result) MatchedCount() int {
	count := 0
	for _, m := range r.Matched {
		if m {
			count++
		}
	}
	return count
}

// VictimPolicy selects the doomed middle switch (0-based color) given
// the sizes of the matching's color classes. The paper's Algorithm 1
// picks a smallest class; alternatives are provided as ablations.
type VictimPolicy func(classSizes []int) int

// LeastLoaded returns the paper's policy: the smallest color class,
// lowest index on ties.
func LeastLoaded() VictimPolicy {
	return func(sizes []int) int {
		victim := 0
		for m := 1; m < len(sizes); m++ {
			if sizes[m] < sizes[victim] {
				victim = m
			}
		}
		return victim
	}
}

// FixedMiddle always dooms onto color m (0-based), clamped to range.
// It is the ablation baseline: ignoring class sizes wastes throughput
// whenever the fixed class is not minimal.
func FixedMiddle(m int) VictimPolicy {
	return func(sizes []int) int {
		if m < 0 || m >= len(sizes) {
			return 0
		}
		return m
	}
}

// MostLoaded picks the largest class — the deliberately worst choice,
// used to bound the policy's impact in the ablation benchmarks.
func MostLoaded() VictimPolicy {
	return func(sizes []int) int {
		victim := 0
		for m := 1; m < len(sizes); m++ {
			if sizes[m] > sizes[victim] {
				victim = m
			}
		}
		return victim
	}
}

// Route runs the Doom-Switch algorithm on fs over c with the paper's
// least-loaded victim policy.
func Route(c topology.Fabric, fs core.Collection) (*Result, error) {
	return RouteWithPolicy(c, fs, LeastLoaded())
}

// RouteWithPolicy runs the Doom-Switch algorithm with a custom victim
// policy for step 3.
func RouteWithPolicy(c topology.Fabric, fs core.Collection, victim VictimPolicy) (*Result, error) {
	return RouteWithObs(c, fs, victim, nil)
}

// RouteWithObs runs the Doom-Switch algorithm with a custom victim
// policy and the observability layer attached: route/matched/doomed
// counters in o's registry and a doom.route span (the root of its own
// trace on o's journal) carrying the matching size, the victim middle
// and the color-class sizes. A nil o disables instrumentation.
func RouteWithObs(c topology.Fabric, fs core.Collection, victim VictimPolicy, o *obs.Obs) (*Result, error) {
	return RouteCtx(context.Background(), c, fs, victim, o)
}

// RouteCtx is RouteWithObs bounded by a context: the algorithm polls
// ctx between its three phases (matching, coloring, dooming), so an
// abandoned request stops before starting the next super-linear step.
// A cancelled run returns ctx.Err() and no partial result. The run is
// o's doom.route span.
func RouteCtx(ctx context.Context, c topology.Fabric, fs core.Collection, victim VictimPolicy, o *obs.Obs) (*Result, error) {
	sp, ctx := o.StartSpan(ctx, "doom.route")
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := fs.Validate(c.Network()); err != nil {
		return nil, fmt.Errorf("doom: %w", err)
	}
	n := c.Size()
	res := &Result{
		Assignment: make(core.MiddleAssignment, len(fs)),
		Matched:    make([]bool, len(fs)),
	}
	if len(fs) == 0 {
		return res, nil
	}

	// Step 1: maximum matching of G^MS (server-level multigraph).
	gms, err := serverGraph(c, fs)
	if err != nil {
		return nil, err
	}
	matched, err := matching.MaxMatching(gms)
	if err != nil {
		return nil, fmt.Errorf("doom: matching: %w", err)
	}
	for _, fi := range matched {
		res.Matched[fi] = true
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Step 2: edge-coloring of G^C restricted to F'. Edges of G^C are
	// the matched flows, identified by their (input, output) ToR pair;
	// each ToR's servers are each used by at most one matched flow, so
	// the degree is at most ServersPerToR() and König guarantees a
	// maxDegree-coloring. On a full-bisection Clos that is at most n
	// colors and the color classes are link-disjoint; an oversubscribed
	// fabric (servers per ToR > path choices) may need more colors, which
	// are folded onto the n choices modulo n — classes then share fabric
	// links, trading the disjointness guarantee for a defined routing.
	gc := matching.Graph{NumLeft: c.NumToRs(), NumRight: c.NumToRs()}
	for _, fi := range matched {
		in, ok := c.InputOf(fs[fi].Src)
		if !ok {
			return nil, fmt.Errorf("doom: flow %d source is not a server", fi)
		}
		out, ok := c.OutputOf(fs[fi].Dst)
		if !ok {
			return nil, fmt.Errorf("doom: flow %d destination is not a server", fi)
		}
		gc.Edges = append(gc.Edges, matching.Edge{Left: in - 1, Right: out - 1})
	}
	degree := make([]int, 2*c.NumToRs())
	numColors := n
	for _, e := range gc.Edges {
		degree[e.Left]++
		degree[c.NumToRs()+e.Right]++
	}
	for _, d := range degree {
		if d > numColors {
			numColors = d
		}
	}
	colors, err := coloring.EdgeColor(gc, numColors)
	if err != nil {
		return nil, fmt.Errorf("doom: coloring: %w", err)
	}
	for ei, fi := range matched {
		res.Assignment[fi] = colors[ei]%n + 1
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Step 3: doom the remaining flows onto the middle switch chosen by
	// the victim policy (the paper: smallest color class). Class sizes
	// count the folded classes, one per path choice.
	sizes := make([]int, n)
	for _, x := range colors {
		sizes[x%n]++
	}
	doomed := victim(sizes)
	if doomed < 0 || doomed >= n {
		return nil, fmt.Errorf("doom: victim policy returned color %d outside [0,%d)", doomed, n)
	}
	res.DoomMiddle = doomed + 1
	allMatched := true
	for fi := range fs {
		if !res.Matched[fi] {
			res.Assignment[fi] = res.DoomMiddle
			allMatched = false
		}
	}
	if allMatched {
		res.DoomMiddle = 0
	}
	reg := o.Registry()
	reg.Counter("doom.routes").Inc()
	reg.Counter("doom.matched_flows").Add(int64(len(matched)))
	reg.Counter("doom.doomed_flows").Add(int64(len(fs) - len(matched)))
	sp.Int("flows", len(fs)).Int("matched", len(matched)).Int("doom_middle", res.DoomMiddle)
	if sp.Recording() {
		sp.Str("class_sizes", fmt.Sprint(sizes))
	}
	return res, nil
}

// serverGraph builds G^MS: the bipartite multigraph whose left and right
// node sets are the source and destination servers of c and whose edges
// are the flows, with edge index = flow index.
func serverGraph(c topology.Fabric, fs core.Collection) (matching.Graph, error) {
	numServers := c.NumToRs() * c.ServersPerToR()
	g := matching.Graph{NumLeft: numServers, NumRight: numServers}
	for fi, f := range fs {
		in, ok := c.InputOf(f.Src)
		if !ok {
			return g, fmt.Errorf("doom: flow %d source is not a server", fi)
		}
		out, ok := c.OutputOf(f.Dst)
		if !ok {
			return g, fmt.Errorf("doom: flow %d destination is not a server", fi)
		}
		// Dense server index: (switch-1)*serversPerToR + offset in switch.
		_, sj, _ := c.SourceIndexOf(f.Src)
		_, dj, _ := c.DestIndexOf(f.Dst)
		srcIdx := (in-1)*c.ServersPerToR() + sj - 1
		dstIdx := (out-1)*c.ServersPerToR() + dj - 1
		g.Edges = append(g.Edges, matching.Edge{Left: srcIdx, Right: dstIdx})
	}
	return g, nil
}
