// Package workload generates stochastic flow collections over Clos
// networks for the simulation-based evaluation (experiment S1, mirroring
// the extended version of the paper referenced in §6):
//
//   - Uniform: independent uniformly random (source, destination) pairs
//   - Permutation: a random one-to-one server permutation (every server
//     sends and receives exactly one flow — the admission-control regime)
//   - Hotspot: a fraction of flows converge on one destination (incast)
//   - Skewed: source popularity follows a Zipf-like law
//
// Generators are deterministic given the caller's *rand.Rand, and every
// generator also emits the parallel macro-switch collection so that
// network rates can be compared against macro-switch rates flow by flow.
// Generators lists them as a named registry with canonical parameters.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"closnet/internal/core"
	"closnet/internal/topology"
)

// Pair is a flow collection over a Clos network together with the same
// flows over its macro-switch (identical indexing).
type Pair struct {
	Clos  core.Collection
	Macro core.Collection
}

// gen emits one flow given (i, j) server indices on both topologies.
type gen struct {
	c    *topology.Clos
	ms   *topology.MacroSwitch
	pair Pair
}

func newGen(c *topology.Clos, ms *topology.MacroSwitch) (*gen, error) {
	if c.NumToRs() != ms.NumToRs() || c.ServersPerToR() != ms.ServersPerToR() {
		return nil, fmt.Errorf("workload: Clos shape (%d ToRs, %d servers) does not match macro-switch shape (%d, %d)",
			c.NumToRs(), c.ServersPerToR(), ms.NumToRs(), ms.ServersPerToR())
	}
	return &gen{c: c, ms: ms}, nil
}

func (g *gen) add(si, sj, di, dj int) {
	g.pair.Clos = append(g.pair.Clos, core.Flow{Src: g.c.Source(si, sj), Dst: g.c.Dest(di, dj)})
	g.pair.Macro = append(g.pair.Macro, core.Flow{Src: g.ms.Source(si, sj), Dst: g.ms.Dest(di, dj)})
}

// draw is the shared driver of every generator: it validates the flow
// count and the Clos/macro-switch shape agreement once, then hands the
// emitter to the model body.
func draw(c *topology.Clos, ms *topology.MacroSwitch, numFlows int, body func(g *gen)) (Pair, error) {
	if numFlows < 0 {
		return Pair{}, fmt.Errorf("workload: negative flow count %d", numFlows)
	}
	g, err := newGen(c, ms)
	if err != nil {
		return Pair{}, err
	}
	body(g)
	return g.pair, nil
}

// Uniform draws numFlows independent flows with uniformly random sources
// and destinations.
func Uniform(rng *rand.Rand, c *topology.Clos, ms *topology.MacroSwitch, numFlows int) (Pair, error) {
	return draw(c, ms, numFlows, func(g *gen) {
		tors, spt := c.NumToRs(), c.ServersPerToR()
		for f := 0; f < numFlows; f++ {
			g.add(rng.Intn(tors)+1, rng.Intn(spt)+1, rng.Intn(tors)+1, rng.Intn(spt)+1)
		}
	})
}

// Permutation draws a uniformly random bijection from sources to
// destinations: one flow per server on each side.
func Permutation(rng *rand.Rand, c *topology.Clos, ms *topology.MacroSwitch) (Pair, error) {
	return draw(c, ms, 0, func(g *gen) {
		spt := c.ServersPerToR()
		num := c.NumToRs() * spt
		perm := rng.Perm(num)
		for s := 0; s < num; s++ {
			d := perm[s]
			g.add(s/spt+1, s%spt+1, d/spt+1, d%spt+1)
		}
	})
}

// Hotspot draws numFlows flows of which a hotFraction (rounded to the
// nearest count) target a single random destination server (incast);
// the rest are uniform. hotFraction must lie in [0, 1].
func Hotspot(rng *rand.Rand, c *topology.Clos, ms *topology.MacroSwitch, numFlows int, hotFraction float64) (Pair, error) {
	if hotFraction < 0 || hotFraction > 1 {
		return Pair{}, fmt.Errorf("workload: hot fraction %v outside [0,1]", hotFraction)
	}
	return draw(c, ms, numFlows, func(g *gen) {
		tors, spt := c.NumToRs(), c.ServersPerToR()
		hotI, hotJ := rng.Intn(tors)+1, rng.Intn(spt)+1
		hot := int(math.Round(float64(numFlows) * hotFraction))
		for f := 0; f < numFlows; f++ {
			si, sj := rng.Intn(tors)+1, rng.Intn(spt)+1
			if f < hot {
				g.add(si, sj, hotI, hotJ)
			} else {
				g.add(si, sj, rng.Intn(tors)+1, rng.Intn(spt)+1)
			}
		}
	})
}

// Skewed draws numFlows flows whose source servers follow a Zipf-like
// popularity distribution with exponent s > 0 (larger = more skewed);
// destinations are uniform.
func Skewed(rng *rand.Rand, c *topology.Clos, ms *topology.MacroSwitch, numFlows int, s float64) (Pair, error) {
	if s <= 0 {
		return Pair{}, fmt.Errorf("workload: skew exponent %v must be positive", s)
	}
	return draw(c, ms, numFlows, func(g *gen) {
		tors, spt := c.NumToRs(), c.ServersPerToR()
		num := tors * spt
		// Cumulative Zipf weights over a random server ordering.
		order := rng.Perm(num)
		weights := make([]float64, num)
		total := 0.0
		for rank := range weights {
			w := 1.0 / math.Pow(float64(rank+1), s)
			weights[rank] = w
			total += w
		}
		pick := func() int {
			x := rng.Float64() * total
			for rank, w := range weights {
				x -= w
				if x <= 0 {
					return order[rank]
				}
			}
			return order[num-1]
		}
		for f := 0; f < numFlows; f++ {
			src := pick()
			g.add(src/spt+1, src%spt+1, rng.Intn(tors)+1, rng.Intn(spt)+1)
		}
	})
}

// Generator is a named workload model with a uniform drawing signature.
// Models with extra parameters are registered with their canonical
// values (hotspot: 25% hot flows; skewed: Zipf exponent 1.1), the ones
// the §6 simulation uses. Permutation ignores numFlows (its flow count
// is the server count).
type Generator struct {
	Name string
	Draw func(rng *rand.Rand, c *topology.Clos, ms *topology.MacroSwitch, numFlows int) (Pair, error)
}

// Generators returns the registry of named workload models in
// presentation order.
func Generators() []Generator {
	return []Generator{
		{"uniform", Uniform},
		{"permutation", func(rng *rand.Rand, c *topology.Clos, ms *topology.MacroSwitch, _ int) (Pair, error) {
			return Permutation(rng, c, ms)
		}},
		{"hotspot", func(rng *rand.Rand, c *topology.Clos, ms *topology.MacroSwitch, numFlows int) (Pair, error) {
			return Hotspot(rng, c, ms, numFlows, 0.25)
		}},
		{"skewed", func(rng *rand.Rand, c *topology.Clos, ms *topology.MacroSwitch, numFlows int) (Pair, error) {
			return Skewed(rng, c, ms, numFlows, 1.1)
		}},
	}
}
