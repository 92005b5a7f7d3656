// Package gen is the scenario-generation subsystem: it turns a named
// topology family (Clos, oversubscribed Clos, fat-tree, Benes) plus a
// stochastic traffic-matrix model into self-contained codec.Scenario
// instances, so every layer that consumes scenarios — the evaluator and
// search engines, the LP certifiers, closnetd, the golden suites —
// exercises generated families through the exact same pipeline as the
// paper's adversarial constructions.
//
// The two halves:
//
//   - Spec names a fabric family and its shape in codec terms
//     (tors, servers, middles), derived from the family's natural
//     parameter: Clos size n, fat-tree pod count k, Benes port count N,
//     or an oversubscription ratio. topology.BuildFamily re-derives and
//     cross-checks the structure on every decode, so a generated
//     scenario can never silently disagree with its fabric.
//
//   - TrafficConfig draws a demand matrix over the server grid —
//     uniform, gravity or hotspot, with a sparsity knob and an
//     elephant/mice demand mix — and lowers it to an unsplittable flow
//     set: one flow per nonzero entry, in deterministic row-major
//     order, with exact rational demands. Generation is a pure function
//     of (Spec, TrafficConfig): the same seed always yields the
//     byte-identical canonical scenario.
package gen

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"

	"closnet/internal/codec"
	"closnet/internal/topology"
)

// Spec names a generated scenario's topology family and shape, in the
// (tors, servers, middles) coordinates carried by codec.Scenario.
type Spec struct {
	// Family is one of topology.FamilyNames(); empty means Clos.
	Family string
	// Tors, Servers, Middles are the codec shape: ToRs per side,
	// servers per ToR, and path choices per server pair.
	Tors, Servers, Middles int
}

// Build materializes the spec's fabric, validating family/shape
// consistency.
func (sp Spec) Build() (topology.Fabric, error) {
	return topology.BuildFamily(sp.Family, sp.Tors, sp.Servers, sp.Middles)
}

// label renders the spec's family and natural parameter for scenario
// names.
func (sp Spec) label() string {
	switch sp.Family {
	case topology.FamilyFatTree:
		return fmt.Sprintf("fattree-k%d", 2*sp.Servers)
	case topology.FamilyBenes:
		return fmt.Sprintf("benes-n%d", 2*sp.Tors)
	default:
		return fmt.Sprintf("clos-t%d-s%d-m%d", sp.Tors, sp.Servers, sp.Middles)
	}
}

// ClosSpec is the paper's three-stage Clos C_n: 2n ToRs of n servers,
// n middles.
func ClosSpec(n int) (Spec, error) {
	c, err := topology.NewClos(n)
	if err != nil {
		return Spec{}, err
	}
	return Spec{Family: topology.FamilyClos, Tors: c.NumToRs(), Servers: c.ServersPerToR(), Middles: c.Size()}, nil
}

// OversubscribedClosSpec thins the middle stage by the sRatio:mRatio
// oversubscription ratio (see topology.NewOversubscribedClos).
func OversubscribedClosSpec(tors, servers, sRatio, mRatio int) (Spec, error) {
	c, err := topology.NewOversubscribedClos(tors, servers, sRatio, mRatio)
	if err != nil {
		return Spec{}, err
	}
	return Spec{Family: topology.FamilyClos, Tors: c.NumToRs(), Servers: c.ServersPerToR(), Middles: c.Size()}, nil
}

// FatTreeSpec is the k-pod fat-tree.
func FatTreeSpec(k int) (Spec, error) {
	ft, err := topology.NewFatTree(k)
	if err != nil {
		return Spec{}, err
	}
	return Spec{Family: topology.FamilyFatTree, Tors: ft.NumToRs(), Servers: ft.ServersPerToR(), Middles: ft.Size()}, nil
}

// BenesSpec is the N-port Benes network.
func BenesSpec(ports int) (Spec, error) {
	b, err := topology.NewBenes(ports)
	if err != nil {
		return Spec{}, err
	}
	return Spec{Family: topology.FamilyBenes, Tors: b.NumToRs(), Servers: b.ServersPerToR(), Middles: b.Size()}, nil
}

// Traffic-matrix models.
const (
	ModelUniform = "uniform"
	ModelGravity = "gravity"
	ModelHotspot = "hotspot"
)

// Models returns the known traffic-model names.
func Models() []string { return []string{ModelUniform, ModelGravity, ModelHotspot} }

// TrafficConfig parameterizes the stochastic traffic-matrix generator.
// The zero value of every field has a sensible default (see
// normalized).
type TrafficConfig struct {
	// Model is one of Models(); empty means uniform.
	Model string
	// Flows is the number of nonzero matrix entries to draw (distinct
	// (source, destination) server pairs). Zero derives the count from
	// Sparsity; both zero defaults to one flow per destination server.
	Flows int
	// Sparsity ∈ [0, 1) is the fraction of server pairs left without
	// traffic when Flows is zero: count = round((1-Sparsity)·pairs).
	Sparsity float64
	// ElephantFraction ∈ [0, 1] is the fraction of drawn flows carrying
	// the elephant demand; the rest are mice. Hotspot aims its elephants
	// at the hot destination.
	ElephantFraction float64
	// Elephant and Mice are the two demand values as exact rationals.
	// Nil defaults: elephant 1, mouse 1/10.
	Elephant, Mice *big.Rat
	// Seed drives all randomness; equal configs generate byte-identical
	// scenarios.
	Seed int64
}

func (tc TrafficConfig) normalized(numServers int) (TrafficConfig, error) {
	if tc.Model == "" {
		tc.Model = ModelUniform
	}
	known := false
	for _, m := range Models() {
		if tc.Model == m {
			known = true
			break
		}
	}
	if !known {
		return tc, fmt.Errorf("gen: unknown traffic model %q (known: %v)", tc.Model, Models())
	}
	if tc.Sparsity < 0 || tc.Sparsity >= 1 {
		return tc, fmt.Errorf("gen: sparsity %v outside [0,1)", tc.Sparsity)
	}
	if tc.ElephantFraction < 0 || tc.ElephantFraction > 1 {
		return tc, fmt.Errorf("gen: elephant fraction %v outside [0,1]", tc.ElephantFraction)
	}
	pairs := numServers * numServers
	if tc.Flows == 0 {
		if tc.Sparsity > 0 {
			tc.Flows = int(math.Round((1 - tc.Sparsity) * float64(pairs)))
		} else {
			tc.Flows = numServers
		}
	}
	if tc.Flows < 0 {
		return tc, fmt.Errorf("gen: negative flow count %d", tc.Flows)
	}
	if tc.Flows > pairs {
		return tc, fmt.Errorf("gen: %d flows exceed the %d server pairs", tc.Flows, pairs)
	}
	if tc.Elephant == nil {
		tc.Elephant = big.NewRat(1, 1)
	}
	if tc.Mice == nil {
		tc.Mice = big.NewRat(1, 10)
	}
	if tc.Elephant.Sign() <= 0 || tc.Mice.Sign() <= 0 {
		return tc, fmt.Errorf("gen: demands must be positive")
	}
	return tc, nil
}

// Matrix is a sparse demand matrix over the dense server grid of a
// fabric side: Demands[p] is the exact offered demand of pair
// Pairs[p] = (src, dst), 0-based dense server indices, in row-major
// (src, dst) order.
type Matrix struct {
	Servers int // per side
	Pairs   [][2]int
	Demands []*big.Rat
}

// Traffic draws the demand matrix of tc over a side of numServers
// servers. The draw is deterministic in tc (including tc.Seed).
func Traffic(numServers int, tc TrafficConfig) (*Matrix, error) {
	if numServers < 1 {
		return nil, fmt.Errorf("gen: need at least one server, got %d", numServers)
	}
	tc, err := tc.normalized(numServers)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(tc.Seed))
	m := &Matrix{Servers: numServers}

	// Pair selection: the first tc.Flows entries of a uniform
	// permutation of all pairs — distinct pairs, deterministic count.
	// The hotspot model first reserves its hot column.
	pairs := numServers * numServers
	selected := make([][2]int, 0, tc.Flows)
	used := make(map[int]bool, tc.Flows)
	add := func(pair int) {
		if !used[pair] {
			used[pair] = true
			selected = append(selected, [2]int{pair / numServers, pair % numServers})
		}
	}
	numHot := 0
	if tc.Model == ModelHotspot {
		// The hot destination absorbs the elephant share of the flows,
		// one per distinct source.
		hotDst := rng.Intn(numServers)
		numHot = int(math.Round(tc.ElephantFraction * float64(tc.Flows)))
		if numHot > numServers {
			numHot = numServers
		}
		for _, src := range rng.Perm(numServers)[:numHot] {
			add(src*numServers + hotDst)
		}
	}
	for _, pair := range rng.Perm(pairs) {
		if len(selected) == tc.Flows {
			break
		}
		add(pair)
	}

	// Demand assignment, per model:
	//   uniform/hotspot — elephants (hotspot: the hot flows; uniform: an
	//     ElephantFraction coin per flow) at the elephant demand, the
	//     rest at the mouse demand;
	//   gravity — demand(s, d) ∝ mass(s)·mass(d), scaled so the largest
	//     selected product carries the elephant demand exactly.
	demands := make([]*big.Rat, len(selected))
	switch tc.Model {
	case ModelGravity:
		mass := make([]int64, numServers)
		for s := range mass {
			mass[s] = int64(rng.Intn(9) + 1)
		}
		var maxProd int64 = 1
		for _, p := range selected {
			if prod := mass[p[0]] * mass[p[1]]; prod > maxProd {
				maxProd = prod
			}
		}
		for i, p := range selected {
			d := new(big.Rat).SetFrac64(mass[p[0]]*mass[p[1]], maxProd)
			demands[i] = d.Mul(d, tc.Elephant)
		}
	case ModelHotspot:
		for i := range selected {
			if i < numHot {
				demands[i] = new(big.Rat).Set(tc.Elephant)
			} else {
				demands[i] = new(big.Rat).Set(tc.Mice)
			}
		}
	default: // ModelUniform
		for i := range selected {
			if rng.Float64() < tc.ElephantFraction {
				demands[i] = new(big.Rat).Set(tc.Elephant)
			} else {
				demands[i] = new(big.Rat).Set(tc.Mice)
			}
		}
	}

	// Lower to row-major order so the matrix (and everything derived
	// from it) has one canonical form independent of draw order.
	order := make([]int, len(selected))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := selected[order[j]], selected[order[j-1]]
			if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
				break
			}
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, i := range order {
		m.Pairs = append(m.Pairs, selected[i])
		m.Demands = append(m.Demands, demands[i])
	}
	return m, nil
}

// Scenario generates the codec scenario of spec under tc: the traffic
// matrix lowered to one unsplittable flow per nonzero entry, with exact
// rational demands and no assignment (routing is the consumer's job).
// The scenario name encodes the family, model and seed.
func Scenario(sp Spec, tc TrafficConfig) (*codec.Scenario, error) {
	if _, err := sp.Build(); err != nil {
		return nil, err
	}
	numServers := sp.Tors * sp.Servers
	m, err := Traffic(numServers, tc)
	if err != nil {
		return nil, err
	}
	model := tc.Model
	if model == "" {
		model = ModelUniform
	}
	s := &codec.Scenario{
		Name:     fmt.Sprintf("gen-%s-%s-f%d-seed%d", sp.label(), model, len(m.Pairs), tc.Seed),
		Topology: sp.Family,
		Tors:     sp.Tors,
		Servers:  sp.Servers,
		Middles:  sp.Middles,
	}
	for p, pair := range m.Pairs {
		src, dst := pair[0], pair[1]
		s.Flows = append(s.Flows, codec.FlowJSON{
			SrcSwitch: src/sp.Servers + 1,
			SrcServer: src%sp.Servers + 1,
			DstSwitch: dst/sp.Servers + 1,
			DstServer: dst%sp.Servers + 1,
		})
		s.Demands = append(s.Demands, m.Demands[p].RatString())
	}
	return s, nil
}
