package workload

import (
	"math/rand"
	"testing"

	"closnet/internal/core"
	"closnet/internal/topology"
)

func pairTopologies(n int) (*topology.Clos, *topology.MacroSwitch) {
	return topology.MustClos(n), topology.MustMacroSwitch(n)
}

// checkPair validates both collections and their parallel structure.
func checkPair(t *testing.T, c *topology.Clos, ms *topology.MacroSwitch, p Pair) {
	t.Helper()
	if len(p.Clos) != len(p.Macro) {
		t.Fatalf("collection lengths differ: %d vs %d", len(p.Clos), len(p.Macro))
	}
	if err := p.Clos.Validate(c.Network()); err != nil {
		t.Fatalf("clos collection: %v", err)
	}
	if err := p.Macro.Validate(ms.Network()); err != nil {
		t.Fatalf("macro collection: %v", err)
	}
	for fi := range p.Clos {
		ci, cj, ok := c.SourceIndexOf(p.Clos[fi].Src)
		if !ok {
			t.Fatalf("flow %d: bad clos source", fi)
		}
		if ms.Source(ci, cj) != p.Macro[fi].Src {
			t.Fatalf("flow %d: source mismatch between topologies", fi)
		}
		di, dj, ok := c.DestIndexOf(p.Clos[fi].Dst)
		if !ok {
			t.Fatalf("flow %d: bad clos destination", fi)
		}
		if ms.Dest(di, dj) != p.Macro[fi].Dst {
			t.Fatalf("flow %d: destination mismatch between topologies", fi)
		}
	}
}

func TestUniform(t *testing.T) {
	c, ms := pairTopologies(3)
	p, err := Uniform(rand.New(rand.NewSource(1)), c, ms, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Clos) != 50 {
		t.Fatalf("flows = %d, want 50", len(p.Clos))
	}
	checkPair(t, c, ms, p)
}

func TestUniformDeterministic(t *testing.T) {
	c, ms := pairTopologies(2)
	p1, err := Uniform(rand.New(rand.NewSource(7)), c, ms, 20)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Uniform(rand.New(rand.NewSource(7)), c, ms, 20)
	if err != nil {
		t.Fatal(err)
	}
	for fi := range p1.Clos {
		if p1.Clos[fi] != p2.Clos[fi] {
			t.Fatal("same seed produced different workloads")
		}
	}
}

func TestPermutation(t *testing.T) {
	c, ms := pairTopologies(3)
	p, err := Permutation(rand.New(rand.NewSource(2)), c, ms)
	if err != nil {
		t.Fatal(err)
	}
	num := 2 * 3 * 3
	if len(p.Clos) != num {
		t.Fatalf("flows = %d, want %d", len(p.Clos), num)
	}
	checkPair(t, c, ms, p)
	// Bijection: every source and destination appears exactly once.
	for src, count := range p.Clos.PerSource() {
		if count != 1 {
			t.Errorf("source %d has %d flows", src, count)
		}
	}
	for dst, count := range p.Clos.PerDestination() {
		if count != 1 {
			t.Errorf("destination %d has %d flows", dst, count)
		}
	}
	if len(p.Clos.PerSource()) != num || len(p.Clos.PerDestination()) != num {
		t.Error("permutation does not cover all servers")
	}
}

func TestHotspot(t *testing.T) {
	c, ms := pairTopologies(2)
	p, err := Hotspot(rand.New(rand.NewSource(3)), c, ms, 40, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	checkPair(t, c, ms, p)
	// Some destination receives at least the hot fraction of flows.
	max := 0
	for _, count := range p.Clos.PerDestination() {
		if count > max {
			max = count
		}
	}
	if max < 20 {
		t.Errorf("hottest destination has %d flows, want >= 20", max)
	}
	if _, err := Hotspot(rand.New(rand.NewSource(3)), c, ms, 10, 1.5); err == nil {
		t.Error("hot fraction > 1 accepted")
	}
}

func TestSkewed(t *testing.T) {
	c, ms := pairTopologies(3)
	p, err := Skewed(rand.New(rand.NewSource(4)), c, ms, 200, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	checkPair(t, c, ms, p)
	if len(p.Clos) != 200 {
		t.Fatalf("flows = %d", len(p.Clos))
	}
	// Skew: the most popular source should clearly exceed the uniform
	// share (200/18 ≈ 11).
	max := 0
	for _, count := range p.Clos.PerSource() {
		if count > max {
			max = count
		}
	}
	if max < 20 {
		t.Errorf("most popular source has %d flows; distribution looks uniform", max)
	}
	if _, err := Skewed(rand.New(rand.NewSource(4)), c, ms, 10, 0); err == nil {
		t.Error("non-positive exponent accepted")
	}
}

func TestMismatchedTopologies(t *testing.T) {
	c := topology.MustClos(2)
	ms := topology.MustMacroSwitch(3)
	if _, err := Uniform(rand.New(rand.NewSource(1)), c, ms, 5); err == nil {
		t.Error("mismatched sizes accepted")
	}
}

// TestWorkloadsAreAllocatable smoke-tests that generated workloads flow
// through the allocation engine.
func TestWorkloadsAreAllocatable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, ms := pairTopologies(2)
	p, err := Uniform(rng, c, ms, 12)
	if err != nil {
		t.Fatal(err)
	}
	macro, err := core.MacroMaxMinFair(ms, p.Macro)
	if err != nil {
		t.Fatal(err)
	}
	if len(macro) != 12 {
		t.Fatalf("macro rates = %v", macro)
	}
	closRates, err := core.ClosMaxMinFair(c, p.Clos, core.UniformAssignment(12, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(closRates) != 12 {
		t.Fatalf("clos rates = %v", closRates)
	}
}

// TestHotspotRoundsHotCount pins the ISSUE 9 satellite fix: the hot
// flow count is hotFraction·numFlows rounded to the NEAREST integer,
// not truncated. With 7 flows at 0.5 the old truncation produced 3 hot
// flows; rounding produces 4, so the hottest destination must see at
// least 4 flows under every seed.
func TestHotspotRoundsHotCount(t *testing.T) {
	c, ms := pairTopologies(2)
	for seed := int64(1); seed <= 10; seed++ {
		p, err := Hotspot(rand.New(rand.NewSource(seed)), c, ms, 7, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		max := 0
		for _, count := range p.Clos.PerDestination() {
			if count > max {
				max = count
			}
		}
		if max < 4 {
			t.Errorf("seed %d: hottest destination has %d flows, want >= 4 (round, not truncate)", seed, max)
		}
	}
}

// TestNegativeFlowCountRejected: every generator that takes a flow
// count validates it uniformly — a negative count is an error, never a
// silent empty draw or a panic.
func TestNegativeFlowCountRejected(t *testing.T) {
	c, ms := pairTopologies(2)
	rng := rand.New(rand.NewSource(1))
	if _, err := Uniform(rng, c, ms, -1); err == nil {
		t.Error("Uniform accepted a negative flow count")
	}
	if _, err := Hotspot(rng, c, ms, -3, 0.5); err == nil {
		t.Error("Hotspot accepted a negative flow count")
	}
	if _, err := Skewed(rng, c, ms, -7, 1.1); err == nil {
		t.Error("Skewed accepted a negative flow count")
	}
	for _, g := range Generators() {
		if g.Name == "permutation" {
			continue // ignores numFlows by contract
		}
		if _, err := g.Draw(rng, c, ms, -2); err == nil {
			t.Errorf("generator %s accepted a negative flow count", g.Name)
		}
	}
}

// TestGeneratorRegistry: the registry exposes all four models in
// presentation order, and each draws a valid pair.
func TestGeneratorRegistry(t *testing.T) {
	want := []string{"uniform", "permutation", "hotspot", "skewed"}
	gens := Generators()
	if len(gens) != len(want) {
		t.Fatalf("%d generators, want %v", len(gens), want)
	}
	c, ms := pairTopologies(2)
	for i, g := range gens {
		if g.Name != want[i] {
			t.Errorf("generator %d is %s, want %s", i, g.Name, want[i])
		}
		p, err := g.Draw(rand.New(rand.NewSource(5)), c, ms, 6)
		if err != nil {
			t.Fatalf("%s draw: %v", g.Name, err)
		}
		checkPair(t, c, ms, p)
	}
}
