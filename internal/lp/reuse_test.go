package lp

import (
	"math/rand"
	"testing"

	"closnet/internal/core"
	"closnet/internal/topology"
)

// TestThroughputBounderReuse alternates construct → Bound on every
// prefix → Release over random flow sets on the evaluate fabrics (C_4,
// C_5, fat-tree k=4, Benes 8 and a 2:1 oversubscribed Clos), so that
// consecutive bounders run on fabrics with more and with fewer lanes
// than the last. Every bound must equal SplittableThroughputBound over
// PrefixPaths and come off the integer path, as a fresh bounder's does
// on these unit-capacity fabrics. Reuse is observed by pointer
// identity: sync.Pool may drop a released bounder, at random under
// -race, but not every time.
func TestThroughputBounderReuse(t *testing.T) {
	var fabrics []topology.Fabric
	for _, mk := range []func() (topology.Fabric, error){
		func() (topology.Fabric, error) { return topology.NewClos(4) },
		func() (topology.Fabric, error) { return topology.NewClos(5) },
		func() (topology.Fabric, error) { return topology.NewFatTree(4) },
		func() (topology.Fabric, error) { return topology.NewBenes(8) },
		func() (topology.Fabric, error) { return topology.NewOversubscribedClos(4, 4, 2, 1) },
	} {
		c, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		fabrics = append(fabrics, core.PrepareFabric(c))
	}
	rng := rand.New(rand.NewSource(5))
	sizes := []int{5, 2, 6, 1, 4, 3}
	released := map[*ThroughputBounder]bool{}
	reuses, grew, lastLanes := 0, false, 0
	for round := 0; round < 8*len(fabrics); round++ {
		c := fabrics[round%len(fabrics)]
		fs := core.Collection{}
		for len(fs) < sizes[round%len(sizes)] {
			fs = fs.Add(c.Source(1+rng.Intn(c.NumToRs()), 1+rng.Intn(c.ServersPerToR())),
				c.Dest(1+rng.Intn(c.NumToRs()), 1+rng.Intn(c.ServersPerToR())), 1)
		}
		b := NewThroughputBounder(c, fs)
		if released[b] {
			reuses++
			grew = grew || len(b.rowOf) > lastLanes
		}
		lastLanes = len(b.rowOf)
		ma := make(core.MiddleAssignment, len(fs))
		for i := range ma {
			ma[i] = 1 + rng.Intn(c.Size())
		}
		for ff := 0; ff <= len(fs); ff++ {
			r, x, err := b.Bound(ma, ff)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceBound(c, fs, ma, ff)
			if err != nil {
				t.Fatal(err)
			}
			if x != nil {
				t.Errorf("%s round %d fixedFrom=%d: the bound fell back off the integer path", c.Network().Name(), round, ff)
			} else if r.Rat().Cmp(want) != 0 {
				t.Errorf("%s round %d fixedFrom=%d: bound %s, reference %s", c.Network().Name(), round, ff, r, want.RatString())
			}
		}
		b.Release()
		released[b] = true
	}
	if reuses == 0 || !grew {
		t.Fatalf("reuses %d, onto a fabric with more lanes %v: the test never reused a bounder across a growth", reuses, grew)
	}
}
