package core

import (
	"math/rand"
	"testing"

	"closnet/internal/topology"
)

// BenchmarkBlockFill times the kernel's fill alone: one state per
// EvalBlock call on a warm BlockEvaluator, with the paths resolved at
// construction and no decode or response body. Each sub-benchmark draws
// 64 instances of random flows, each with its own evaluator and 16
// random assignments, visited instance by instance: evaluate-size has
// 16–48 flows on the five evaluate fabrics, search-size 6–7 flows on
// C_3, C_4 and fat-tree k=4.
func BenchmarkBlockFill(b *testing.B) {
	const instances, assignments = 64, 16
	c3 := topology.MustClos(3)
	c4 := topology.MustClos(4)
	ft, err := topology.NewFatTree(4)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name     string
		fabs     []topology.Fabric
		min, max int
	}{
		{"evaluate-size", reuseFabrics(b), 16, 48},
		{"search-size", []topology.Fabric{c3, c4, ft}, 6, 7},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			type state struct {
				be *BlockEvaluator
				ma []int
			}
			var work []state
			for i := 0; i < instances; i++ {
				c := bc.fabs[i%len(bc.fabs)]
				nf := bc.min + rng.Intn(bc.max-bc.min+1)
				be, err := NewBlockEvaluator(c, randomFlows(rng, c, nf))
				if err != nil {
					b.Fatal(err)
				}
				for s := 0; s < assignments; s++ {
					work = append(work, state{be, randomBlock(rng, c.Size(), nf, 1)})
				}
			}
			fill := func(s state) {
				if _, err := s.be.EvalBlock(s.ma, 1); err != nil {
					b.Fatal(err)
				}
			}
			for _, s := range work {
				fill(s)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fill(work[i%len(work)])
			}
		})
	}
}
