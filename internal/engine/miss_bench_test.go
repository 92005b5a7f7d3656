package engine_test

import (
	"context"
	"testing"

	"closnet/internal/codec"
	"closnet/internal/engine"
)

// BenchmarkEvaluateNewShape times the evaluate miss path: every request
// names a fabric shape its engine has never seen, so each one builds
// and prepares the fabric and a block evaluator before its one fill.
// The shapes are Clos (tors, servers, middles) with tors ∈ [4, 35] and
// servers, middles ∈ [1, 4]; a fresh engine takes over after all 512
// have been served. Each scenario carries eight flows with demands.
func BenchmarkEvaluateNewShape(b *testing.B) {
	const shapes = 32 * 4 * 4
	scens := make([]*codec.Scenario, shapes)
	for i := range scens {
		s := &codec.Scenario{Tors: 4 + i/16, Servers: 1 + i/4%4, Middles: 1 + i%4}
		for f := 0; f < 8; f++ {
			s.Flows = append(s.Flows, codec.FlowJSON{
				SrcSwitch: 1 + (i+3*f)%s.Tors, SrcServer: 1 + f%s.Servers,
				DstSwitch: 1 + (i+5*f+1)%s.Tors, DstServer: 1 + (f+1)%s.Servers,
			})
			s.Demands = append(s.Demands, []string{"1", "1/10"}[f%2])
		}
		scens[i] = s
	}
	ctx := context.Background()
	var eng *engine.Engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%shapes == 0 {
			eng = engine.New(engine.Options{SearchWorkers: 1})
		}
		if _, err := eng.Run(ctx, engine.Request{Op: engine.OpEvaluate, Scenario: scens[i%shapes]}); err != nil {
			b.Fatal(err)
		}
	}
}
