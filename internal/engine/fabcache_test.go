package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"closnet/internal/codec"
	"closnet/internal/gen"
	"closnet/internal/obs"
)

// retained reports the number of retained fabrics and their links.
func (fc *fabricCache) retained() (fabrics, links int) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return len(fc.order), fc.links
}

// sharedShapeScenarios returns two scenarios (different flows) on each
// of three shapes: C_3, the 4-pod fat-tree and the 8-port Benes.
func sharedShapeScenarios(t *testing.T) []*codec.Scenario {
	t.Helper()
	specs := []func() (gen.Spec, error){
		func() (gen.Spec, error) { return gen.ClosSpec(3) },
		func() (gen.Spec, error) { return gen.FatTreeSpec(4) },
		func() (gen.Spec, error) { return gen.BenesSpec(8) },
	}
	var scens []*codec.Scenario
	for _, spec := range specs {
		sp, err := spec()
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 2; seed++ {
			s, err := gen.Scenario(sp, gen.TrafficConfig{Flows: 5, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			scens = append(scens, s)
		}
	}
	return scens
}

// sharedOps are the ops that take a fabric from the cache; "open" is a
// session open.
var sharedOps = []string{OpEvaluate, OpSearchLexPruned, OpSearchThroughputPruned, OpDoom, "open"}

// runShared runs one op of sharedOps and returns its body; a session
// body drops the random session ID.
func runShared(eng *Engine, op string, s *codec.Scenario) (string, error) {
	ctx := context.Background()
	if op == "open" {
		resp, err := eng.Sessions().Open(ctx, s)
		if err != nil {
			return "", err
		}
		return strings.Replace(string(resp.Body), resp.Session, "", 1), nil
	}
	resp, err := eng.Run(ctx, Request{Op: op, Scenario: s})
	if err != nil {
		return "", err
	}
	return string(resp.Body), nil
}

// TestFabricCacheSharedAcrossOps runs evaluate, pruned lex and
// throughput search, doom and session open from 8 goroutines on one
// engine over shared shapes: every body must equal a fresh engine's,
// and each shape is built exactly once.
func TestFabricCacheSharedAcrossOps(t *testing.T) {
	scens := sharedShapeScenarios(t)
	want := make(map[string]string)
	for _, op := range sharedOps {
		for i, s := range scens {
			body, err := runShared(New(Options{SearchWorkers: 1}), op, s)
			if err != nil {
				t.Fatalf("%s on scenario %d: %v", op, i, err)
			}
			want[fmt.Sprint(op, i)] = body
		}
	}

	reg := obs.NewRegistry()
	eng := New(Options{SearchWorkers: 1, MaxSessions: 8 * 3 * len(scens), Obs: &obs.Obs{Reg: reg}})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range len(sharedOps) * len(scens) {
					k = (k + g*7) % (len(sharedOps) * len(scens))
					op, i := sharedOps[k/len(scens)], k%len(scens)
					body, err := runShared(eng, op, scens[i])
					if err == nil && body != want[fmt.Sprint(op, i)] {
						err = fmt.Errorf("body differs from a fresh engine's:\n got %s\nwant %s", body, want[fmt.Sprint(op, i)])
					}
					if err != nil {
						errs <- fmt.Errorf("goroutine %d: %s on scenario %d: %w", g, op, i, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	counters := reg.Snapshot().Counters
	if got, shapes := counters["engine.fabric_builds"], int64(len(scens)/2); got != shapes {
		t.Errorf("engine.fabric_builds = %d over %d distinct shapes", got, shapes)
	}
	if counters["engine.fabric_hits"] == 0 {
		t.Error("engine.fabric_hits stayed 0")
	}
}

// TestFabricCacheBudget: the retained fabrics never exceed the budget,
// the oldest go first, and a fabric larger than the budget is served
// but not retained.
func TestFabricCacheBudget(t *testing.T) {
	const budget = 1000
	fc := newFabricCache(nil, budget)
	for tors := 1; tors <= 60; tors++ {
		fab, err := fc.get(fabricShape{"", tors, 2, 2}) // 8·tors links
		if err != nil {
			t.Fatal(err)
		}
		if got := fab.NumToRs(); got != tors {
			t.Fatalf("shape with %d ToRs served a fabric with %d", tors, got)
		}
		if _, links := fc.retained(); links > budget {
			t.Fatalf("after %d shapes the cache retains %d links, budget %d", tors, links, budget)
		}
	}
	fc.mu.Lock()
	_, newest := fc.entries[fabricShape{"", 60, 2, 2}]
	_, oldest := fc.entries[fabricShape{"", 1, 2, 2}]
	fc.mu.Unlock()
	if !newest || oldest {
		t.Errorf("eviction kept the oldest shape (%v) or dropped the newest (%v)", oldest, !newest)
	}

	big := fabricShape{"", 200, 2, 2} // 1600 links
	if _, err := fc.get(big); err != nil {
		t.Fatal(err)
	}
	fc.mu.Lock()
	_, kept := fc.entries[big]
	fc.mu.Unlock()
	if kept {
		t.Error("a fabric larger than the budget was retained")
	}
	if _, err := fc.get(fabricShape{"fattree", 3, 2, 4}); err == nil {
		t.Error("a fat-tree shape mismatch built a fabric")
	}
	if n := len(fc.entries); n != len(fc.order) {
		t.Errorf("%d entries for %d retained shapes: a failed or oversize build stayed", n, len(fc.order))
	}
}

// TestFabricCacheCapSizeShape serves a fabric at the codec's size caps
// (tors·(servers+middles) = MaxFabricPorts, so 131,072 links) on the
// engine's budget: it is built and served, and never retained.
func TestFabricCacheCapSizeShape(t *testing.T) {
	fc := newFabricCache(nil, fabricBudget)
	for _, s := range []fabricShape{{"", 6, 3, 3}, {"fattree", 8, 2, 4}} {
		if _, err := fc.get(s); err != nil {
			t.Fatal(err)
		}
	}
	_, before := fc.retained()
	capShape := fabricShape{"", codec.MaxFabricPorts / 16, 8, 8}
	fab, err := fc.get(capShape)
	if err != nil {
		t.Fatal(err)
	}
	if got := fab.Network().NumLinks(); got != 2*codec.MaxFabricPorts {
		t.Fatalf("cap-size shape has %d links, want %d", got, 2*codec.MaxFabricPorts)
	}
	if fabrics, links := fc.retained(); links > fabricBudget || links != before || fabrics != 2 {
		t.Errorf("after a cap-size shape the cache retains %d fabrics, %d links (budget %d, %d before)", fabrics, links, fabricBudget, before)
	}
}
