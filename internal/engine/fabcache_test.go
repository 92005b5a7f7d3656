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

// sharedShapeScenarios returns the scenarios of seeds first..last
// (different flows) on each of three shapes: C_3, the 4-pod fat-tree
// and the 8-port Benes.
func sharedShapeScenarios(t *testing.T, first, last int64) []*codec.Scenario {
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
		for seed := first; seed <= last; seed++ {
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
var sharedOps = []string{OpEvaluate, OpSearchLex, OpSearchThroughput, OpSearchLexPruned, OpSearchThroughputPruned, OpDoom, "open"}

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

// TestFabricCacheSharedAcrossOps runs evaluate, exhaustive and pruned
// lex and throughput search, doom and session open from 8 goroutines
// on one engine over shared shapes, with the exhaustive searches on 2
// workers, plus evaluates over more topologies than the evaluator pool
// keeps, so that its evictions release evaluators to the fabrics while
// searches take and release theirs: every body must equal a fresh
// engine's, and each shape is built exactly once.
func TestFabricCacheSharedAcrossOps(t *testing.T) {
	type job struct {
		op string
		s  *codec.Scenario
	}
	var jobs []job
	for _, op := range sharedOps {
		for _, s := range sharedShapeScenarios(t, 1, 2) {
			jobs = append(jobs, job{op, s})
		}
	}
	// 66 more topology hashes on the same shapes.
	evictors := sharedShapeScenarios(t, 3, 24)
	for _, s := range evictors {
		jobs = append(jobs, job{OpEvaluate, s})
	}
	if len(evictors) <= maxPooledTopologies {
		t.Fatalf("%d evaluate topologies do not overflow the evaluator pool's %d", len(evictors), maxPooledTopologies)
	}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		body, err := runShared(New(Options{SearchWorkers: 1}), j.op, j.s)
		if err != nil {
			t.Fatalf("%s on job %d: %v", j.op, i, err)
		}
		want[i] = body
	}

	reg := obs.NewRegistry()
	eng := New(Options{SearchWorkers: 2, MaxSessions: 8 * 3 * len(jobs), Obs: &obs.Obs{Reg: reg}})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range jobs {
					i := (k + g*7) % len(jobs)
					body, err := runShared(eng, jobs[i].op, jobs[i].s)
					if err == nil && body != want[i] {
						err = fmt.Errorf("body differs from a fresh engine's:\n got %s\nwant %s", body, want[i])
					}
					if err != nil {
						errs <- fmt.Errorf("goroutine %d: %s on job %d: %w", g, jobs[i].op, i, err)
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
	if got := counters["engine.fabric_builds"]; got != 3 {
		t.Errorf("engine.fabric_builds = %d over 3 distinct shapes", got)
	}
	if counters["engine.fabric_hits"] == 0 {
		t.Error("engine.fabric_hits stayed 0")
	}
	if got, topologies := counters["engine.evaluator_builds"], int64(len(evictors)+6); got <= topologies {
		t.Errorf("engine.evaluator_builds = %d over %d topologies: the evaluator pool evicted nothing", got, topologies)
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
