package engine

import (
	"testing"

	"closnet/internal/codec"
	"closnet/internal/core"
	"closnet/internal/topology"
)

// idleEvaluators returns a source of distinct real evaluators to put
// under synthetic keys: the pool releases what it evicts or drops to
// the evaluator's fabric, so a zero BlockEvaluator cannot stand in.
func idleEvaluators(t *testing.T) func() *core.BlockEvaluator {
	fab := core.PrepareFabric(topology.MustClos(2))
	return func() *core.BlockEvaluator {
		bev, err := core.NewBlockEvaluator(fab, nil)
		if err != nil {
			t.Fatal(err)
		}
		return bev
	}
}

// TestEvalPoolEvictionSkipsLeasedKey: flooding the pool with more than
// maxPooledTopologies distinct keys while a lease is outstanding must
// not evict the leased key — its put would silently drop the evaluator
// and the next acquire would rebuild, which is exactly what the pool
// exists to avoid.
func TestEvalPoolEvictionSkipsLeasedKey(t *testing.T) {
	p := newEvalPool(nil, newFabricCache(nil, fabricBudget))
	scen := &codec.Scenario{
		Tors: 2, Servers: 1, Middles: 2,
		Flows: []codec.FlowJSON{{SrcSwitch: 1, SrcServer: 1, DstSwitch: 2, DstServer: 1}},
	}
	key, err := codec.TopologyHash(scen)
	if err != nil {
		t.Fatal(err)
	}
	bevA, err := p.acquire(key, scen, nil)
	if err != nil {
		t.Fatal(err)
	}
	idle := idleEvaluators(t)

	// Flood: enough distinct synthetic keys to wrap the FIFO several
	// times over. Each is leased by get and released by put, so they are
	// all evictable; only the outstanding lease on A's key must pin it.
	for i := 0; i < 3*maxPooledTopologies; i++ {
		var k [32]byte
		k[0], k[1], k[2] = 0xee, byte(i), byte(i>>8)
		if got := p.get(k); got != nil {
			t.Fatalf("fresh synthetic key %d returned an evaluator", i)
		}
		p.put(k, idle())
	}

	p.put(key, bevA)
	bevA2, err := p.acquire(key, scen, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.put(key, bevA2)
	if bevA2 != bevA {
		t.Fatal("leased key was evicted: re-acquire rebuilt instead of reusing the returned evaluator")
	}

	p.mu.Lock()
	resident, leases := len(p.order), len(p.leased)
	p.mu.Unlock()
	if resident > maxPooledTopologies {
		t.Fatalf("pool retains %d keys after all leases released, cap is %d", resident, maxPooledTopologies)
	}
	if leases != 1 {
		t.Fatalf("lease table has %d entries with one lease outstanding", leases)
	}
}

// TestEvalPoolAllLeasedExceedsCapTemporarily: when every resident key
// has an outstanding lease, a new key is admitted without eviction (the
// table exceeds the cap, bounded by the concurrent lease count) and the
// overage drains as leases are released.
func TestEvalPoolAllLeasedExceedsCapTemporarily(t *testing.T) {
	p := newEvalPool(nil, newFabricCache(nil, fabricBudget))
	keys := make([][32]byte, maxPooledTopologies+4)
	for i := range keys {
		keys[i][0], keys[i][1] = 0xaa, byte(i)
		p.get(keys[i]) // lease and keep
	}
	p.mu.Lock()
	resident := len(p.order)
	p.mu.Unlock()
	if resident != len(keys) {
		t.Fatalf("pool holds %d keys with %d concurrent leases, want all admitted", resident, len(keys))
	}
	idle := idleEvaluators(t)
	for i := range keys {
		p.put(keys[i], idle())
	}
	// Past-cap admissions with everything released: eviction resumes.
	var extra [32]byte
	extra[0] = 0xbb
	p.get(extra)
	p.mu.Lock()
	resident = len(p.order)
	p.mu.Unlock()
	if resident > len(keys)+1 {
		t.Fatalf("pool kept growing: %d keys", resident)
	}
}
