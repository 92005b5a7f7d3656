package core

import (
	"math/big"
	"math/rand"
	"testing"

	"closnet/internal/obs"
	"closnet/internal/topology"
)

// checkOracle asserts that ie's current allocation is bit-identical to a
// reference fill of the same (Collection, MiddleAssignment).
func checkOracle(t *testing.T, fab topology.Fabric, ie *IncrementalEvaluator) {
	t.Helper()
	fs, ma, ids := ie.Flows()
	if len(fs) != ie.Len() || len(ma) != ie.Len() || len(ids) != ie.Len() {
		t.Fatalf("Flows() lengths %d/%d/%d, Len %d", len(fs), len(ma), len(ids), ie.Len())
	}
	if ie.Len() == 0 {
		if got := ie.Rates(); len(got) != 0 {
			t.Fatalf("empty evaluator reports %d rates", len(got))
		}
		return
	}
	want, err := referenceClos(fab, fs, ma)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	got := ie.Rates()
	if len(got) != len(want) {
		t.Fatalf("rates length %d, oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Cmp(want[i]) != 0 {
			t.Fatalf("flow %d (handle %d): incremental %s, oracle %s",
				i, ids[i], got[i].RatString(), want[i].RatString())
		}
		r, err := ie.Rate(ids[i])
		if err != nil {
			t.Fatalf("Rate(%d): %v", ids[i], err)
		}
		if r.Cmp(want[i]) != 0 {
			t.Fatalf("Rate(%d) = %s, oracle %s", ids[i], r.RatString(), want[i].RatString())
		}
		// The Rat64 lane is what the session bodies are written from.
		if ie.forceBig && !ie.Promoted() {
			t.Fatal("ForceBig evaluator reports an unpromoted allocation")
		}
		if !ie.Promoted() && ie.Rates64()[ids[i]].CmpRat(want[i]) != 0 {
			t.Fatalf("Rates64()[%d] = %s, oracle %s", ids[i], ie.Rates64()[ids[i]], want[i].RatString())
		}
	}
}

func randIncFlow(fab topology.Fabric, rng *rand.Rand) Flow {
	tors, servers := fab.NumToRs(), fab.ServersPerToR()
	return Flow{
		Src: fab.Source(rng.Intn(tors)+1, rng.Intn(servers)+1),
		Dst: fab.Dest(rng.Intn(tors)+1, rng.Intn(servers)+1),
	}
}

// driveRandomDeltas applies steps random arrive/depart/reroute deltas,
// checking the allocation against the full-recompute oracle after every
// one.
func driveRandomDeltas(t *testing.T, fab topology.Fabric, ie *IncrementalEvaluator, rng *rand.Rand, steps int) {
	t.Helper()
	var live []FlowID
	for s := 0; s < steps; s++ {
		op := rng.Intn(10)
		switch {
		case len(live) == 0 || op < 5: // arrive
			m := rng.Intn(fab.Size()) + 1
			id, err := ie.Arrive(randIncFlow(fab, rng), m)
			if err != nil {
				t.Fatalf("step %d: Arrive: %v", s, err)
			}
			live = append(live, id)
		case op < 8: // depart
			i := rng.Intn(len(live))
			if err := ie.Depart(live[i]); err != nil {
				t.Fatalf("step %d: Depart(%d): %v", s, live[i], err)
			}
			live = append(live[:i], live[i+1:]...)
		default: // reroute
			id := live[rng.Intn(len(live))]
			if err := ie.Reroute(id, rng.Intn(fab.Size())+1); err != nil {
				t.Fatalf("step %d: Reroute(%d): %v", s, id, err)
			}
		}
		checkOracle(t, fab, ie)
	}
}

// TestIncrementalScriptedC3 walks a handcrafted arrive/depart/reroute
// script on C_3, checking every intermediate allocation against the
// oracle (and a couple of states against known closed-form rates).
func TestIncrementalScriptedC3(t *testing.T) {
	fab := topology.MustClos(3)
	ie := NewIncrementalEvaluator(fab)
	checkOracle(t, fab, ie)

	// Three cyclic flows s_i -> d_{i+1}, all through middle 1: they
	// collide on every middle link and each gets 1/3... actually each
	// gets min over its links; the oracle is the ground truth, the
	// script just exercises each delta kind.
	var ids []FlowID
	for i := 0; i < 3; i++ {
		f := Flow{Src: fab.Source(i+1, 1), Dst: fab.Dest((i+1)%3+1, 1)}
		id, err := ie.Arrive(f, 1)
		if err != nil {
			t.Fatalf("Arrive %d: %v", i, err)
		}
		ids = append(ids, id)
		checkOracle(t, fab, ie)
	}
	if ie.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ie.Len())
	}
	// Spread them over distinct middles: each flow should end at rate 1.
	for i, id := range ids {
		if err := ie.Reroute(id, i+1); err != nil {
			t.Fatalf("Reroute %d: %v", id, err)
		}
		checkOracle(t, fab, ie)
	}
	for _, id := range ids {
		r, err := ie.Rate(id)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cmp(big.NewRat(1, 1)) != 0 {
			t.Fatalf("disjoint-middles rate = %s, want 1", r.RatString())
		}
	}
	// Depart the middle one, then the rest.
	if err := ie.Depart(ids[1]); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, fab, ie)
	if err := ie.Depart(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := ie.Depart(ids[2]); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, fab, ie)
	if ie.Len() != 0 {
		t.Fatalf("Len = %d after full drain, want 0", ie.Len())
	}
}

// TestIncrementalOracleAcrossFamilies fuzzes seeded random delta
// sequences on every fabric family and checks bit-identical equivalence
// with the full recompute after each delta.
func TestIncrementalOracleAcrossFamilies(t *testing.T) {
	fabs := map[string]topology.Fabric{
		"clos3": topology.MustClos(3),
		"clos4": topology.MustClos(4),
	}
	if ft, err := topology.NewFatTree(4); err == nil {
		fabs["fattree4"] = ft
	} else {
		t.Fatalf("NewFatTree(4): %v", err)
	}
	if bn, err := topology.NewBenes(4); err == nil {
		fabs["benes4"] = bn
	} else {
		t.Fatalf("NewBenes(4): %v", err)
	}
	if ov, err := topology.NewOversubscribedClos(3, 4, 2, 1); err == nil {
		fabs["oversub"] = ov
	} else {
		t.Fatalf("NewOversubscribedClos: %v", err)
	}
	for name, fab := range fabs {
		fab := fab
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				ie := NewIncrementalEvaluator(fab)
				driveRandomDeltas(t, fab, ie, rand.New(rand.NewSource(seed)), 60)
			}
		})
	}
}

// TestIncrementalForceBig pins the big.Rat path and checks it against
// the fast incremental path and the oracle on the same delta sequence.
func TestIncrementalForceBig(t *testing.T) {
	fab := topology.MustClos(3)
	fast := NewIncrementalEvaluator(fab)
	big_ := NewIncrementalEvaluator(fab)
	big_.ForceBig(true)
	rngA := rand.New(rand.NewSource(7))
	rngB := rand.New(rand.NewSource(7))
	var liveA, liveB []FlowID
	for s := 0; s < 40; s++ {
		opA, opB := rngA.Intn(10), rngB.Intn(10)
		if opA != opB {
			t.Fatal("seeded rngs diverged")
		}
		apply := func(ie *IncrementalEvaluator, live []FlowID, rng *rand.Rand) []FlowID {
			switch {
			case len(live) == 0 || opA < 5:
				id, err := ie.Arrive(randIncFlow(fab, rng), rng.Intn(fab.Size())+1)
				if err != nil {
					t.Fatalf("step %d: %v", s, err)
				}
				return append(live, id)
			case opA < 8:
				i := rng.Intn(len(live))
				if err := ie.Depart(live[i]); err != nil {
					t.Fatalf("step %d: %v", s, err)
				}
				return append(live[:i], live[i+1:]...)
			default:
				if err := ie.Reroute(live[rng.Intn(len(live))], rng.Intn(fab.Size())+1); err != nil {
					t.Fatalf("step %d: %v", s, err)
				}
				return live
			}
		}
		liveA = apply(fast, liveA, rngA)
		liveB = apply(big_, liveB, rngB)
		ra, rb := fast.Rates(), big_.Rates()
		if len(ra) != len(rb) {
			t.Fatalf("step %d: %d vs %d rates", s, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i].Cmp(rb[i]) != 0 {
				t.Fatalf("step %d flow %d: fast %s, big %s", s, i, ra[i].RatString(), rb[i].RatString())
			}
		}
		checkOracle(t, fab, big_)
	}
	if fast.Promotions() != 0 {
		t.Fatalf("fast path promoted %d times on C_3", fast.Promotions())
	}
}

// TestIncrementalMidSequencePromotion forces an Rat64 "overflow" partway
// through a delta sequence via the test hook — once during a replay,
// once during a resume fill — and checks that the promotion to big.Rat
// keeps the allocation exact and that the poisoned trace is rebuilt on
// the next delta.
func TestIncrementalMidSequencePromotion(t *testing.T) {
	fab := topology.MustClos(4)
	ie := NewIncrementalEvaluator(fab)
	rng := rand.New(rand.NewSource(11))
	var live []FlowID
	for i := 0; i < 8; i++ {
		id, err := ie.Arrive(randIncFlow(fab, rng), rng.Intn(4)+1)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	checkOracle(t, fab, ie)

	// Force the very first round to "overflow" on the next delta: the
	// replay path hits the hook and must promote.
	ie.testOverflow = func(round int) bool { return round == 0 }
	if err := ie.Depart(live[3]); err != nil {
		t.Fatal(err)
	}
	ie.testOverflow = nil
	if ie.Promotions() != 1 {
		t.Fatalf("Promotions = %d, want 1", ie.Promotions())
	}
	checkOracle(t, fab, ie)
	if ie.traceValid {
		t.Fatal("trace still valid after promotion (poisoning rule violated)")
	}

	// Next delta runs a full fast fill to rebuild the trace.
	id, err := ie.Arrive(randIncFlow(fab, rng), 2)
	if err != nil {
		t.Fatal(err)
	}
	_ = id
	checkOracle(t, fab, ie)
	if !ie.traceValid {
		t.Fatal("trace not rebuilt by the delta after a promotion")
	}
	if ie.Promotions() != 1 {
		t.Fatalf("Promotions = %d after rebuild, want still 1", ie.Promotions())
	}

	// Force an overflow in a later round only: the replay of round 0 may
	// succeed, the resume fill then hits the hook and promotes.
	ie.testOverflow = func(round int) bool { return round >= 1 }
	if err := ie.Reroute(live[0], 3); err != nil {
		t.Fatal(err)
	}
	ie.testOverflow = nil
	if ie.Promotions() != 2 {
		t.Fatalf("Promotions = %d, want 2", ie.Promotions())
	}
	checkOracle(t, fab, ie)
}

// TestIncrementalErrors covers the error paths: bad middles, dead
// handles, and state preservation across a failed Arrive.
func TestIncrementalErrors(t *testing.T) {
	fab := topology.MustClos(3)
	ie := NewIncrementalEvaluator(fab)
	f := Flow{Src: fab.Source(1, 1), Dst: fab.Dest(2, 1)}
	if _, err := ie.Arrive(f, 0); err == nil {
		t.Fatal("Arrive with middle 0 succeeded")
	}
	if _, err := ie.Arrive(f, 4); err == nil {
		t.Fatal("Arrive with middle 4 on C_3 succeeded")
	}
	if ie.Len() != 0 {
		t.Fatalf("failed Arrive left %d flows", ie.Len())
	}
	id, err := ie.Arrive(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ie.Reroute(id, 9); err == nil {
		t.Fatal("Reroute to middle 9 succeeded")
	}
	checkOracle(t, fab, ie)
	if err := ie.Depart(id); err != nil {
		t.Fatal(err)
	}
	if err := ie.Depart(id); err == nil {
		t.Fatal("double Depart succeeded")
	}
	if err := ie.Reroute(id, 1); err == nil {
		t.Fatal("Reroute of departed flow succeeded")
	}
	if _, err := ie.Rate(id); err == nil {
		t.Fatal("Rate of departed flow succeeded")
	}
	if _, err := ie.Rate(FlowID(-1)); err == nil {
		t.Fatal("Rate(-1) succeeded")
	}
	if _, err := ie.Rate(FlowID(99)); err == nil {
		t.Fatal("Rate(99) succeeded")
	}
}

// TestIncrementalCounters wires an Obs and asserts the delta counters:
// every mutation is one delta fill, and on a growing flow set the
// replay reuses (skips) a nonzero number of recorded rounds.
func TestIncrementalCounters(t *testing.T) {
	o := &obs.Obs{Reg: obs.NewRegistry()}
	fab := topology.MustClos(4)
	ie := NewIncrementalEvaluator(fab)
	ie.Instrument(o)
	rng := rand.New(rand.NewSource(3))
	var live []FlowID
	for i := 0; i < 12; i++ {
		id, err := ie.Arrive(randIncFlow(fab, rng), rng.Intn(4)+1)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	for i := 0; i < 4; i++ {
		if err := ie.Depart(live[i*2]); err != nil {
			t.Fatal(err)
		}
	}
	snap := o.Registry().Snapshot()
	if got := snap.Counters["core.delta_fills"]; got != 16 {
		t.Fatalf("core.delta_fills = %d, want 16", got)
	}
	if got := snap.Counters["core.delta_levels_skipped"]; got <= 0 {
		t.Fatalf("core.delta_levels_skipped = %d, want > 0", got)
	}
	if got := snap.Counters["core.delta_promotions"]; got != 0 {
		t.Fatalf("core.delta_promotions = %d, want 0", got)
	}
	checkOracle(t, fab, ie)
}

// FuzzIncrementalDeltas drives byte-scripted delta sequences on C_3 and
// checks full-recompute equivalence after every step. Odd bytes fold in
// a forced-promotion round so the fuzzer also explores the poisoned-
// trace transitions.
func FuzzIncrementalDeltas(f *testing.F) {
	f.Add([]byte{0x00, 0x15, 0x2a, 0x3f, 0x81, 0x52, 0x07})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00})
	f.Add([]byte{0x13, 0x13, 0x13, 0x93, 0x13, 0x13, 0x13, 0x13})
	f.Add([]byte{0x2c, 0x61, 0x0e, 0xb7, 0x44, 0x59, 0x9d, 0x02, 0x70})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 48 {
			script = script[:48]
		}
		fab := topology.MustClos(3)
		ie := NewIncrementalEvaluator(fab)
		var live []FlowID
		for s, b := range script {
			// Bit 7: force a promotion this step. Bits 5-6: op class.
			// Bits 0-4: endpoint/middle/victim selector.
			if b&0x80 != 0 {
				forced := int(b>>5) & 0x3
				ie.testOverflow = func(round int) bool { return round >= forced }
			}
			sel := int(b & 0x1f)
			switch op := (b >> 5) & 0x3; {
			case len(live) == 0 || op <= 1:
				fl := Flow{
					Src: fab.Source(sel%6+1, (sel/3)%3+1),
					Dst: fab.Dest((sel/9)%6+1, sel%3+1),
				}
				id, err := ie.Arrive(fl, sel%3+1)
				if err != nil {
					t.Fatalf("step %d: Arrive: %v", s, err)
				}
				live = append(live, id)
			case op == 2:
				i := sel % len(live)
				if err := ie.Depart(live[i]); err != nil {
					t.Fatalf("step %d: Depart: %v", s, err)
				}
				live = append(live[:i], live[i+1:]...)
			default:
				if err := ie.Reroute(live[sel%len(live)], sel%3+1); err != nil {
					t.Fatalf("step %d: Reroute: %v", s, err)
				}
			}
			ie.testOverflow = nil
			checkOracle(t, fab, ie)
		}
	})
}
