package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"closnet/internal/rational"
	"closnet/internal/topology"
)

// TestKernelFractionalCapacities drives the water-filling kernel over
// hand-built networks with fractional and zero capacities, so the
// shared denominator is seeded above 1 (every fabric in the repository
// has integral capacities and den0 = 1). The int64 fast path must
// complete without promotion, and it, the big.Rat path and
// ReferenceMaxMinFair must agree exactly.
func TestKernelFractionalCapacities(t *testing.T) {
	r := rational.R
	for _, tc := range []struct {
		name       string
		c1, c2, c3 *big.Rat // s1->m, s2->m, m->t
		den0       int64
	}{
		{"halves", r(1, 2), r(1, 2), r(1, 1), 6},
		{"scaling", r(1, 1), r(1, 2), r(5, 4), 12},
		{"thirds", r(2, 3), r(1, 2), r(5, 4), 12},
		{"failed link", r(0, 1), r(2, 3), r(5, 4), 12},
		{"fractional bottleneck", r(5, 4), r(5, 4), r(2, 3), 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The network of TestWaterfillCapacityScaling plus a second flow
			// from s1 and a server link s3->t beside the shared m->t.
			net := topology.New(tc.name)
			s1 := net.AddNode(topology.KindSource, "s1")
			s2 := net.AddNode(topology.KindSource, "s2")
			s3 := net.AddNode(topology.KindSource, "s3")
			mid := net.AddNode(topology.KindOther, "m")
			d := net.AddNode(topology.KindDestination, "t")
			l1, _ := net.AddLink(s1, mid, tc.c1)
			l2, _ := net.AddLink(s2, mid, tc.c2)
			l3, _ := net.AddLink(mid, d, tc.c3)
			l4, _ := net.AddLink(s3, d, r(2, 3))
			fs := NewCollection(s1, d, s1, d, s2, d, s3, d)
			rt := Routing{{l1, l3}, {l1, l3}, {l2, l3}, {l4}}
			want, err := ReferenceMaxMinFair(net, fs, rt)
			if err != nil {
				t.Fatal(err)
			}

			laneOf, caps := finiteLanes(net)
			tmpl := newCapTemplate(caps)
			k := tmpl.newKernel()
			if !k.fast || k.den0 != tc.den0 {
				t.Fatalf("fast = %v, den0 = %d; want fast with den0 = %d", k.fast, k.den0, tc.den0)
			}
			lanes := make([][]int32, len(rt))
			for fi, p := range rt {
				lanes[fi] = laneOf.appendLanes(nil, p)
			}
			rates := make([]rational.Rat64, len(fs))
			k.register(lanes)
			if ok, err := k.fill64(rates); err != nil || !ok {
				t.Fatalf("fill64: ok = %v, err = %v", ok, err)
			}
			if fast := AllocOf(rates); !fast.Equal(want) {
				t.Errorf("fast path %v, reference %v", fast, want)
			}
			slow := make(Allocation, len(fs))
			k.register(lanes)
			if err := k.fillBig(context.Background(), slow); err != nil {
				t.Fatal(err)
			}
			if !slow.Equal(want) {
				t.Errorf("big path %v, reference %v", slow, want)
			}
		})
	}
}

// TestRegisterTouchedAscending: register leaves touched strictly
// ascending and equal to the union of the registered lane lists, with
// act counting each lane's flows and mark all zero again. The cases
// cover the bitset's word boundaries (lanes 0, 63, 64, 65 and the last
// lane), a small registration after a large one, where a stale word
// would show, and a seeded run of random registrations.
func TestRegisterTouchedAscending(t *testing.T) {
	const n = 200
	caps := make([]*big.Rat, n)
	for j := range caps {
		caps[j] = rational.One()
	}
	tmpl := newCapTemplate(caps)
	k := tmpl.newKernel()
	check := func(name string, lanes [][]int32) {
		t.Helper()
		k.register(lanes)
		count := make([]int32, n)
		var want []int32
		for _, ls := range lanes {
			for _, j := range ls {
				if count[j] == 0 {
					want = append(want, j)
				}
				count[j]++
			}
		}
		slices.Sort(want)
		if !slices.Equal(k.touched, want) {
			t.Fatalf("%s: touched %v, want %v", name, k.touched, want)
		}
		if !slices.Equal(k.act, count) {
			t.Fatalf("%s: act %v, want %v", name, k.act, count)
		}
		if i := slices.IndexFunc(k.mark, func(w uint64) bool { return w != 0 }); i >= 0 {
			t.Fatalf("%s: mark word %d left set: %#x", name, i, k.mark[i])
		}
	}
	large := make([][]int32, 10)
	for f := range large {
		for j := n - 1 - f; j >= 0; j -= 10 {
			large[f] = append(large[f], int32(j))
		}
	}
	for _, tc := range []struct {
		name  string
		lanes [][]int32
	}{
		{"word boundaries", [][]int32{{65, 0}, {n - 1, 63, 64}, {64, 0}, {65}}},
		{"large", large},
		{"small after large", [][]int32{{66}, {64, 66}}},
		{"last lane", [][]int32{{n - 1}}},
		{"first lane", [][]int32{{0}}},
		{"no flows", nil},
		{"after no flows", [][]int32{{127, 128}, {63}}},
	} {
		check(tc.name, tc.lanes)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		lanes := make([][]int32, rng.Intn(6))
		for f := range lanes {
			for l := rng.Intn(5); l > 0; l-- {
				lanes[f] = append(lanes[f], int32(rng.Intn(n)))
			}
		}
		check("random", lanes)
	}
}

// TestMulNonNeg checks the overflow-checked product against math/big
// around the int64 boundary: ok exactly when the product fits.
func TestMulNonNeg(t *testing.T) {
	for _, tc := range [][2]int64{
		{0, 0}, {0, math.MaxInt64}, {math.MaxInt64, 0},
		{1, math.MaxInt64}, {math.MaxInt64, 1},
		{3037000499, 3037000499}, {3037000500, 3037000500},
		{math.MaxInt64, 2}, {2, math.MaxInt64},
		{1 << 31, 1 << 31}, {1 << 31, 1 << 32}, {1 << 32, 1 << 32},
		{math.MaxInt64 / 3, 3}, {math.MaxInt64/3 + 1, 3},
		{math.MaxInt64, math.MaxInt64}, {12345, 67890},
	} {
		a, b := tc[0], tc[1]
		want := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
		got, ok := mulNonNeg(a, b)
		if ok != want.IsInt64() || ok && got != want.Int64() {
			t.Errorf("mulNonNeg(%d, %d) = %d, %v; want %s (fits: %v)", a, b, got, ok, want, want.IsInt64())
		}
	}
}

// referenceClos is ReferenceMaxMinFair over ClosRouting: the oracle the
// kernel drivers' differential tests compare against, independent of
// the kernel they check.
func referenceClos(c topology.Fabric, fs Collection, ma MiddleAssignment) (Allocation, error) {
	r, err := ClosRouting(c, fs, ma)
	if err != nil {
		return nil, err
	}
	return ReferenceMaxMinFair(c.Network(), fs, r)
}

// oracleRound is the kernel's round before live-lane rounds, kept as
// the differential tests' oracle: the min scan, the drain and the
// freeze each visit every touched lane and skip the lanes without
// active flows, and touched never shrinks.
func (k *kernel) oracleRound() (ok bool, err error) {
	k.minJ = -1
	for _, j := range k.touched {
		a := int64(k.act[j])
		if a == 0 {
			continue
		}
		if k.minJ >= 0 {
			lhs, ok1 := mulNonNeg(k.remN[j], k.minA)
			rhs, ok2 := mulNonNeg(k.minR, a)
			if !ok1 || !ok2 {
				return false, nil
			}
			if lhs >= rhs {
				continue
			}
		}
		k.minJ, k.minR, k.minA = j, k.remN[j], a
	}
	if k.minJ < 0 {
		return true, ErrUnboundedFlow
	}
	if k.den, ok = mulNonNeg(k.den, k.minA); !ok {
		return false, nil
	}
	if k.levelN, ok = mulNonNeg(k.levelN, k.minA); !ok || k.levelN > math.MaxInt64-k.minR {
		return false, nil
	}
	k.levelN += k.minR
	if k.level, ok = rational.Make64(k.levelN, k.den); !ok {
		return false, nil
	}
	for _, j := range k.touched {
		if k.act[j] == 0 {
			continue
		}
		r, ok1 := mulNonNeg(k.remN[j], k.minA)
		used, ok2 := mulNonNeg(int64(k.act[j]), k.minR)
		if !ok1 || !ok2 {
			return false, nil
		}
		k.remN[j] = r - used
	}
	return true, k.oracleFreeze()
}

// oracleFreeze is the oracle rounds' freeze: a scan of every touched
// lane that freezes the unfrozen flows crossing each one with active
// flows and remN == 0.
func (k *kernel) oracleFreeze() error {
	k.sat, k.froze = k.sat[:0], k.froze[:0]
	for _, j := range k.touched {
		if k.act[j] == 0 || k.remN[j] != 0 {
			continue
		}
		k.sat = append(k.sat, j)
		for _, f := range k.on[j] {
			if !k.frozen[f] {
				k.frozen[f] = true
				k.froze = append(k.froze, f)
				for _, l := range k.lanes[f] {
					k.act[l]--
				}
			}
		}
	}
	if k.left -= len(k.froze); len(k.froze) == 0 {
		return errNoProgress
	}
	return nil
}

// oracleRoundBig is oracleRound on *big.Rat, the oracle for roundBig:
// remN mirrors each active lane's remB sign for oracleFreeze.
func (k *kernel) oracleRoundBig(level *big.Rat) error {
	k.minJ = -1
	for _, j := range k.touched {
		if k.act[j] == 0 {
			continue
		}
		if k.minJ >= 0 {
			k.x.Mul(k.remB[j].Num(), k.remB[k.minJ].Denom())
			k.x.Mul(&k.x, k.a.SetInt64(int64(k.act[k.minJ])))
			k.y.Mul(k.remB[k.minJ].Num(), k.remB[j].Denom())
			k.y.Mul(&k.y, k.a.SetInt64(int64(k.act[j])))
			if k.x.Cmp(&k.y) >= 0 {
				continue
			}
		}
		k.minJ = j
	}
	if k.minJ < 0 {
		return ErrUnboundedFlow
	}
	k.delta.Quo(&k.remB[k.minJ], k.actRat.SetInt64(int64(k.act[k.minJ])))
	level.Add(level, &k.delta)
	for _, j := range k.touched {
		if k.act[j] != 0 {
			k.tmp.Mul(&k.delta, k.actRat.SetInt64(int64(k.act[j])))
			k.remN[j] = int64(k.remB[j].Sub(&k.remB[j], &k.tmp).Sign())
		}
	}
	return k.oracleFreeze()
}

// checkTouchedCovers fails unless touched is strictly ascending and
// lists every lane with active flows.
func checkTouchedCovers(t *testing.T, label string, k *kernel) {
	t.Helper()
	for i := 1; i < len(k.touched); i++ {
		if k.touched[i-1] >= k.touched[i] {
			t.Fatalf("%s: touched %v not strictly ascending", label, k.touched)
		}
	}
	for j, a := range k.act {
		if _, found := slices.BinarySearch(k.touched, int32(j)); a > 0 && !found {
			t.Fatalf("%s: lane %d has %d active flows but is not in touched %v", label, j, a, k.touched)
		}
	}
}

// checkRounds fills the lane system with the given capacities and lane
// lists on the kernel and on the oracle rounds, round by round, and
// fails at the first round whose outcome differs: the overflow
// decision, the error, the bottleneck, minR/minA, the level, and sat
// and froze in order. After the int64 fill — complete, or cut by an
// overflow — both re-register and compare the *big.Rat fill the same
// way. It reports whether the int64 fill overflowed.
func checkRounds(t *testing.T, label string, caps []*big.Rat, lanes [][]int32) (overflowed bool) {
	t.Helper()
	tmpl := newCapTemplate(caps)
	k, o := tmpl.newKernel(), tmpl.newKernel()
	reregister := func() {
		t.Helper()
		k.register(lanes)
		o.register(lanes)
		if !slices.Equal(k.touched, o.touched) || !slices.Equal(k.act, o.act) {
			t.Fatalf("%s: register: touched %v act %v, oracle touched %v act %v", label, k.touched, k.act, o.touched, o.act)
		}
	}
	same := func(r int, errK, errO error) {
		t.Helper()
		if errK != errO || k.minJ != o.minJ || k.left != o.left ||
			!slices.Equal(k.sat, o.sat) || !slices.Equal(k.froze, o.froze) {
			t.Fatalf("%s: round %d: err %v minJ %d sat %v froze %v left %d; oracle err %v minJ %d sat %v froze %v left %d",
				label, r, errK, k.minJ, k.sat, k.froze, k.left, errO, o.minJ, o.sat, o.froze, o.left)
		}
	}
	reregister()
	if tmpl.fast {
		k.seed()
		o.seed()
		for r := 0; o.left > 0; r++ {
			okK, errK := k.round()
			okO, errO := o.oracleRound()
			if okK != okO {
				t.Fatalf("%s: round %d: overflow %v, oracle %v", label, r, !okK, !okO)
			}
			if !okO {
				checkTouchedCovers(t, label+" after overflow", k)
				overflowed = true
				break
			}
			same(r, errK, errO)
			if k.minR != o.minR || k.minA != o.minA || k.level != o.level || k.den != o.den {
				t.Fatalf("%s: round %d: minR/minA %d/%d level %v den %d; oracle %d/%d %v %d",
					label, r, k.minR, k.minA, k.level, k.den, o.minR, o.minA, o.level, o.den)
			}
			checkTouchedCovers(t, label, k)
			if errO != nil {
				break
			}
		}
		reregister()
	}
	k.seedBig()
	o.seedBig()
	levelK, levelO := new(big.Rat), new(big.Rat)
	for r := 0; o.left > 0; r++ {
		errK, errO := k.roundBig(levelK), o.oracleRoundBig(levelO)
		same(r, errK, errO)
		if levelK.Cmp(levelO) != 0 {
			t.Fatalf("%s: big round %d: level %v, oracle %v", label, r, levelK, levelO)
		}
		checkTouchedCovers(t, label+" big", k)
		if errO != nil {
			break
		}
	}
	return overflowed
}

// kernelCapPalette is the capacities laneSystem draws from: repeated
// small integers for ties, fractions that seed den above 1, zero
// capacities (a failed link), and values whose products overflow int64
// within a few rounds.
var kernelCapPalette = func() []*big.Rat {
	r := rational.R
	return []*big.Rat{
		r(1, 1), r(1, 1), r(1, 1), r(2, 1), r(2, 1), r(3, 1), r(0, 1),
		r(1, 2), r(2, 3), r(5, 4), r(7, 3), r(10, 1),
		new(big.Rat).SetInt64(1<<62 + 2), r(1, 2147483647), r(3, 2147483629),
		new(big.Rat).SetFrac64(1<<61+1, 3),
	}
}()

// laneSystem decodes a lane system from bytes: the lane count, each
// lane's capacity from kernelCapPalette, then up to 16 flows of one to
// four distinct lanes each (a flow byte of 0xF8 or more gives a flow
// crossing no lane, whose fill ends in ErrUnboundedFlow).
func laneSystem(data []byte) (caps []*big.Rat, lanes [][]int32) {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	b, _ := next()
	n := 1 + int(b%24)
	caps = make([]*big.Rat, n)
	for j := range caps {
		b, _ := next()
		caps[j] = kernelCapPalette[int(b)%len(kernelCapPalette)]
	}
	for len(lanes) < 16 {
		b, ok := next()
		if !ok {
			break
		}
		ls := []int32{}
		for c := 1 + int(b%4); c > 0 && b < 0xF8; c-- {
			x, ok := next()
			if !ok {
				break
			}
			if j := int32(int(x) % n); !slices.Contains(ls, j) {
				ls = append(ls, j)
			}
		}
		lanes = append(lanes, ls)
	}
	return caps, lanes
}

// TestKernelRoundsMatchOracle runs the kernel's live-lane rounds
// against the oracle rounds (every touched lane in every pass) on hand
// cases — ties, fractional and zero capacities, a round that kills many
// lanes at once, an overflow in the middle of a min scan whose scanned
// prefix has dropped a dead lane — and on random lane systems.
func TestKernelRoundsMatchOracle(t *testing.T) {
	r := rational.R
	ones := func(n int) []*big.Rat {
		caps := make([]*big.Rat, n)
		for j := range caps {
			caps[j] = r(1, 1)
		}
		return caps
	}
	// Lane 0 freezes one flow in the first round and dies; every later
	// lane ties at each round.
	ties := [][]int32{{0}, {1, 2}, {2, 3}, {3, 4}, {4, 1}, {5}, {5, 6}, {6}}
	// Flow 0 crosses lanes 0..20 and freezes on lane 0 in the first
	// round, which kills lanes 1..20 at once.
	star := []int32{0}
	starCaps := []*big.Rat{r(1, 1)}
	for j := int32(1); j <= 20; j++ {
		star = append(star, j)
		starCaps = append(starCaps, r(10, 1))
	}
	starCaps = append(starCaps, r(3, 1), r(5, 1))
	// Round 0 kills lane 0; round 1 overflows at lane 2 (remN·minA =
	// (2^62+1)·2) after scanning lane 1, with lane 3 not yet scanned.
	big62 := new(big.Rat).SetInt64(1<<62 + 2)
	for _, tc := range []struct {
		name     string
		caps     []*big.Rat
		lanes    [][]int32
		overflow bool
	}{
		{"ties", ones(7), ties, false},
		{"ties after a dead lane", []*big.Rat{r(1, 1), r(2, 1), r(2, 1), r(2, 1), r(2, 1)}, [][]int32{{0}, {1}, {2}, {3}, {4}}, false},
		{"one flow two lanes", ones(2), [][]int32{{0, 1}, {1}}, false},
		{"fractional", []*big.Rat{r(1, 2), r(2, 3), r(5, 4), r(2, 3)}, [][]int32{{0, 2}, {0, 2}, {1, 2}, {3}}, false},
		{"zero capacity", []*big.Rat{r(0, 1), r(2, 3), r(5, 4), r(2, 3)}, [][]int32{{0, 2}, {0, 2}, {1, 2}, {3}}, false},
		{"kills many lanes", starCaps, [][]int32{star, {21}, {21, 22}}, false},
		{"overflow mid-scan", []*big.Rat{r(1, 1), r(3, 1), big62, r(5, 1)}, [][]int32{{0}, {1, 2}, {1, 3}}, true},
		{"unbounded flow", ones(3), [][]int32{{0}, {}, {0, 2}}, false},
	} {
		if got := checkRounds(t, tc.name, tc.caps, tc.lanes); got != tc.overflow {
			t.Errorf("%s: overflowed = %v, want %v", tc.name, got, tc.overflow)
		}
	}
	rng := rand.New(rand.NewSource(1))
	overflows := 0
	for i := 0; i < 3000; i++ {
		data := make([]byte, 1+rng.Intn(80))
		rng.Read(data)
		caps, lanes := laneSystem(data)
		if checkRounds(t, fmt.Sprintf("random %d", i), caps, lanes) {
			overflows++
		}
	}
	if overflows == 0 {
		t.Error("no random lane system overflowed")
	}
}

// FuzzKernelRounds is TestKernelRoundsMatchOracle's random half as a
// fuzzer: the kernel's rounds against the oracle rounds on lane
// systems decoded by laneSystem.
func FuzzKernelRounds(f *testing.F) {
	f.Add([]byte{4, 0, 3, 0, 0, 0, 0, 1, 1, 2, 1, 2, 3})
	f.Add([]byte{3, 7, 8, 9, 1, 0, 2, 1, 1, 2, 0, 2})
	f.Add([]byte{5, 12, 13, 14, 15, 1, 1, 0, 2, 1, 4, 2, 2, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		caps, lanes := laneSystem(data)
		checkRounds(t, "fuzz", caps, lanes)
	})
}

// TestFillBigCancelledBetweenRounds cancels a *big.Rat fill after its
// first round, which leaves dead lanes in touched, and after its
// second, whose min scan has dropped them, and checks that the next
// register resets the kernel: both fills that follow match a fresh
// kernel's.
func TestFillBigCancelledBetweenRounds(t *testing.T) {
	r := rational.R
	// Round 0 freezes flow 0 on lane 0, killing lanes 0..2; round 1
	// drops them and freezes flows 2 and 3 on lane 4.
	caps := []*big.Rat{r(1, 1), r(10, 1), r(10, 1), r(3, 1), r(5, 2)}
	lanes := [][]int32{{0, 1, 2}, {3}, {3, 4}, {4}}
	tmpl := newCapTemplate(caps)
	fresh := tmpl.newKernel()
	fresh.register(lanes)
	want := make([]rational.Rat64, len(lanes))
	if ok, err := fresh.fill64(want); !ok || err != nil {
		t.Fatalf("fresh fill64: ok %v, err %v", ok, err)
	}
	for _, tc := range []struct {
		rounds  int
		left    int
		touched []int32
	}{
		{1, 3, []int32{0, 1, 2, 3, 4}},
		{2, 1, []int32{3, 4}},
	} {
		k := tmpl.newKernel()
		k.register(lanes)
		err := k.fillBig(&cancelAfter{context.Background(), tc.rounds}, make([]*big.Rat, len(lanes)))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%d rounds: fillBig: %v, want context.Canceled", tc.rounds, err)
		}
		if k.left != tc.left || !slices.Equal(k.touched, tc.touched) {
			t.Fatalf("%d rounds: left %d touched %v; want %d and %v", tc.rounds, k.left, k.touched, tc.left, tc.touched)
		}
		k.register(lanes)
		got := make([]rational.Rat64, len(lanes))
		if ok, err := k.fill64(got); !ok || err != nil || !slices.Equal(got, want) {
			t.Fatalf("%d rounds: fill64 after cancel: %v (ok %v, err %v), want %v", tc.rounds, got, ok, err, want)
		}
		k.register(lanes)
		a := make(Allocation, len(lanes))
		if err := k.fillBig(context.Background(), a); err != nil || !a.Equal(AllocOf(want)) {
			t.Fatalf("%d rounds: fillBig after cancel: %v (err %v), want %v", tc.rounds, a, err, want)
		}
	}
}
