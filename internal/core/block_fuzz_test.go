package core

import (
	"testing"
)

// FuzzBlockEvalMatchesSingle is the block evaluator's differential
// fuzz: a random small Clos instance plus a random assignment block,
// with BlockEvaluator output required to be Vec.Equal-identical to
// reference.MaxMinFair on every element. The mode byte additionally
// drives the promotion protocol through its regimes: pinned big.Rat blocks
// (ForceBig) and mixed blocks where the test hook forces a
// pseudo-random subset of states through a mid-fill promotion.
func FuzzBlockEvalMatchesSingle(f *testing.F) {
	f.Add([]byte{0, 0, 0}, uint8(0))
	f.Add([]byte{1, 2, 1, 3, 4, 0, 5, 6, 1}, uint8(1))             // ForceBig
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(0xAA)) // mixed promotions
	f.Add([]byte{9, 1, 4, 2, 8, 5, 7, 3, 6}, uint8(0x55))

	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		c, fs, _ := quickInstance(data)
		if len(fs) == 0 {
			return
		}
		nf, n := len(fs), c.Size()
		k := 1 + int(mode>>5)%7
		mas := make([]int, k*nf)
		for i := range mas {
			// Recycle the instance bytes into block assignments so the
			// fuzzer controls both.
			mas[i] = 1 + int(data[(i*7+k)%len(data)])%n
		}
		be, err := NewBlockEvaluator(c, fs)
		if err != nil {
			t.Fatal(err)
		}
		forceBig := mode&1 == 1
		be.ForceBig(forceBig)
		if !forceBig && mode > 1 {
			mask := mode >> 1
			be.testOverflow = func(s int) bool { return mask&(1<<(s%7)) != 0 }
		}
		res, err := be.EvalBlock(mas, k)
		if err != nil {
			t.Fatalf("EvalBlock: %v", err)
		}
		for s := 0; s < k; s++ {
			want, err := referenceClos(c, fs, mas[s*nf:(s+1)*nf])
			if err != nil {
				t.Fatalf("state %d: oracle: %v", s, err)
			}
			if got := res.Alloc(s); !got.Equal(want) {
				t.Fatalf("state %d (promoted=%v, forceBig=%v): block %v, oracle %v",
					s, res.Promoted(s), forceBig, got, want)
			}
		}
	})
}
