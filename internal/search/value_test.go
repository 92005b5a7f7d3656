package search

import (
	"encoding/binary"
	"math/big"
	"sync/atomic"
	"testing"

	"closnet/internal/rational"
)

// TestSearchPromotion: promoting the search's leaf-block and bound fills
// changes no result. Every fill is promoted, or every other one by rank,
// so that Rat64 lanes and *big.Rat vectors meet in one compare — in the
// incumbent rule, the frontier heap, the ceiling and the shard merge.
// Both objectives, scan and pruned, must return the fast run's
// assignment, allocation and States on every block-equivalence instance.
func TestSearchPromotion(t *testing.T) {
	var calls atomic.Int64
	hooks := []struct {
		name string
		fn   func(rank int) bool
	}{
		{"all", func(int) bool { calls.Add(1); return true }},
		{"alternating", func(rank int) bool { calls.Add(1); return rank%2 == 1 }},
	}
	for name, in := range equivalenceInstances(t) {
		for objName, o := range screenedObjectives {
			for _, opts := range []Options{{Workers: 2}, {Pruned: true}} {
				want := runBlocks(t, in.c, in.fs, opts, o.obj, scanBlock)
				for _, h := range hooks {
					obj, err := o.obj(in.c, in.fs, opts)
					if err != nil {
						t.Fatal(err)
					}
					obj.testPromote = h.fn
					calls.Store(0)
					got, err := run(in.c, in.fs, opts, obj, scanBlock)
					if err != nil {
						t.Fatal(err)
					}
					label := name + "/" + objName + "/" + h.name
					if opts.Pruned {
						label += "/pruned"
					}
					checkSameResult(t, label, opts.Workers, want, got)
					if calls.Load() == 0 {
						t.Errorf("%s: the promotion hook was never consulted", label)
					}
				}
			}
		}
	}
}

// valueReader decodes fuzz bytes into search values; it reads zeros
// past the end of its data.
type valueReader []byte

func (r *valueReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

func (r *valueReader) int64() int64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = r.byte()
	}
	return int64(binary.LittleEndian.Uint64(buf[:]))
}

// rat decodes one element. Its first byte picks a small fraction, a
// fraction of two arbitrary int64s, a copy of ref (the other value's
// element at the same index, so prefixes tie) or, when wide is set, a
// fraction with components past int64.
func (r *valueReader) rat(ref *big.Rat, wide bool) *big.Rat {
	small := func() *big.Rat { return big.NewRat(int64(int8(r.byte())), int64(r.byte()%16)+1) }
	switch r.byte() % 4 {
	case 1:
		p, q := r.int64(), r.int64()
		if q == 0 {
			return small()
		}
		return new(big.Rat).SetFrac(big.NewInt(p), big.NewInt(q))
	case 2:
		if ref != nil {
			return ref
		}
	case 3:
		if wide {
			p := new(big.Int).Lsh(big.NewInt(r.int64()), 64)
			p.Add(p, big.NewInt(int64(r.byte())))
			q := new(big.Int).Lsh(big.NewInt(int64(r.byte())+1), uint(r.byte()%80))
			return new(big.Rat).SetFrac(p, q)
		}
	}
	return small()
}

// value decodes a lane or a *big.Rat vector of up to five elements,
// copying elements of ref where the data says so.
func (r *valueReader) value(ref rational.Vec) value {
	h := r.byte()
	wide := h&1 == 1
	n := int(h>>1) % 6
	x := make(rational.Vec, n)
	var lane []rational.Rat64
	for i := range x {
		var at *big.Rat
		if i < len(ref) {
			at = ref[i]
		}
		x[i] = r.rat(at, wide)
		if wide {
			continue
		}
		v, ok := rational.FromRat(x[i])
		if !ok {
			v = rational.Int64(int64(int8(x[i].Sign())))
			x[i] = v.Rat()
		}
		lane = append(lane, v)
	}
	if wide {
		return value{big: x}
	}
	return value{lane: lane}
}

// FuzzSearchValue checks value.cmp, the one compare of the search's
// values, against rational.LexCompare of their *big.Rat images: Rat64
// lanes, *big.Rat vectors with components past int64, mixes of the two
// forms, equal prefixes and unequal lengths.
func FuzzSearchValue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 0, 1, 3, 0, 2, 5, 6, 2, 2, 2, 0, 2, 5})
	f.Add([]byte{7, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 3, 0, 2, 2, 6, 2, 2, 2, 0, 9, 1})
	f.Add([]byte{10, 1, 255, 255, 255, 255, 255, 255, 255, 127, 1, 0, 0, 0, 0, 0, 0, 0, 11, 2, 2, 0, 3, 4})
	f.Add([]byte{9, 3, 9, 9, 9, 9, 9, 9, 9, 128, 7, 200, 70, 8, 2, 3, 8, 8, 8, 8, 8, 8, 8, 8, 3, 5, 60})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := valueReader(data)
		a := r.value(nil)
		b := r.value(a.rats())
		want := rational.LexCompare(a.rats(), b.rats())
		if got := a.cmp(&b); got != want {
			t.Fatalf("cmp(%v, %v) = %d, LexCompare %d", a.rats(), b.rats(), got, want)
		}
		if got := b.cmp(&a); got != -want {
			t.Fatalf("cmp(%v, %v) = %d, LexCompare %d", b.rats(), a.rats(), got, -want)
		}
		var c value
		c.set(&a)
		if c.cmp(&a) != 0 || a.cmp(&c) != 0 {
			t.Fatalf("a copy of %v does not compare equal", a.rats())
		}
	})
}
