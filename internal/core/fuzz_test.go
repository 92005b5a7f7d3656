package core

import (
	"testing"

	"closnet/internal/reference"
	"closnet/internal/topology"
)

// FuzzWaterfill drives MaxMinFair, the kernel's one-shot driver, with
// arbitrary byte-encoded instances on C_2 and on the macro-switch
// carrying the same flows, and checks the full invariant set on both:
// feasibility, the bottleneck property (Lemma 2.2) and exact agreement
// with reference.MaxMinFair.
func FuzzWaterfill(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 2, 1, 3, 4, 0, 5, 6, 1})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, fs, ma := quickInstance(data)
		if len(fs) == 0 {
			return
		}
		r, err := ClosRouting(c, fs, ma)
		if err != nil {
			t.Fatalf("routing: %v", err)
		}
		ms := topology.MustMacroSwitch(c.Size())
		mfs := make(Collection, len(fs))
		for fi, fl := range fs {
			si, sj, _ := c.SourceIndexOf(fl.Src)
			di, dj, _ := c.DestIndexOf(fl.Dst)
			mfs[fi] = Flow{Src: ms.Source(si, sj), Dst: ms.Dest(di, dj)}
		}
		mr, err := MacroRouting(ms, mfs)
		if err != nil {
			t.Fatalf("macro routing: %v", err)
		}
		for _, in := range []struct {
			name string
			net  *topology.Network
			fs   Collection
			r    Routing
		}{{"clos", c.Network(), fs, r}, {"macro", ms.Network(), mfs, mr}} {
			a, err := MaxMinFair(in.net, in.fs, in.r)
			if err != nil {
				t.Fatalf("%s: waterfill: %v", in.name, err)
			}
			if err := IsFeasible(in.net, in.fs, in.r, a); err != nil {
				t.Fatalf("%s: infeasible output: %v", in.name, err)
			}
			if err := IsMaxMinFair(in.net, in.fs, in.r, a); err != nil {
				t.Fatalf("%s: bottleneck property: %v", in.name, err)
			}
			want, err := reference.MaxMinFair(in.net, in.r)
			if err != nil {
				t.Fatalf("%s: reference: %v", in.name, err)
			}
			if !a.Equal(want) {
				t.Fatalf("%s: kernel %v, reference %v", in.name, a, want)
			}
		}
	})
}
