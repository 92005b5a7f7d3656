package topology

import (
	"fmt"
	"testing"
)

// validateAllPaths checks every (source, dest, choice) path of a
// fabric: it must validate against the network, and the choice fan must
// hold distinct(si, di) distinct paths — Size() when distinct is nil.
// Families may collapse choices for some pairs (a fat-tree's intra-pod
// paths never cross a core, so the k^2/4 choices fold onto the k/2
// aggregation switches of the pod).
func validateAllPaths(t *testing.T, f Fabric, distinct func(si, di int) int) {
	t.Helper()
	net := f.Network()
	for si := 1; si <= f.NumToRs(); si++ {
		for sj := 1; sj <= f.ServersPerToR(); sj++ {
			for di := 1; di <= f.NumToRs(); di++ {
				for dj := 1; dj <= f.ServersPerToR(); dj++ {
					src, dst := f.Source(si, sj), f.Dest(di, dj)
					seen := make(map[string]bool)
					for m := 1; m <= f.Size(); m++ {
						p, err := f.Path(src, dst, m)
						if err != nil {
							t.Fatalf("path s%d.%d->t%d.%d via %d: %v", si, sj, di, dj, m, err)
						}
						if err := p.Validate(net, src, dst); err != nil {
							t.Fatalf("path s%d.%d->t%d.%d via %d invalid: %v", si, sj, di, dj, m, err)
						}
						seen[fmt.Sprint(p)] = true
					}
					want := f.Size()
					if distinct != nil {
						want = distinct(si, di)
					}
					if len(seen) != want {
						t.Errorf("s%d.%d->t%d.%d: %d distinct paths, want %d",
							si, sj, di, dj, len(seen), want)
					}
				}
			}
		}
	}
}

func TestFatTreeShapeAndPaths(t *testing.T) {
	for _, k := range []int{2, 4} {
		ft, err := NewFatTree(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Standard k-pod fat-tree: k pods of k/2 edge switches with k/2
		// servers each, (k/2)^2 cores. As a fabric: k*k/2 ToRs, k/2
		// servers per ToR, k^2/4 path choices.
		if got, want := ft.NumToRs(), k*k/2; got != want {
			t.Errorf("k=%d: %d ToRs, want %d", k, got, want)
		}
		if got, want := ft.ServersPerToR(), k/2; got != want {
			t.Errorf("k=%d: %d servers/ToR, want %d", k, got, want)
		}
		if got, want := ft.Size(), k*k/4; got != want {
			t.Errorf("k=%d: %d choices, want %d", k, got, want)
		}
		if ft.SymmetricChoices() {
			t.Errorf("k=%d: fat-tree claims symmetric choices", k)
		}
		half := k / 2
		validateAllPaths(t, ft, func(si, di int) int {
			if (si-1)/half == (di-1)/half {
				return half // intra-pod: one path per aggregation switch
			}
			return k * k / 4 // inter-pod: one path per core
		})
	}
	for _, k := range []int{0, 3, -2} {
		if _, err := NewFatTree(k); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
}

func TestBenesShapeAndPaths(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		b, err := NewBenes(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// An n-port Benes as a fabric: n/2 ToRs of 2 servers, n/2 path
		// choices (one per middle subnetwork bit pattern).
		if got, want := b.NumToRs(), n/2; got != want {
			t.Errorf("n=%d: %d ToRs, want %d", n, got, want)
		}
		if got, want := b.ServersPerToR(), 2; got != want {
			t.Errorf("n=%d: %d servers/ToR, want %d", n, got, want)
		}
		if got, want := b.Size(), n/2; got != want {
			t.Errorf("n=%d: %d choices, want %d", n, got, want)
		}
		if b.SymmetricChoices() {
			t.Errorf("n=%d: Benes claims symmetric choices", n)
		}
		validateAllPaths(t, b, nil)
	}
	for _, n := range []int{0, 3, 6, -4} {
		if _, err := NewBenes(n); err == nil {
			t.Errorf("n=%d accepted", n)
		}
	}
}

func TestNewOversubscribedClos(t *testing.T) {
	// 4 ToRs with 4 servers each at 2:1 gives 2 middle switches.
	c, err := NewOversubscribedClos(4, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumToRs() != 4 || c.ServersPerToR() != 4 || c.Size() != 2 {
		t.Errorf("shape (%d, %d, %d), want (4, 4, 2)", c.NumToRs(), c.ServersPerToR(), c.Size())
	}
	// OversubscriptionRatio renders the raw servers:middles form.
	if got := OversubscriptionRatio(c); got != "4:2" {
		t.Errorf("ratio %q, want 4:2", got)
	}
	validateAllPaths(t, c, nil)

	for _, bad := range [][4]int{
		{4, 3, 2, 1},  // 3 servers at 2:1 does not divide
		{4, 4, 0, 1},  // zero ratio term
		{4, 4, 1, -1}, // negative ratio term
		{0, 4, 1, 1},  // no ToRs
		{4, 1, 4, 1},  // rounds middles to zero
	} {
		if _, err := NewOversubscribedClos(bad[0], bad[1], bad[2], bad[3]); err == nil {
			t.Errorf("NewOversubscribedClos%v accepted", bad)
		}
	}
}

func TestBuildFamily(t *testing.T) {
	cases := []struct {
		family                 string
		tors, servers, middles int
	}{
		{"", 3, 2, 3},
		{"clos", 3, 2, 3},
		{FamilyFatTree, 8, 2, 4},
		{FamilyBenes, 4, 2, 4},
		{"", 4, 4, 2}, // oversubscribed Clos shape, family-free
	}
	for _, tc := range cases {
		f, err := BuildFamily(tc.family, tc.tors, tc.servers, tc.middles)
		if err != nil {
			t.Errorf("BuildFamily(%q, %d, %d, %d): %v", tc.family, tc.tors, tc.servers, tc.middles, err)
			continue
		}
		if f.NumToRs() != tc.tors || f.ServersPerToR() != tc.servers || f.Size() != tc.middles {
			t.Errorf("BuildFamily(%q): shape (%d, %d, %d), want (%d, %d, %d)", tc.family,
				f.NumToRs(), f.ServersPerToR(), f.Size(), tc.tors, tc.servers, tc.middles)
		}
	}

	for _, bad := range []struct {
		family                 string
		tors, servers, middles int
	}{
		{"ring", 3, 2, 3},        // unknown family
		{FamilyFatTree, 8, 2, 5}, // core count mismatch
		{FamilyFatTree, 7, 2, 4}, // ToR count mismatch
		{FamilyBenes, 4, 3, 4},   // Benes always has 2 servers/ToR
		{FamilyBenes, 3, 2, 3},   // not a power of two
		// Shapes whose one parameter names a huge fabric: rejected by
		// CheckShape before anything is built.
		{FamilyFatTree, 1, 4096, 1},
		{FamilyFatTree, 1 << 62, 1 << 31, 1}, // 2·servers² overflows
		{FamilyFatTree, 2, 1 << 62, 1},
		{FamilyBenes, 4096, 2, 1},
	} {
		if _, err := BuildFamily(bad.family, bad.tors, bad.servers, bad.middles); err == nil {
			t.Errorf("BuildFamily(%q, %d, %d, %d) accepted", bad.family, bad.tors, bad.servers, bad.middles)
		}
		if err := CheckShape(bad.family, bad.tors, bad.servers, bad.middles); err == nil {
			t.Errorf("CheckShape(%q, %d, %d, %d) accepted", bad.family, bad.tors, bad.servers, bad.middles)
		}
	}
	for _, tc := range cases {
		if err := CheckShape(tc.family, tc.tors, tc.servers, tc.middles); err != nil {
			t.Errorf("CheckShape(%q, %d, %d, %d): %v", tc.family, tc.tors, tc.servers, tc.middles, err)
		}
	}
}

func TestFamilyNamesMatchBuilders(t *testing.T) {
	names := FamilyNames()
	if len(names) == 0 {
		t.Fatal("no family names")
	}
	shapes := map[string][3]int{
		FamilyClos:    {3, 2, 3},
		FamilyFatTree: {8, 2, 4},
		FamilyBenes:   {4, 2, 4},
	}
	for _, name := range names {
		shape, ok := shapes[name]
		if !ok {
			t.Errorf("family %q has no shape in this test — extend it", name)
			continue
		}
		if _, err := BuildFamily(name, shape[0], shape[1], shape[2]); err != nil {
			t.Errorf("family %q does not build: %v", name, err)
		}
	}
}
