package topology

import (
	"testing"

	"closnet/internal/rational"
)

func TestNewGeneralClosShape(t *testing.T) {
	tests := []struct {
		tors, servers, middles int
	}{
		{1, 1, 1},
		{3, 2, 5},
		{4, 1, 7},
		{2, 5, 2},
	}
	for _, tt := range tests {
		c, err := NewGeneralClos(tt.tors, tt.servers, tt.middles)
		if err != nil {
			t.Fatalf("(%d,%d,%d): %v", tt.tors, tt.servers, tt.middles, err)
		}
		if c.NumToRs() != tt.tors || c.ServersPerToR() != tt.servers || c.Size() != tt.middles {
			t.Fatalf("shape accessors disagree: %d %d %d", c.NumToRs(), c.ServersPerToR(), c.Size())
		}
		net := c.Network()
		wantNodes := 2*tt.tors + tt.middles + 2*tt.tors*tt.servers
		if got := net.NumNodes(); got != wantNodes {
			t.Errorf("nodes = %d, want %d", got, wantNodes)
		}
		wantLinks := 2*tt.tors*tt.servers + 2*tt.tors*tt.middles
		if got := net.NumLinks(); got != wantLinks {
			t.Errorf("links = %d, want %d", got, wantLinks)
		}
	}
}

func TestNewGeneralClosRejectsBadShapes(t *testing.T) {
	for _, tt := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 2, 2}} {
		if _, err := NewGeneralClos(tt[0], tt[1], tt[2]); err == nil {
			t.Errorf("shape %v accepted", tt)
		}
	}
}

func TestSquareClosIsSpecialCase(t *testing.T) {
	square := MustClos(3)
	general, err := NewGeneralClos(6, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if square.Network().NumNodes() != general.Network().NumNodes() ||
		square.Network().NumLinks() != general.Network().NumLinks() {
		t.Error("NewClos(3) and NewGeneralClos(6,3,3) differ structurally")
	}
	if square.Network().Name() != "C_3" {
		t.Errorf("square name = %q", square.Network().Name())
	}
	if general.Network().Name() != "C_3" {
		t.Errorf("general square name = %q", general.Network().Name())
	}
	rect, err := NewGeneralClos(3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rect.Network().Name() != "C(3x2x5)" {
		t.Errorf("rect name = %q", rect.Network().Name())
	}
}

func TestGeneralClosPathsPerMiddle(t *testing.T) {
	c, err := NewGeneralClos(3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := c.Source(1, 2), c.Dest(3, 1)
	for m := 1; m <= 5; m++ {
		p, err := c.Path(src, dst, m)
		if err != nil {
			t.Fatalf("middle %d: %v", m, err)
		}
		if err := p.Validate(c.Network(), src, dst); err != nil {
			t.Fatalf("middle %d: %v", m, err)
		}
	}
	if _, err := c.Path(src, dst, 6); err == nil {
		t.Error("out-of-range middle accepted")
	}
}

func TestGeneralClosIndexRoundTrip(t *testing.T) {
	c, err := NewGeneralClos(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		for j := 1; j <= 3; j++ {
			si, sj, ok := c.SourceIndexOf(c.Source(i, j))
			if !ok || si != i || sj != j {
				t.Errorf("SourceIndexOf(Source(%d,%d)) = (%d,%d,%v)", i, j, si, sj, ok)
			}
			di, dj, ok := c.DestIndexOf(c.Dest(i, j))
			if !ok || di != i || dj != j {
				t.Errorf("DestIndexOf(Dest(%d,%d)) = (%d,%d,%v)", i, j, di, dj, ok)
			}
		}
	}
	if _, _, ok := c.SourceIndexOf(c.Dest(1, 1)); ok {
		t.Error("SourceIndexOf accepted a destination")
	}
	if _, _, ok := c.DestIndexOf(c.Middle(1)); ok {
		t.Error("DestIndexOf accepted a switch")
	}
}

// TestExtraMiddlesAddCapacity: with more middle switches than servers
// per ToR, an all-to-one-ToR unit workload becomes link-disjointly
// routable.
func TestExtraMiddlesAddCapacity(t *testing.T) {
	// 2 ToRs, 3 servers each, 3 middles: three unit flows I1 -> O2 fit
	// on distinct middles.
	c, err := NewGeneralClos(2, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	net := c.Network()
	for m := 1; m <= 3; m++ {
		p, err := c.Path(c.Source(1, m), c.Dest(2, m), m)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(net, c.Source(1, m), c.Dest(2, m)); err != nil {
			t.Fatal(err)
		}
	}
	// All fabric links unit capacity.
	for _, l := range net.Links() {
		if l.Capacity.Cmp(rational.One()) != 0 {
			t.Fatalf("link %s not unit", net.LinkName(l.ID))
		}
	}
}

func TestBisectionHelpers(t *testing.T) {
	if !FullBisection(MustClos(3)) {
		t.Error("square Clos should be exactly full bisection")
	}
	over, err := NewGeneralClos(4, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if FullBisection(over) {
		t.Error("oversubscribed fabric (5 servers, 3 middles) classified as full bisection")
	}
	under, err := NewGeneralClos(4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !FullBisection(under) {
		t.Error("under-subscribed fabric (2 servers, 3 middles) classified as oversubscribed")
	}
}
