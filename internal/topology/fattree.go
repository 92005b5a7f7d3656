package topology

import (
	"fmt"

	"closnet/internal/rational"
)

// FatTree is the k-pod fat-tree of Al-Fares et al.: k pods of k/2 edge
// and k/2 aggregation switches each, (k/2)² core switches, k/2 servers
// per edge switch, all links of unit capacity. Core c connects to the
// aggregation switch of group (c-1) div (k/2) in every pod.
//
// Like Clos, the fabric is directionally unfolded: each physical edge
// switch appears once as an input-role node (reached by sources) and
// once as an output-role node (reaching destinations), and every flow —
// including a flow between servers of the same edge switch — transits
// the aggregation layer. Aggregation and core switches are single nodes
// carrying both directions on separate directed links, so each physical
// full-duplex cable is one uplink plus one downlink of unit capacity.
//
// A ToR is an edge switch: NumToRs() = k·(k/2) per side and
// ServersPerToR() = k/2. A path choice m ∈ [(k/2)²] names core switch
// m; an inter-pod flow rides core m, while an intra-pod flow only uses
// m's aggregation group (c-1) div (k/2), so its (k/2)² choice indices
// collapse onto k/2 distinct paths. Choices are NOT interchangeable —
// relabeling cores across aggregation groups is no automorphism — so
// SymmetricChoices reports false and searches scan the full space.
type FatTree struct {
	net  *Network
	k    int // pods
	half int // k/2

	inEdgeBase  NodeID // k·half input-role edge switches
	outEdgeBase NodeID // k·half output-role edge switches
	aggBase     NodeID // k·half aggregation switches
	coreBase    NodeID // half² core switches
	sourceBase  NodeID
	destBase    NodeID

	// Links are added in pairs, uplink first. Server pair q =
	// (i-1)·half + (j-1) is s_i^j -> IE_i (2q) and OE_i -> t_i^j (2q+1);
	// pod pair q = (i-1)·half + (a-1) is IE_i -> A(p, a) (podLinks+2q)
	// and A(p, a) -> OE_i (+1); core pair q = ((p-1)·half + (a-1))·half
	// + (x-1) is A(p, a) -> C_c (coreLinks+2q) and C_c -> A(p, a) (+1),
	// with c = (a-1)·half + x.
	podLinks, coreLinks LinkID
}

// NewFatTree builds the k-pod fat-tree. k must be even and at least 2.
func NewFatTree(k int) (*FatTree, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("fattree: k=%d, want even k >= 2", k)
	}
	half := k / 2
	ft := &FatTree{net: New(fmt.Sprintf("FT_%d", k)), k: k, half: half}
	one := rational.One()

	tors := k * half
	ft.inEdgeBase = NodeID(ft.net.NumNodes())
	for p := 1; p <= k; p++ {
		for e := 1; e <= half; e++ {
			ft.net.AddNode(KindInputSwitch, fmt.Sprintf("IE%d.%d", p, e))
		}
	}
	ft.outEdgeBase = NodeID(ft.net.NumNodes())
	for p := 1; p <= k; p++ {
		for e := 1; e <= half; e++ {
			ft.net.AddNode(KindOutputSwitch, fmt.Sprintf("OE%d.%d", p, e))
		}
	}
	ft.aggBase = NodeID(ft.net.NumNodes())
	for p := 1; p <= k; p++ {
		for a := 1; a <= half; a++ {
			ft.net.AddNode(KindOther, fmt.Sprintf("A%d.%d", p, a))
		}
	}
	ft.coreBase = NodeID(ft.net.NumNodes())
	for c := 1; c <= half*half; c++ {
		ft.net.AddNode(KindMiddleSwitch, fmt.Sprintf("C%d", c))
	}
	ft.sourceBase = NodeID(ft.net.NumNodes())
	for i := 1; i <= tors; i++ {
		for j := 1; j <= half; j++ {
			ft.net.AddNode(KindSource, fmt.Sprintf("s%d.%d", i, j))
		}
	}
	ft.destBase = NodeID(ft.net.NumNodes())
	for i := 1; i <= tors; i++ {
		for j := 1; j <= half; j++ {
			ft.net.AddNode(KindDestination, fmt.Sprintf("t%d.%d", i, j))
		}
	}

	// Server links: s_i^j -> IE_i and OE_i -> t_i^j.
	for i := 1; i <= tors; i++ {
		for j := 1; j <= half; j++ {
			if _, err := ft.net.AddLink(ft.Source(i, j), ft.inEdge(i), one); err != nil {
				return nil, err
			}
			if _, err := ft.net.AddLink(ft.outEdge(i), ft.Dest(i, j), one); err != nil {
				return nil, err
			}
		}
	}
	// Pod fabric: every edge switch to every aggregation switch of its
	// pod, in both roles.
	ft.podLinks = LinkID(ft.net.NumLinks())
	for p := 1; p <= k; p++ {
		for e := 1; e <= half; e++ {
			i := (p-1)*half + e
			for a := 1; a <= half; a++ {
				if _, err := ft.net.AddLink(ft.inEdge(i), ft.agg(p, a), one); err != nil {
					return nil, err
				}
				if _, err := ft.net.AddLink(ft.agg(p, a), ft.outEdge(i), one); err != nil {
					return nil, err
				}
			}
		}
	}
	// Core fabric: aggregation switch (p, a) to the half cores of group
	// a, in both directions.
	ft.coreLinks = LinkID(ft.net.NumLinks())
	for p := 1; p <= k; p++ {
		for a := 1; a <= half; a++ {
			for x := 1; x <= half; x++ {
				c := (a-1)*half + x
				if _, err := ft.net.AddLink(ft.agg(p, a), ft.core(c), one); err != nil {
					return nil, err
				}
				if _, err := ft.net.AddLink(ft.core(c), ft.agg(p, a), one); err != nil {
					return nil, err
				}
			}
		}
	}
	return ft, nil
}

// Network returns the underlying network.
func (ft *FatTree) Network() *Network { return ft.net }

// Size returns the number of path choices per server pair, (k/2)².
func (ft *FatTree) Size() int { return ft.half * ft.half }

// NumToRs returns the number of edge switches per side, k·(k/2).
func (ft *FatTree) NumToRs() int { return ft.k * ft.half }

// ServersPerToR returns the servers per edge switch, k/2.
func (ft *FatTree) ServersPerToR() int { return ft.half }

// SymmetricChoices reports false: cores are interchangeable only
// within an aggregation group, not across the whole choice alphabet.
func (ft *FatTree) SymmetricChoices() bool { return false }

func (ft *FatTree) inEdge(i int) NodeID {
	ft.check(i, ft.NumToRs(), "edge switch")
	return ft.inEdgeBase + NodeID(i-1)
}

func (ft *FatTree) outEdge(i int) NodeID {
	ft.check(i, ft.NumToRs(), "edge switch")
	return ft.outEdgeBase + NodeID(i-1)
}

func (ft *FatTree) agg(p, a int) NodeID {
	ft.check(p, ft.k, "pod")
	ft.check(a, ft.half, "aggregation switch")
	return ft.aggBase + NodeID((p-1)*ft.half+(a-1))
}

func (ft *FatTree) core(c int) NodeID {
	ft.check(c, ft.half*ft.half, "core switch")
	return ft.coreBase + NodeID(c-1)
}

// Source returns server s_i^j on edge switch i.
func (ft *FatTree) Source(i, j int) NodeID {
	ft.check(i, ft.NumToRs(), "source switch index")
	ft.check(j, ft.half, "source server index")
	return ft.sourceBase + NodeID((i-1)*ft.half+(j-1))
}

// Dest returns server t_i^j on edge switch i.
func (ft *FatTree) Dest(i, j int) NodeID {
	ft.check(i, ft.NumToRs(), "destination switch index")
	ft.check(j, ft.half, "destination server index")
	return ft.destBase + NodeID((i-1)*ft.half+(j-1))
}

func (ft *FatTree) check(i, max int, what string) {
	if i < 1 || i > max {
		panic(fmt.Sprintf("fattree: %s index %d out of range [1,%d]", what, i, max))
	}
}

func (ft *FatTree) numServers() int { return ft.NumToRs() * ft.half }

// InputOf returns the edge-switch index homing source s.
func (ft *FatTree) InputOf(s NodeID) (int, bool) {
	if s < ft.sourceBase || s >= ft.sourceBase+NodeID(ft.numServers()) {
		return 0, false
	}
	return int(s-ft.sourceBase)/ft.half + 1, true
}

// OutputOf returns the edge-switch index homing destination t.
func (ft *FatTree) OutputOf(t NodeID) (int, bool) {
	if t < ft.destBase || t >= ft.destBase+NodeID(ft.numServers()) {
		return 0, false
	}
	return int(t-ft.destBase)/ft.half + 1, true
}

// SourceIndexOf returns the (i, j) indices such that s == Source(i, j).
func (ft *FatTree) SourceIndexOf(s NodeID) (int, int, bool) {
	if s < ft.sourceBase || s >= ft.sourceBase+NodeID(ft.numServers()) {
		return 0, 0, false
	}
	off := int(s - ft.sourceBase)
	return off/ft.half + 1, off%ft.half + 1, true
}

// DestIndexOf returns the (i, j) indices such that t == Dest(i, j).
func (ft *FatTree) DestIndexOf(t NodeID) (int, int, bool) {
	if t < ft.destBase || t >= ft.destBase+NodeID(ft.numServers()) {
		return 0, 0, false
	}
	off := int(t - ft.destBase)
	return off/ft.half + 1, off%ft.half + 1, true
}

// Path returns the src→dst path selected by choice m ∈ [(k/2)²]. An
// inter-pod flow rides core m through the aggregation group of m on
// both sides; an intra-pod flow turns around at that aggregation group
// without touching a core.
func (ft *FatTree) Path(src, dst NodeID, m int) (Path, error) {
	return wrapPath(ft.AppendPath(make(Path, 0, 6), src, dst, m))
}

// AppendPath appends Path(src, dst, m) to p, computing the link IDs
// from the construction order without a lookup. On error p is returned
// unchanged.
func (ft *FatTree) AppendPath(p Path, src, dst NodeID, m int) (Path, error) {
	if src < ft.sourceBase || src >= ft.sourceBase+NodeID(ft.numServers()) {
		return p, fmt.Errorf("fattree path: node %d is not a source", src)
	}
	if dst < ft.destBase || dst >= ft.destBase+NodeID(ft.numServers()) {
		return p, fmt.Errorf("fattree path: node %d is not a destination", dst)
	}
	if m < 1 || m > ft.Size() {
		return p, fmt.Errorf("fattree path: choice %d out of range [1,%d]", m, ft.Size())
	}
	s, t := int(src-ft.sourceBase), int(dst-ft.destBase)
	i, o := s/ft.half, t/ft.half // 0-based edge switches
	g, x := (m-1)/ft.half, (m-1)%ft.half
	p = append(p, LinkID(2*s), ft.podLinks+LinkID(2*(i*ft.half+g)))
	if pi, po := i/ft.half, o/ft.half; pi != po {
		p = append(p,
			ft.coreLinks+LinkID(2*((pi*ft.half+g)*ft.half+x)),
			ft.coreLinks+LinkID(2*((po*ft.half+g)*ft.half+x)+1))
	}
	return append(p, ft.podLinks+LinkID(2*(o*ft.half+g)+1), LinkID(2*t+1)), nil
}
