package topology

import (
	"fmt"

	"closnet/internal/rational"
)

// Clos is a three-stage Clos network: `tors` input and `tors` output ToR
// switches, `servers` source (destination) servers per input (output)
// switch, and `middles` middle switches, all links of unit capacity.
// There are exactly `middles` source-destination paths between every
// (source, destination) pair, one per middle switch.
//
// The paper's square network C_n of §2.1 is the case
// (tors, servers, middles) = (2n, n, n), built by NewClos. The general
// form additionally supports the multirate-rearrangeability setting of
// §6, where the number of middle switches varies independently.
type Clos struct {
	net     *Network
	tors    int // input (and output) ToR switches
	servers int // servers per ToR switch
	middles int // middle switches

	inputBase  NodeID
	outputBase NodeID
	middleBase NodeID
	sourceBase NodeID
	destBase   NodeID

	// fabricBase is the ID of the first ToR–middle link. Links are added
	// in pairs: server pair q = (i-1)·servers + (j-1) is s_i^j -> I_i
	// (2q) and O_i -> t_i^j (2q+1); fabric pair q = (i-1)·middles +
	// (m-1) is I_i -> M_m (fabricBase+2q) and M_m -> O_i (+1).
	fabricBase LinkID
}

// NewClos builds the paper's square Clos network C_n: n middle switches,
// 2n ToR switches per side, n servers per ToR. It returns an error if
// n < 1.
func NewClos(n int) (*Clos, error) {
	if n < 1 {
		return nil, fmt.Errorf("clos: size n=%d, want n >= 1", n)
	}
	return NewGeneralClos(2*n, n, n)
}

// NewGeneralClos builds a Clos network with the given number of ToR
// switches per side, servers per ToR switch, and middle switches.
func NewGeneralClos(tors, servers, middles int) (*Clos, error) {
	if tors < 1 || servers < 1 || middles < 1 {
		return nil, fmt.Errorf("clos: invalid shape (tors=%d, servers=%d, middles=%d)", tors, servers, middles)
	}
	name := fmt.Sprintf("C(%dx%dx%d)", tors, servers, middles)
	if tors == 2*middles && servers == middles {
		name = fmt.Sprintf("C_%d", middles)
	}
	c := &Clos{net: New(name), tors: tors, servers: servers, middles: middles}
	one := rational.One()

	c.inputBase = c.addRange(tors, KindInputSwitch, "I%d")
	c.outputBase = c.addRange(tors, KindOutputSwitch, "O%d")
	c.middleBase = c.addRange(middles, KindMiddleSwitch, "M%d")

	c.sourceBase = NodeID(c.net.NumNodes())
	for i := 1; i <= tors; i++ {
		for j := 1; j <= servers; j++ {
			c.net.AddNode(KindSource, fmt.Sprintf("s%d.%d", i, j))
		}
	}
	c.destBase = NodeID(c.net.NumNodes())
	for i := 1; i <= tors; i++ {
		for j := 1; j <= servers; j++ {
			c.net.AddNode(KindDestination, fmt.Sprintf("t%d.%d", i, j))
		}
	}

	// Server links: s_i^j -> I_i and O_i -> t_i^j.
	for i := 1; i <= tors; i++ {
		for j := 1; j <= servers; j++ {
			if _, err := c.net.AddLink(c.Source(i, j), c.Input(i), one); err != nil {
				return nil, err
			}
			if _, err := c.net.AddLink(c.Output(i), c.Dest(i, j), one); err != nil {
				return nil, err
			}
		}
	}
	// Fabric links: I_i -> M_m and M_m -> O_i.
	c.fabricBase = LinkID(c.net.NumLinks())
	for i := 1; i <= tors; i++ {
		for m := 1; m <= middles; m++ {
			if _, err := c.net.AddLink(c.Input(i), c.Middle(m), one); err != nil {
				return nil, err
			}
			if _, err := c.net.AddLink(c.Middle(m), c.Output(i), one); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// MustClos is NewClos for known-good sizes; it panics on error. Intended
// for tests and examples.
func MustClos(n int) *Clos {
	c, err := NewClos(n)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Clos) addRange(count int, kind NodeKind, format string) NodeID {
	base := NodeID(c.net.NumNodes())
	for i := 1; i <= count; i++ {
		c.net.AddNode(kind, fmt.Sprintf(format, i))
	}
	return base
}

// Network returns the underlying network.
func (c *Clos) Network() *Network { return c.net }

// Size returns the number of middle switches (the paper's n for square
// networks).
func (c *Clos) Size() int { return c.middles }

// NumToRs returns the number of input (equivalently output) ToR
// switches.
func (c *Clos) NumToRs() int { return c.tors }

// ServersPerToR returns the number of servers attached to each ToR
// switch on each side.
func (c *Clos) ServersPerToR() int { return c.servers }

// Input returns input switch I_i, i ∈ [NumToRs()]. It panics on an
// out-of-range index, mirroring slice indexing.
func (c *Clos) Input(i int) NodeID {
	c.check(i, c.tors, "input switch")
	return c.inputBase + NodeID(i-1)
}

// Output returns output switch O_i, i ∈ [NumToRs()].
func (c *Clos) Output(i int) NodeID {
	c.check(i, c.tors, "output switch")
	return c.outputBase + NodeID(i-1)
}

// Middle returns middle switch M_m, m ∈ [Size()].
func (c *Clos) Middle(m int) NodeID {
	c.check(m, c.middles, "middle switch")
	return c.middleBase + NodeID(m-1)
}

// Source returns server s_i^j, i ∈ [NumToRs()], j ∈ [ServersPerToR()].
func (c *Clos) Source(i, j int) NodeID {
	c.check(i, c.tors, "source switch index")
	c.check(j, c.servers, "source server index")
	return c.sourceBase + NodeID((i-1)*c.servers+(j-1))
}

// Dest returns server t_i^j, i ∈ [NumToRs()], j ∈ [ServersPerToR()].
func (c *Clos) Dest(i, j int) NodeID {
	c.check(i, c.tors, "destination switch index")
	c.check(j, c.servers, "destination server index")
	return c.destBase + NodeID((i-1)*c.servers+(j-1))
}

func (c *Clos) check(i, max int, what string) {
	if i < 1 || i > max {
		panic(fmt.Sprintf("clos: %s index %d out of range [1,%d]", what, i, max))
	}
}

// numServers returns the total server count per side.
func (c *Clos) numServers() int { return c.tors * c.servers }

// InputOf returns the index i of the input switch serving source node s.
// The second result is false if s is not a source of this network.
func (c *Clos) InputOf(s NodeID) (int, bool) {
	if s < c.sourceBase || s >= c.sourceBase+NodeID(c.numServers()) {
		return 0, false
	}
	return int(s-c.sourceBase)/c.servers + 1, true
}

// SourceIndexOf returns the (i, j) indices such that s == Source(i, j).
// The third result is false if s is not a source server.
func (c *Clos) SourceIndexOf(s NodeID) (int, int, bool) {
	if s < c.sourceBase || s >= c.sourceBase+NodeID(c.numServers()) {
		return 0, 0, false
	}
	off := int(s - c.sourceBase)
	return off/c.servers + 1, off%c.servers + 1, true
}

// DestIndexOf returns the (i, j) indices such that t == Dest(i, j).
// The third result is false if t is not a destination server.
func (c *Clos) DestIndexOf(t NodeID) (int, int, bool) {
	if t < c.destBase || t >= c.destBase+NodeID(c.numServers()) {
		return 0, 0, false
	}
	off := int(t - c.destBase)
	return off/c.servers + 1, off%c.servers + 1, true
}

// OutputOf returns the index i of the output switch serving destination
// node t. The second result is false if t is not a destination.
func (c *Clos) OutputOf(t NodeID) (int, bool) {
	if t < c.destBase || t >= c.destBase+NodeID(c.numServers()) {
		return 0, false
	}
	return int(t-c.destBase)/c.servers + 1, true
}

// Path returns the unique src→dst path through middle switch m
// (m ∈ [Size()]): src -> I -> M_m -> O -> dst.
func (c *Clos) Path(src, dst NodeID, m int) (Path, error) {
	return wrapPath(c.AppendPath(make(Path, 0, 4), src, dst, m))
}

// AppendPath appends Path(src, dst, m) to p, computing the link IDs
// from the construction order without a lookup. On error p is returned
// unchanged.
func (c *Clos) AppendPath(p Path, src, dst NodeID, m int) (Path, error) {
	if src < c.sourceBase || src >= c.sourceBase+NodeID(c.numServers()) {
		return p, fmt.Errorf("clos path: node %d is not a source", src)
	}
	if dst < c.destBase || dst >= c.destBase+NodeID(c.numServers()) {
		return p, fmt.Errorf("clos path: node %d is not a destination", dst)
	}
	if m < 1 || m > c.middles {
		return p, fmt.Errorf("clos path: middle index %d out of range [1,%d]", m, c.middles)
	}
	s, t := int(src-c.sourceBase), int(dst-c.destBase)
	i, o := s/c.servers, t/c.servers
	return append(p,
		LinkID(2*s),
		c.fabricBase+LinkID(2*(i*c.middles+m-1)),
		c.fabricBase+LinkID(2*(o*c.middles+m-1)+1),
		LinkID(2*t+1)), nil
}

// FabricLinks returns the IDs of all links inside the network (between
// ToR and middle switches).
func (c *Clos) FabricLinks() []LinkID {
	var ids []LinkID
	for _, l := range c.net.Links() {
		fromKind := c.net.Node(l.From).Kind
		toKind := c.net.Node(l.To).Kind
		if fromKind == KindMiddleSwitch || toKind == KindMiddleSwitch {
			ids = append(ids, l.ID)
		}
	}
	return ids
}

// ServerLinks returns the IDs of all links outside the network (between
// servers and ToR switches).
func (c *Clos) ServerLinks() []LinkID {
	var ids []LinkID
	for _, l := range c.net.Links() {
		fromKind := c.net.Node(l.From).Kind
		toKind := c.net.Node(l.To).Kind
		if fromKind == KindSource || toKind == KindDestination {
			ids = append(ids, l.ID)
		}
	}
	return ids
}
