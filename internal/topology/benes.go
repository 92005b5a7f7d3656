package topology

import (
	"fmt"

	"closnet/internal/rational"
)

// Benes is the N-port Benes network B(N) for N a power of two, built
// recursively from 2×2 crossbar stages: an input stage and an output
// stage of N/2 switches around two interleaved B(N/2) subnetworks
// (2·log₂N − 1 stages in total), all links of unit capacity.
//
// A ToR is an input-stage (equivalently output-stage) 2×2 switch:
// NumToRs() = N/2 and ServersPerToR() = 2, with source s_i^j on port
// 2(i−1)+(j−1). Every (source, destination) pair has exactly N/2
// edge-disjoint-in-structure path choices, one per subnetwork pick at
// each of the log₂N − 1 recursion levels: choice m ∈ [N/2] selects
// upper/lower by bit (m−1)·2⁻ˡᵉᵛᵉˡ at each level, outermost level
// first. Choices are NOT interchangeable as a whole — only flipping
// the upper/lower pick at one level is an automorphism — so
// SymmetricChoices reports false and searches scan the full space.
//
// The base case B(2) is a single switch shared by the input and output
// roles; all larger sizes have distinct input and output stages.
type Benes struct {
	net    *Network
	ports  int // N
	root   *benesBlock
	source NodeID // sourceBase
	dest   NodeID // destBase
	// serverLinks is the ID of the first server link: port a's pair is
	// s -> root.in[a/2] (serverLinks+2a) and root.out[a/2] -> t (+1).
	serverLinks LinkID
}

// benesBlock is one recursive subnetwork: either a single 2×2 switch
// (size 2) or input/output stages around an upper and a lower half.
// in[x/2] (out[x/2]) is the entry (exit) switch of block port x.
// down[2j+h] is the link from in[j] into half h (0 upper, 1 lower) and
// up[2j+h] the link from half h to out[j], recorded as they are built.
type benesBlock struct {
	size         int
	in, out      []NodeID
	upper, lower *benesBlock
	down, up     []LinkID
}

// NewBenes builds the N-port Benes network. N must be a power of two
// and at least 2.
func NewBenes(n int) (*Benes, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("benes: N=%d, want a power of two >= 2", n)
	}
	b := &Benes{net: New(fmt.Sprintf("B_%d", n)), ports: n}
	root, err := b.build(n, "", 0)
	if err != nil {
		return nil, err
	}
	b.root = root
	one := rational.One()

	tors := n / 2
	b.serverLinks = LinkID(b.net.NumLinks())
	b.source = NodeID(b.net.NumNodes())
	for i := 1; i <= tors; i++ {
		for j := 1; j <= 2; j++ {
			b.net.AddNode(KindSource, fmt.Sprintf("s%d.%d", i, j))
		}
	}
	b.dest = NodeID(b.net.NumNodes())
	for i := 1; i <= tors; i++ {
		for j := 1; j <= 2; j++ {
			b.net.AddNode(KindDestination, fmt.Sprintf("t%d.%d", i, j))
		}
	}
	for i := 1; i <= tors; i++ {
		for j := 1; j <= 2; j++ {
			if _, err := b.net.AddLink(b.Source(i, j), root.in[i-1], one); err != nil {
				return nil, err
			}
			if _, err := b.net.AddLink(root.out[i-1], b.Dest(i, j), one); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// build creates the switches and internal links of a size-`size` block.
// label encodes the recursion path ("u"/"l" per level) for unique node
// names; depth 0 is the outermost block, whose stages take the
// input/output switch kinds.
func (b *Benes) build(size int, label string, depth int) (*benesBlock, error) {
	if size == 2 {
		kind := KindMiddleSwitch
		if depth == 0 {
			kind = KindInputSwitch
		}
		sw := b.net.AddNode(kind, "X"+label)
		return &benesBlock{size: 2, in: []NodeID{sw}, out: []NodeID{sw}}, nil
	}
	inKind, outKind := KindOther, KindOther
	if depth == 0 {
		inKind, outKind = KindInputSwitch, KindOutputSwitch
	}
	blk := &benesBlock{size: size}
	for j := 0; j < size/2; j++ {
		blk.in = append(blk.in, b.net.AddNode(inKind, fmt.Sprintf("i%s.%d", label, j+1)))
	}
	for j := 0; j < size/2; j++ {
		blk.out = append(blk.out, b.net.AddNode(outKind, fmt.Sprintf("o%s.%d", label, j+1)))
	}
	upper, err := b.build(size/2, label+"u", depth+1)
	if err != nil {
		return nil, err
	}
	lower, err := b.build(size/2, label+"l", depth+1)
	if err != nil {
		return nil, err
	}
	blk.upper, blk.lower = upper, lower
	blk.down, blk.up = make([]LinkID, 0, size), make([]LinkID, 0, size)
	one := rational.One()
	// Input switch j feeds subnetwork port j of both halves; output
	// switch j drains subnetwork port j of both halves.
	for j := 0; j < size/2; j++ {
		for _, sub := range []*benesBlock{upper, lower} {
			down, err := b.net.AddLink(blk.in[j], sub.in[j/2], one)
			if err != nil {
				return nil, err
			}
			up, err := b.net.AddLink(sub.out[j/2], blk.out[j], one)
			if err != nil {
				return nil, err
			}
			blk.down, blk.up = append(blk.down, down), append(blk.up, up)
		}
	}
	return blk, nil
}

// appendPath appends the internal links of the walk from block port a
// to block port z, with bit i of bits picking upper (0) or lower (1) at
// recursion level i.
func (blk *benesBlock) appendPath(p Path, a, z, bits int) Path {
	if blk.size == 2 {
		return p
	}
	h, sub := bits&1, blk.upper
	if h == 1 {
		sub = blk.lower
	}
	p = append(p, blk.down[2*(a/2)+h])
	p = sub.appendPath(p, a/2, z/2, bits>>1)
	return append(p, blk.up[2*(z/2)+h])
}

// Network returns the underlying network.
func (b *Benes) Network() *Network { return b.net }

// Size returns the number of path choices per server pair, N/2.
func (b *Benes) Size() int { return b.ports / 2 }

// NumToRs returns the number of input-stage switches, N/2.
func (b *Benes) NumToRs() int { return b.ports / 2 }

// ServersPerToR returns 2: each 2×2 stage switch homes two ports.
func (b *Benes) ServersPerToR() int { return 2 }

// SymmetricChoices reports false: permuting subnetwork picks across
// recursion levels is not an automorphism.
func (b *Benes) SymmetricChoices() bool { return false }

// Source returns server s_i^j on input switch i.
func (b *Benes) Source(i, j int) NodeID {
	b.check(i, b.NumToRs(), "source switch index")
	b.check(j, 2, "source server index")
	return b.source + NodeID((i-1)*2+(j-1))
}

// Dest returns server t_i^j on output switch i.
func (b *Benes) Dest(i, j int) NodeID {
	b.check(i, b.NumToRs(), "destination switch index")
	b.check(j, 2, "destination server index")
	return b.dest + NodeID((i-1)*2+(j-1))
}

func (b *Benes) check(i, max int, what string) {
	if i < 1 || i > max {
		panic(fmt.Sprintf("benes: %s index %d out of range [1,%d]", what, i, max))
	}
}

// InputOf returns the input-switch index homing source s.
func (b *Benes) InputOf(s NodeID) (int, bool) {
	if s < b.source || s >= b.source+NodeID(b.ports) {
		return 0, false
	}
	return int(s-b.source)/2 + 1, true
}

// OutputOf returns the output-switch index homing destination t.
func (b *Benes) OutputOf(t NodeID) (int, bool) {
	if t < b.dest || t >= b.dest+NodeID(b.ports) {
		return 0, false
	}
	return int(t-b.dest)/2 + 1, true
}

// SourceIndexOf returns the (i, j) indices such that s == Source(i, j).
func (b *Benes) SourceIndexOf(s NodeID) (int, int, bool) {
	if s < b.source || s >= b.source+NodeID(b.ports) {
		return 0, 0, false
	}
	off := int(s - b.source)
	return off/2 + 1, off%2 + 1, true
}

// DestIndexOf returns the (i, j) indices such that t == Dest(i, j).
func (b *Benes) DestIndexOf(t NodeID) (int, int, bool) {
	if t < b.dest || t >= b.dest+NodeID(b.ports) {
		return 0, 0, false
	}
	off := int(t - b.dest)
	return off/2 + 1, off%2 + 1, true
}

// Path returns the src→dst path selected by choice m ∈ [N/2].
func (b *Benes) Path(src, dst NodeID, m int) (Path, error) {
	hops := 2
	for n := b.ports; n > 2; n /= 2 {
		hops += 2
	}
	return wrapPath(b.AppendPath(make(Path, 0, hops), src, dst, m))
}

// AppendPath appends Path(src, dst, m) to p from the link IDs recorded
// at construction, without a lookup. On error p is returned unchanged.
func (b *Benes) AppendPath(p Path, src, dst NodeID, m int) (Path, error) {
	if src < b.source || src >= b.source+NodeID(b.ports) {
		return p, fmt.Errorf("benes path: node %d is not a source", src)
	}
	if dst < b.dest || dst >= b.dest+NodeID(b.ports) {
		return p, fmt.Errorf("benes path: node %d is not a destination", dst)
	}
	if m < 1 || m > b.Size() {
		return p, fmt.Errorf("benes path: choice %d out of range [1,%d]", m, b.Size())
	}
	a, z := int(src-b.source), int(dst-b.dest)
	p = append(p, b.serverLinks+LinkID(2*a))
	p = b.root.appendPath(p, a, z, m-1)
	return append(p, b.serverLinks+LinkID(2*z+1)), nil
}
