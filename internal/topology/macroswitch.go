package topology

import (
	"fmt"

	"closnet/internal/rational"
)

// MacroSwitch is the macro-switch abstraction of §2.1: the Clos middle
// stage is replaced by a complete bipartite graph of infinite-capacity
// links between input and output ToR switches, so the only capacity
// constraints are the unit server links. There is a single path between
// every (source, destination) pair.
//
// The paper's square abstraction MS_n of C_n is the case
// (tors, servers) = (2n, n), built by NewMacroSwitch; NewGeneralMacroSwitch
// supports arbitrary shapes, matching NewGeneralClos (the abstraction
// does not depend on the middle-switch count at all — which is exactly
// why it over-promises on oversubscribed fabrics).
type MacroSwitch struct {
	net     *Network
	n       int // square size parameter; ServersPerToR() in general
	tors    int
	servers int

	inputBase  NodeID
	outputBase NodeID
	sourceBase NodeID
	destBase   NodeID

	// coreLinks is the ID of I_1 -> O_1; I_i -> O_o is coreLinks +
	// (i-1)·tors + (o-1). Server pair q = (i-1)·servers + (j-1) is
	// s_i^j -> I_i (2q) and O_i -> t_i^j (2q+1).
	coreLinks LinkID
}

// NewMacroSwitch builds the square abstraction MS_n. It returns an error
// if n < 1.
func NewMacroSwitch(n int) (*MacroSwitch, error) {
	if n < 1 {
		return nil, fmt.Errorf("macroswitch: size n=%d, want n >= 1", n)
	}
	return NewGeneralMacroSwitch(2*n, n)
}

// NewGeneralMacroSwitch builds the macro-switch abstraction for a Clos
// fabric with the given ToR and per-ToR server counts.
func NewGeneralMacroSwitch(tors, servers int) (*MacroSwitch, error) {
	if tors < 1 || servers < 1 {
		return nil, fmt.Errorf("macroswitch: invalid shape (tors=%d, servers=%d)", tors, servers)
	}
	name := fmt.Sprintf("MS(%dx%d)", tors, servers)
	if tors == 2*servers {
		name = fmt.Sprintf("MS_%d", servers)
	}
	ms := &MacroSwitch{net: New(name), n: servers, tors: tors, servers: servers}
	one := rational.One()

	ms.inputBase = NodeID(ms.net.NumNodes())
	for i := 1; i <= tors; i++ {
		ms.net.AddNode(KindInputSwitch, fmt.Sprintf("I%d", i))
	}
	ms.outputBase = NodeID(ms.net.NumNodes())
	for i := 1; i <= tors; i++ {
		ms.net.AddNode(KindOutputSwitch, fmt.Sprintf("O%d", i))
	}
	ms.sourceBase = NodeID(ms.net.NumNodes())
	for i := 1; i <= tors; i++ {
		for j := 1; j <= servers; j++ {
			ms.net.AddNode(KindSource, fmt.Sprintf("s%d.%d", i, j))
		}
	}
	ms.destBase = NodeID(ms.net.NumNodes())
	for i := 1; i <= tors; i++ {
		for j := 1; j <= servers; j++ {
			ms.net.AddNode(KindDestination, fmt.Sprintf("t%d.%d", i, j))
		}
	}

	for i := 1; i <= tors; i++ {
		for j := 1; j <= servers; j++ {
			if _, err := ms.net.AddLink(ms.Source(i, j), ms.Input(i), one); err != nil {
				return nil, err
			}
			if _, err := ms.net.AddLink(ms.Output(i), ms.Dest(i, j), one); err != nil {
				return nil, err
			}
		}
	}
	// Infinite-capacity core: complete bipartite input -> output.
	ms.coreLinks = LinkID(ms.net.NumLinks())
	for i := 1; i <= tors; i++ {
		for o := 1; o <= tors; o++ {
			if _, err := ms.net.AddUnboundedLink(ms.Input(i), ms.Output(o)); err != nil {
				return nil, err
			}
		}
	}
	return ms, nil
}

// MustMacroSwitch is NewMacroSwitch for known-good sizes; it panics on
// error. Intended for tests and examples.
func MustMacroSwitch(n int) *MacroSwitch {
	ms, err := NewMacroSwitch(n)
	if err != nil {
		panic(err)
	}
	return ms
}

// Network returns the underlying network.
func (ms *MacroSwitch) Network() *Network { return ms.net }

// Size returns the square size parameter n (equal to ServersPerToR; for
// the square MS_n this is the n shared with the corresponding C_n).
func (ms *MacroSwitch) Size() int { return ms.n }

// NumToRs returns the number of input (equivalently output) switches.
func (ms *MacroSwitch) NumToRs() int { return ms.tors }

// ServersPerToR returns the number of servers per switch on each side.
func (ms *MacroSwitch) ServersPerToR() int { return ms.servers }

// Input returns input switch I_i, i ∈ [NumToRs()]. It panics on an
// out-of-range index, mirroring slice indexing.
func (ms *MacroSwitch) Input(i int) NodeID {
	ms.check(i, ms.tors, "input switch")
	return ms.inputBase + NodeID(i-1)
}

// Output returns output switch O_i, i ∈ [NumToRs()].
func (ms *MacroSwitch) Output(i int) NodeID {
	ms.check(i, ms.tors, "output switch")
	return ms.outputBase + NodeID(i-1)
}

// Source returns server s_i^j, i ∈ [NumToRs()], j ∈ [ServersPerToR()].
func (ms *MacroSwitch) Source(i, j int) NodeID {
	ms.check(i, ms.tors, "source switch index")
	ms.check(j, ms.servers, "source server index")
	return ms.sourceBase + NodeID((i-1)*ms.servers+(j-1))
}

// Dest returns server t_i^j, i ∈ [NumToRs()], j ∈ [ServersPerToR()].
func (ms *MacroSwitch) Dest(i, j int) NodeID {
	ms.check(i, ms.tors, "destination switch index")
	ms.check(j, ms.servers, "destination server index")
	return ms.destBase + NodeID((i-1)*ms.servers+(j-1))
}

func (ms *MacroSwitch) check(i, max int, what string) {
	if i < 1 || i > max {
		panic(fmt.Sprintf("macroswitch: %s index %d out of range [1,%d]", what, i, max))
	}
}

func (ms *MacroSwitch) numServers() int { return ms.tors * ms.servers }

// InputOf returns the index i of the input switch serving source node s.
func (ms *MacroSwitch) InputOf(s NodeID) (int, bool) {
	if s < ms.sourceBase || s >= ms.sourceBase+NodeID(ms.numServers()) {
		return 0, false
	}
	return int(s-ms.sourceBase)/ms.servers + 1, true
}

// OutputOf returns the index i of the output switch serving destination
// node t.
func (ms *MacroSwitch) OutputOf(t NodeID) (int, bool) {
	if t < ms.destBase || t >= ms.destBase+NodeID(ms.numServers()) {
		return 0, false
	}
	return int(t-ms.destBase)/ms.servers + 1, true
}

// Path returns the unique src→dst path: src -> I -> O -> dst.
func (ms *MacroSwitch) Path(src, dst NodeID) (Path, error) {
	if src < ms.sourceBase || src >= ms.sourceBase+NodeID(ms.numServers()) {
		return nil, fmt.Errorf("macroswitch path: node %d is not a source", src)
	}
	if dst < ms.destBase || dst >= ms.destBase+NodeID(ms.numServers()) {
		return nil, fmt.Errorf("macroswitch path: node %d is not a destination", dst)
	}
	s, t := int(src-ms.sourceBase), int(dst-ms.destBase)
	core := ms.coreLinks + LinkID(s/ms.servers*ms.tors+t/ms.servers)
	return Path{LinkID(2 * s), core, LinkID(2*t + 1)}, nil
}
