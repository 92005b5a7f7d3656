// Package topology models capacitated directed networks and provides
// builders for the two topology families studied in the paper: the Clos
// network C_n (§2.1) and its macro-switch abstraction MS_n.
//
// Indexing follows the paper's 1-based convention: input/output switches
// are indexed by i ∈ [2n], servers per switch by j ∈ [n], and middle
// switches by m ∈ [n].
package topology

import (
	"fmt"
	"math/big"
	"strings"

	"closnet/internal/rational"
)

// NodeKind classifies a node by its role in a data-center topology.
type NodeKind int

// Node kinds. General-purpose networks may use KindOther.
const (
	KindSource NodeKind = iota + 1
	KindInputSwitch
	KindMiddleSwitch
	KindOutputSwitch
	KindDestination
	KindOther
)

// String returns a short human-readable name for the kind.
func (k NodeKind) String() string {
	switch k {
	case KindSource:
		return "source"
	case KindInputSwitch:
		return "input-switch"
	case KindMiddleSwitch:
		return "middle-switch"
	case KindOutputSwitch:
		return "output-switch"
	case KindDestination:
		return "destination"
	case KindOther:
		return "other"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// NodeID identifies a node within one Network.
type NodeID int

// LinkID identifies a directed link within one Network.
type LinkID int

// Node is a vertex of a Network.
type Node struct {
	ID   NodeID
	Kind NodeKind
	Name string
}

// Link is a directed capacitated edge of a Network. If Unbounded is true
// the capacity is infinite (used by the macro-switch core) and Capacity is
// ignored by allocators.
type Link struct {
	ID        LinkID
	From, To  NodeID
	Capacity  *big.Rat
	Unbounded bool
}

// Network is a directed graph with named nodes and capacitated links.
// Networks are built once and then treated as immutable by the rest of the
// library; the type is not safe for concurrent mutation.
type Network struct {
	name       string
	nodes      []Node
	links      []Link
	out        [][]LinkID
	linkByEnds map[[2]NodeID]LinkID
}

// New returns an empty network with the given display name.
func New(name string) *Network {
	return &Network{
		name:       name,
		linkByEnds: make(map[[2]NodeID]LinkID),
	}
}

// Name returns the display name of the network.
func (n *Network) Name() string { return n.name }

// AddNode appends a node and returns its ID.
func (n *Network) AddNode(kind NodeKind, name string) NodeID {
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, Node{ID: id, Kind: kind, Name: name})
	n.out = append(n.out, nil)
	return id
}

// AddLink appends a directed link with finite capacity cap and returns its
// ID. The capacity is copied. AddLink returns an error if an endpoint is
// out of range or a parallel link already exists (the topologies in this
// library are simple graphs; flows provide multiplicity instead).
func (n *Network) AddLink(from, to NodeID, capacity *big.Rat) (LinkID, error) {
	return n.addLink(from, to, rational.Copy(capacity), false)
}

// AddUnboundedLink appends a directed link with infinite capacity.
func (n *Network) AddUnboundedLink(from, to NodeID) (LinkID, error) {
	return n.addLink(from, to, nil, true)
}

func (n *Network) addLink(from, to NodeID, capacity *big.Rat, unbounded bool) (LinkID, error) {
	if !n.validNode(from) || !n.validNode(to) {
		return 0, fmt.Errorf("link %d->%d: endpoint out of range", from, to)
	}
	key := [2]NodeID{from, to}
	if _, ok := n.linkByEnds[key]; ok {
		return 0, fmt.Errorf("link %s->%s already exists", n.nodes[from].Name, n.nodes[to].Name)
	}
	id := LinkID(len(n.links))
	n.links = append(n.links, Link{ID: id, From: from, To: to, Capacity: capacity, Unbounded: unbounded})
	n.out[from] = append(n.out[from], id)
	n.linkByEnds[key] = id
	return id, nil
}

func (n *Network) validNode(id NodeID) bool {
	return id >= 0 && int(id) < len(n.nodes)
}

// NumNodes returns the number of nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumLinks returns the number of links.
func (n *Network) NumLinks() int { return len(n.links) }

// Node returns the node with the given ID. It panics if id is out of
// range, mirroring slice indexing: IDs only come from this network.
func (n *Network) Node(id NodeID) Node { return n.nodes[id] }

// Link returns the link with the given ID. It panics if id is out of
// range, mirroring slice indexing: IDs only come from this network.
func (n *Network) Link(id LinkID) Link { return n.links[id] }

// LinkBetween returns the link from u to v, if one exists.
func (n *Network) LinkBetween(u, v NodeID) (LinkID, bool) {
	id, ok := n.linkByEnds[[2]NodeID{u, v}]
	return id, ok
}

// OutLinks returns the IDs of links leaving u. The returned slice is a
// copy and may be retained by the caller.
func (n *Network) OutLinks(u NodeID) []LinkID {
	out := make([]LinkID, len(n.out[u]))
	copy(out, n.out[u])
	return out
}

// Links returns a copy of all links.
func (n *Network) Links() []Link {
	ls := make([]Link, len(n.links))
	copy(ls, n.links)
	return ls
}

// NodesOfKind returns the IDs of all nodes with the given kind, in ID
// order.
func (n *Network) NodesOfKind(kind NodeKind) []NodeID {
	var ids []NodeID
	for _, nd := range n.nodes {
		if nd.Kind == kind {
			ids = append(ids, nd.ID)
		}
	}
	return ids
}

// LinkName formats a link as "From->To" using node names.
func (n *Network) LinkName(id LinkID) string {
	l := n.links[id]
	return n.nodes[l.From].Name + "->" + n.nodes[l.To].Name
}

// String summarizes the network.
func (n *Network) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d nodes, %d links", n.name, len(n.nodes), len(n.links))
	return b.String()
}

// Path is a sequence of link IDs forming a contiguous directed walk.
type Path []LinkID

// wrapPath adapts an AppendPath result to Path's contract, which
// returns nil on error.
func wrapPath(p Path, err error) (Path, error) {
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Validate reports an error unless p is a contiguous path from src to dst
// in network n.
func (p Path) Validate(n *Network, src, dst NodeID) error {
	if len(p) == 0 {
		if src == dst {
			return nil
		}
		return fmt.Errorf("empty path from %d to %d", src, dst)
	}
	at := src
	for i, id := range p {
		if int(id) < 0 || int(id) >= n.NumLinks() {
			return fmt.Errorf("path hop %d: link %d out of range", i, id)
		}
		l := n.Link(id)
		if l.From != at {
			return fmt.Errorf("path hop %d: link %s does not start at %s",
				i, n.LinkName(id), n.Node(at).Name)
		}
		at = l.To
	}
	if at != dst {
		return fmt.Errorf("path ends at %s, want %s", n.Node(at).Name, n.Node(dst).Name)
	}
	return nil
}

// Contains reports whether p traverses link id.
func (p Path) Contains(id LinkID) bool {
	for _, l := range p {
		if l == id {
			return true
		}
	}
	return false
}
