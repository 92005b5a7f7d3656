package topology

import (
	"fmt"
	"strings"
)

// Fabric is the shape every multi-path data-center topology in this
// library presents to the allocation and search layers: ToR-homed
// source/destination servers on a general capacitated Network, with a
// fixed number of candidate paths ("choices") between every
// (source, destination) pair. *Clos, *FatTree and *Benes implement it.
//
// The contract mirrors the Clos conventions: ToRs, servers and choices
// are 1-based; Path(src, dst, m) is defined for every m ∈ [Size()] and
// every source/destination pair (families whose pairs have fewer
// distinct paths map surplus choice indices onto duplicates, so
// enumeration stays a plain base-Size() counter). Every family computes
// its path links from link IDs it knows at construction — arithmetic
// on its construction order, or IDs recorded as links are added — so a
// path costs no lookup, and AppendPath writes it into a caller's
// buffer without allocating.
type Fabric interface {
	// Network returns the underlying capacitated network.
	Network() *Network
	// Size returns the number of path choices per (source, destination)
	// pair — the routing alphabet of search and codec assignments.
	Size() int
	// NumToRs returns the number of input (equivalently output) ToRs.
	NumToRs() int
	// ServersPerToR returns the servers homed on each ToR per side.
	ServersPerToR() int
	// Source returns server s_i^j, i ∈ [NumToRs()], j ∈ [ServersPerToR()].
	Source(i, j int) NodeID
	// Dest returns server t_i^j, i ∈ [NumToRs()], j ∈ [ServersPerToR()].
	Dest(i, j int) NodeID
	// InputOf returns the ToR index homing source s.
	InputOf(s NodeID) (int, bool)
	// OutputOf returns the ToR index homing destination t.
	OutputOf(t NodeID) (int, bool)
	// SourceIndexOf returns (i, j) with s == Source(i, j).
	SourceIndexOf(s NodeID) (int, int, bool)
	// DestIndexOf returns (i, j) with t == Dest(i, j).
	DestIndexOf(t NodeID) (int, int, bool)
	// Path returns the src→dst path selected by choice m ∈ [Size()].
	Path(src, dst NodeID, m int) (Path, error)
	// AppendPath appends Path(src, dst, m) to p and returns the
	// extended slice; on error it returns p unchanged.
	AppendPath(p Path, src, dst NodeID, m int) (Path, error)
	// SymmetricChoices reports whether relabeling the Size() choices by
	// any permutation is an automorphism of the fabric (true for Clos,
	// whose choices are interchangeable middle switches). Only then may
	// search enumerate canonical orbit representatives; otherwise it
	// must scan the full choice space.
	SymmetricChoices() bool
}

// Compile-time interface checks for every family.
var (
	_ Fabric = (*Clos)(nil)
	_ Fabric = (*FatTree)(nil)
	_ Fabric = (*Benes)(nil)
)

// SymmetricChoices reports true: the choices of a Clos network are its
// middle switches, and permuting identical middles is an automorphism.
func (c *Clos) SymmetricChoices() bool { return true }

// Topology family names, as carried by codec.Scenario's "topology"
// field (empty means Clos for backward compatibility).
const (
	FamilyClos    = "clos"
	FamilyFatTree = "fattree"
	FamilyBenes   = "benes"
)

// FamilyNames returns the known topology family names.
func FamilyNames() []string {
	return []string{FamilyClos, FamilyFatTree, FamilyBenes}
}

// BuildFamily constructs the named topology family from a scenario
// shape (tors, servers, middles = path choices) after CheckShape has
// verified the shape is consistent with the family's structure, so a
// decoded scenario can never disagree with the fabric it evaluates on.
// The empty family name means Clos.
func BuildFamily(family string, tors, servers, middles int) (Fabric, error) {
	if err := CheckShape(family, tors, servers, middles); err != nil {
		return nil, err
	}
	switch family {
	case FamilyFatTree:
		return NewFatTree(2 * servers)
	case FamilyBenes:
		return NewBenes(2 * tors)
	default:
		return NewGeneralClos(tors, servers, middles)
	}
}

// CheckShape reports whether the named family has a member of shape
// (tors, servers, middles), without building it. A Clos takes any
// shape its constructor accepts; one parameter fixes the rest of the
// other families: a k-pod fat-tree has servers = k/2, tors = 2·servers²
// and middles = servers², and an N-port Benes network has tors = N/2
// for a power of two N, servers = 2 and middles = tors. The arithmetic
// cannot overflow, so a small scenario body cannot name a huge fabric.
func CheckShape(family string, tors, servers, middles int) error {
	switch family {
	case "", FamilyClos:
		return nil
	case FamilyFatTree:
		// servers ≤ tors/2 keeps 2·servers and servers² in range.
		s := servers
		if s < 1 || s > tors/2 || tors%(2*s) != 0 || tors/(2*s) != s || middles != s*s {
			return fmt.Errorf("topology: fat-tree shape mismatch: servers=%d per ToR needs tors=2·servers² and middles=servers², scenario says tors=%d middles=%d",
				servers, tors, middles)
		}
		return nil
	case FamilyBenes:
		if tors < 1 || tors&(tors-1) != 0 || servers != 2 || middles != tors {
			return fmt.Errorf("topology: Benes shape mismatch: tors=%d needs a power of two, servers=2 and middles=tors, scenario says servers=%d middles=%d",
				tors, servers, middles)
		}
		return nil
	default:
		return fmt.Errorf("topology: unknown family %q (known: %s)",
			family, strings.Join(FamilyNames(), ", "))
	}
}

// NewOversubscribedClos builds a general Clos whose middle stage is
// thinned below full bisection by the oversubscription ratio
// sRatio:mRatio (server-facing : fabric-facing capacity per ToR):
// middles = servers × mRatio / sRatio. A 1:1 ratio reproduces
// NewGeneralClos(tors, servers, servers); 2:1 halves the middle stage.
// The ratio must divide evenly so the fabric stays integral.
func NewOversubscribedClos(tors, servers, sRatio, mRatio int) (*Clos, error) {
	if sRatio < 1 || mRatio < 1 {
		return nil, fmt.Errorf("clos: invalid oversubscription ratio %d:%d", sRatio, mRatio)
	}
	if servers*mRatio%sRatio != 0 {
		return nil, fmt.Errorf("clos: oversubscription ratio %d:%d does not divide %d servers into whole middles",
			sRatio, mRatio, servers)
	}
	middles := servers * mRatio / sRatio
	if middles < 1 {
		return nil, fmt.Errorf("clos: oversubscription ratio %d:%d leaves no middle switches for %d servers",
			sRatio, mRatio, servers)
	}
	return NewGeneralClos(tors, servers, middles)
}
