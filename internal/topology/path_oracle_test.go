package topology

import (
	"fmt"
	"slices"
	"testing"
)

// The oracles below walk each family's path hop by hop through
// Network.LinkBetween: an independent reference for the link IDs the
// families compute from their construction order.

// oracleHops resolves a node walk to its links.
func oracleHops(net *Network, hops [][2]NodeID) (Path, error) {
	p := make(Path, 0, len(hops))
	for _, h := range hops {
		id, ok := net.LinkBetween(h[0], h[1])
		if !ok {
			return nil, fmt.Errorf("missing link %d->%d", h[0], h[1])
		}
		p = append(p, id)
	}
	return p, nil
}

func closOracle(c *Clos, src, dst NodeID, m int) (Path, error) {
	i, _ := c.InputOf(src)
	o, _ := c.OutputOf(dst)
	return oracleHops(c.net, [][2]NodeID{
		{src, c.Input(i)},
		{c.Input(i), c.Middle(m)},
		{c.Middle(m), c.Output(o)},
		{c.Output(o), dst},
	})
}

func fatTreeOracle(ft *FatTree, src, dst NodeID, m int) (Path, error) {
	i, _ := ft.InputOf(src)
	o, _ := ft.OutputOf(dst)
	g := (m-1)/ft.half + 1
	pi, po := (i-1)/ft.half+1, (o-1)/ft.half+1
	if pi == po {
		return oracleHops(ft.net, [][2]NodeID{
			{src, ft.inEdge(i)},
			{ft.inEdge(i), ft.agg(pi, g)},
			{ft.agg(pi, g), ft.outEdge(o)},
			{ft.outEdge(o), dst},
		})
	}
	return oracleHops(ft.net, [][2]NodeID{
		{src, ft.inEdge(i)},
		{ft.inEdge(i), ft.agg(pi, g)},
		{ft.agg(pi, g), ft.core(m)},
		{ft.core(m), ft.agg(po, g)},
		{ft.agg(po, g), ft.outEdge(o)},
		{ft.outEdge(o), dst},
	})
}

func benesOracle(b *Benes, src, dst NodeID, m int) (Path, error) {
	a, z := int(src-b.source), int(dst-b.dest)
	var walk func(blk *benesBlock, a, z, bits int, hops [][2]NodeID) [][2]NodeID
	walk = func(blk *benesBlock, a, z, bits int, hops [][2]NodeID) [][2]NodeID {
		if blk.size == 2 {
			return hops
		}
		sub := blk.upper
		if bits&1 == 1 {
			sub = blk.lower
		}
		hops = append(hops, [2]NodeID{blk.in[a/2], sub.in[(a/2)/2]})
		hops = walk(sub, a/2, z/2, bits>>1, hops)
		return append(hops, [2]NodeID{sub.out[(z/2)/2], blk.out[z/2]})
	}
	hops := [][2]NodeID{{src, b.root.in[a/2]}}
	hops = walk(b.root, a, z, m-1, hops)
	return oracleHops(b.net, append(hops, [2]NodeID{b.root.out[z/2], dst}))
}

func macroOracle(ms *MacroSwitch, src, dst NodeID) (Path, error) {
	i, _ := ms.InputOf(src)
	o, _ := ms.OutputOf(dst)
	return oracleHops(ms.net, [][2]NodeID{
		{src, ms.Input(i)},
		{ms.Input(i), ms.Output(o)},
		{ms.Output(o), dst},
	})
}

// checkFabricPaths compares Path and AppendPath with the oracle on every
// (source, destination, choice) of f, and validates each path.
func checkFabricPaths(t *testing.T, f Fabric, oracle func(src, dst NodeID, m int) (Path, error)) {
	t.Helper()
	net := f.Network()
	prefix := Path{-7, -8}
	buf := slices.Clone(prefix)
	for i := 1; i <= f.NumToRs(); i++ {
		for j := 1; j <= f.ServersPerToR(); j++ {
			src := f.Source(i, j)
			for di := 1; di <= f.NumToRs(); di++ {
				for dj := 1; dj <= f.ServersPerToR(); dj++ {
					dst := f.Dest(di, dj)
					for m := 1; m <= f.Size(); m++ {
						want, err := oracle(src, dst, m)
						if err != nil {
							t.Fatalf("%s oracle (%d, %d, %d): %v", net.Name(), src, dst, m, err)
						}
						got, err := f.Path(src, dst, m)
						if err != nil || !slices.Equal(got, want) {
							t.Fatalf("%s Path(%d, %d, %d) = %v, %v; oracle %v", net.Name(), src, dst, m, got, err, want)
						}
						if err := got.Validate(net, src, dst); err != nil {
							t.Fatalf("%s Path(%d, %d, %d): %v", net.Name(), src, dst, m, err)
						}
						buf, err = f.AppendPath(buf[:len(prefix)], src, dst, m)
						if err != nil || !slices.Equal(buf[:len(prefix)], prefix) || !slices.Equal(buf[len(prefix):], want) {
							t.Fatalf("%s AppendPath(%v, %d, %d, %d) = %v, %v; oracle %v", net.Name(), prefix, src, dst, m, buf, err, want)
						}
					}
				}
			}
		}
	}
	// Errors leave the buffer as it was.
	src, dst := f.Source(1, 1), f.Dest(1, 1)
	for _, bad := range [][3]int{{int(dst), int(dst), 1}, {int(src), int(src), 1}, {int(src), int(dst), 0}, {int(src), int(dst), f.Size() + 1}} {
		p, err := f.AppendPath(prefix, NodeID(bad[0]), NodeID(bad[1]), bad[2])
		if err == nil || !slices.Equal(p, prefix) {
			t.Errorf("%s AppendPath(%v) = %v, %v; want an error and the buffer unchanged", net.Name(), bad, p, err)
		}
		if p, err := f.Path(NodeID(bad[0]), NodeID(bad[1]), bad[2]); err == nil || p != nil {
			t.Errorf("%s Path(%v) = %v, %v; want nil and an error", net.Name(), bad, p, err)
		}
	}
}

func TestClosPathsMatchOracle(t *testing.T) {
	for _, s := range [][3]int{{2, 1, 1}, {6, 3, 3}, {10, 5, 5}, {3, 7, 2}, {4, 4, 2}} {
		c, err := NewGeneralClos(s[0], s[1], s[2])
		if err != nil {
			t.Fatal(err)
		}
		checkFabricPaths(t, c, func(src, dst NodeID, m int) (Path, error) { return closOracle(c, src, dst, m) })
	}
}

func TestFatTreePathsMatchOracle(t *testing.T) {
	for _, k := range []int{2, 4, 6} {
		ft, err := NewFatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		checkFabricPaths(t, ft, func(src, dst NodeID, m int) (Path, error) { return fatTreeOracle(ft, src, dst, m) })
	}
}

func TestBenesPathsMatchOracle(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		b, err := NewBenes(n)
		if err != nil {
			t.Fatal(err)
		}
		checkFabricPaths(t, b, func(src, dst NodeID, m int) (Path, error) { return benesOracle(b, src, dst, m) })
	}
}

func TestMacroSwitchPathsMatchOracle(t *testing.T) {
	for _, s := range [][2]int{{2, 1}, {6, 3}, {3, 7}} {
		ms, err := NewGeneralMacroSwitch(s[0], s[1])
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= s[0]; i++ {
			for j := 1; j <= s[1]; j++ {
				for di := 1; di <= s[0]; di++ {
					for dj := 1; dj <= s[1]; dj++ {
						src, dst := ms.Source(i, j), ms.Dest(di, dj)
						want, err := macroOracle(ms, src, dst)
						if err != nil {
							t.Fatal(err)
						}
						got, err := ms.Path(src, dst)
						if err != nil || !slices.Equal(got, want) {
							t.Fatalf("%s Path(%d, %d) = %v, %v; oracle %v", ms.net.Name(), src, dst, got, err, want)
						}
						if err := got.Validate(ms.net, src, dst); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
		if _, err := ms.Path(ms.Dest(1, 1), ms.Dest(1, 1)); err == nil {
			t.Error("Path from a destination succeeded")
		}
		if _, err := ms.Path(ms.Source(1, 1), ms.Source(1, 1)); err == nil {
			t.Error("Path to a source succeeded")
		}
	}
}
