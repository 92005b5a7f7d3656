package coloring

import (
	"testing"

	"closnet/internal/matching"
)

// FuzzEdgeColor decodes arbitrary bytes as bipartite multigraphs and
// checks that König's bound always suffices and the coloring is proper.
func FuzzEdgeColor(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0, 1, 1, 0, 1, 1})
	f.Add([]byte{3, 3, 3, 3, 3, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		g := matching.Graph{NumLeft: 6, NumRight: 6}
		for i := 0; i+1 < len(data) && len(g.Edges) < 40; i += 2 {
			g.Edges = append(g.Edges, matching.Edge{
				Left:  int(data[i] % 6),
				Right: int(data[i+1] % 6),
			})
		}
		d := g.MaxDegree()
		if d == 0 {
			return
		}
		color, err := EdgeColor(g, d)
		if err != nil {
			t.Fatalf("EdgeColor with Δ=%d colors: %v", d, err)
		}
		if err := verify(g, color, d); err != nil {
			t.Fatalf("improper coloring: %v", err)
		}
	})
}
