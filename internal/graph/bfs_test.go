package graph_test

import (
	"testing"

	"regraph/internal/dist"
	"regraph/internal/graph"
)

// The graph's shortest-path cases, checked through the two searches the
// evaluators use: the distance matrix and bi-directional BFS. Both
// follow non-empty path semantics, so a node's distance to itself is its
// shortest cycle.

// lineGraph builds a -c-> b -c-> c ... path graph.
func lineGraph(n int, color string) *graph.Graph {
	g := graph.New()
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddNode(string(rune('a'+i)), nil)
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(ids[i], ids[i+1], color)
	}
	return g
}

// checkDists asserts the matrix and BiDist distances from src over
// layer c equal want, one entry per node.
func checkDists(t *testing.T, g *graph.Graph, c graph.ColorID, src graph.NodeID, want []int32) {
	t.Helper()
	mx := dist.NewMatrix(g)
	for v, w := range want {
		if d := mx.Dist(c, src, graph.NodeID(v)); d != w {
			t.Errorf("matrix Dist(%d, %d, %d) = %d, want %d", c, src, v, d, w)
		}
		if d := dist.BiDist(g, c, src, graph.NodeID(v)); d != w {
			t.Errorf("BiDist(%d, %d, %d) = %d, want %d", c, src, v, d, w)
		}
	}
}

func TestBFSLine(t *testing.T) {
	g := lineGraph(5, "c")
	c, _ := g.ColorID("c")
	checkDists(t, g, c, 0, []int32{graph.Unreachable, 1, 2, 3, 4})
}

func TestBFSColorRestriction(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddNode("c", nil)
	g.AddEdge(a, b, "x")
	g.AddEdge(b, 2, "y") // breaks the x-only path
	x, _ := g.ColorID("x")
	checkDists(t, g, x, a, []int32{graph.Unreachable, 1, graph.Unreachable})
	checkDists(t, g, graph.AnyColor, a, []int32{graph.Unreachable, 1, 2})
}

func TestBFSNonEmptySelf(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddEdge(a, b, "x")
	g.AddEdge(b, a, "x")
	x, _ := g.ColorID("x")
	// The shortest non-empty cycle at a has length 2.
	checkDists(t, g, x, a, []int32{2, 1})
	// Without the return edge, a cannot reach itself non-emptily.
	g2 := graph.New()
	a2 := g2.AddNode("a", nil)
	b2 := g2.AddNode("b", nil)
	g2.AddEdge(a2, b2, "x")
	x2, _ := g2.ColorID("x")
	checkDists(t, g2, x2, a2, []int32{graph.Unreachable, 1})
}

func TestRemoveEdgeBFSConsistency(t *testing.T) {
	g := lineGraph(4, "c")
	c, _ := g.ColorID("c")
	if !g.RemoveEdge(1, 2, "c") {
		t.Fatal("middle edge should exist")
	}
	checkDists(t, g, c, 0, []int32{graph.Unreachable, 1, graph.Unreachable, graph.Unreachable})
}
