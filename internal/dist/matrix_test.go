package dist

import (
	"bytes"
	"fmt"
	"testing"

	"regraph/internal/graph"
	"regraph/internal/rex"
)

// saturatingGraph has distances far past the one-byte cells: a 400-node
// directed cycle in color "a" (every diagonal cell is 400) and a
// 300-node path in color "b" whose last node has a "b" edge into the
// cycle, so the b layer and the wildcard layer also hold paths longer
// than 254 hops.
func saturatingGraph() *graph.Graph {
	const cycle, path = 400, 300
	g := graph.New()
	for i := 0; i < cycle+path; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), nil)
	}
	for i := 0; i < cycle; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%cycle), "a")
	}
	for i := cycle; i < cycle+path-1; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), "b")
	}
	g.AddEdge(graph.NodeID(cycle+path-1), 0, "b")
	return g
}

// plainDists is the plain-graph oracle: shortest non-empty distances
// from src over one layer by textbook BFS on g.Out, with the diagonal
// recovered from src's in-edges.
func plainDists(g *graph.Graph, c graph.ColorID, src graph.NodeID) []int32 {
	d := make([]int32, g.NumNodes())
	for i := range d {
		d[i] = graph.Unreachable
	}
	d[src] = 0
	for queue := []graph.NodeID{src}; len(queue) > 0; queue = queue[1:] {
		for _, e := range g.Out(queue[0]) {
			if (c == graph.AnyColor || e.Color == c) && d[e.To] == graph.Unreachable {
				d[e.To] = d[queue[0]] + 1
				queue = append(queue, e.To)
			}
		}
	}
	self := graph.Unreachable
	for _, e := range g.In(src) {
		if (c == graph.AnyColor || e.Color == c) && d[e.To] != graph.Unreachable && (self == graph.Unreachable || d[e.To]+1 < self) {
			self = d[e.To] + 1
		}
	}
	d[src] = self
	return d
}

// TestMatrixSaturatedDistances: cells saturate at 255, yet Dist stays
// exact — equal to the plain BFS oracle, the cache and the 2-hop labels
// on every pair of every layer, diagonal included. Under the race
// detector the cache, whose every lookup is a search here, is checked
// on every eighth source row only.
func TestMatrixSaturatedDistances(t *testing.T) {
	g := saturatingGraph()
	mx := NewMatrix(g)
	th := NewTwoHop(g)
	ca := NewCache(g, 1<<10)
	cacheRow := func(v1 int) bool { return !raceEnabled || v1%8 == 0 }
	s := NewScratch()
	for _, c := range allLayers(g) {
		saturated := 0
		for v1 := 0; v1 < g.NumNodes(); v1++ {
			want := plainDists(g, c, graph.NodeID(v1))
			for v2, w := range want {
				a, b := graph.NodeID(v1), graph.NodeID(v2)
				if mx.cell(c, a, b) == satCell {
					saturated++
				}
				if got := mx.Dist(c, a, b); got != w {
					t.Fatalf("layer %d: Dist(%d, %d) = %d, want %d", c, v1, v2, got, w)
				}
				if got := th.Dist(c, a, b); got != w {
					t.Fatalf("layer %d: TwoHop(%d, %d) = %d, want %d", c, v1, v2, got, w)
				}
				if !cacheRow(v1) {
					continue
				}
				if got := ca.DistScratch(c, a, b, s); got != w {
					t.Fatalf("layer %d: Cache(%d, %d) = %d, want %d", c, v1, v2, got, w)
				}
			}
		}
		if saturated == 0 {
			t.Fatalf("layer %d: no cell saturated, so the fallback is not exercised", c)
		}
	}
	a, _ := g.ColorID("a")
	for v := graph.NodeID(0); v < 400; v++ {
		if got := mx.Dist(a, v, v); got != 400 {
			t.Fatalf("cycle diagonal Dist(a, %d, %d) = %d, want 400", v, v, got)
		}
	}

	// The parallel build fills exactly the serial build's cells.
	ser := newMatrixSerial(g)
	for l := range mx.cells {
		if !bytes.Equal(mx.cells[l], ser.cells[l]) {
			t.Fatalf("layer %d: parallel and serial builds differ", l)
		}
	}

	// Matrix.Sat decides bounds on either side of the saturation point
	// exactly like CAtom.Sat on the true distance.
	for _, c := range allLayers(g) {
		for _, src := range []graph.NodeID{0, 1, 399, 400, 699} {
			want := plainDists(g, c, src)
			for _, max := range []int{1, 254, 255, 298, 299, 300, 400, 699, rex.Unbounded} {
				at := CAtom{Color: c, Max: max}
				for v2, w := range want {
					if got := mx.Sat(at, src, graph.NodeID(v2), nil); got != at.Sat(w) {
						t.Fatalf("layer %d bound %d: Sat(%d, %d) = %v, distance %d", c, max, src, v2, got, w)
					}
				}
			}
		}
	}

	// Lookups allocate nothing: a plain cell load, and a saturated cell
	// searched with a warm arena.
	if d := mx.DistScratch(a, 0, 0, s); d != 400 {
		t.Fatalf("DistScratch(a, 0, 0) = %d, want 400", d)
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() { mx.Dist(a, 0, 1) }); n != 0 {
		t.Errorf("non-saturated Dist allocates %.1f times per lookup", n)
	}
	if n := testing.AllocsPerRun(100, func() { mx.DistScratch(a, 0, 0, s) }); n != 0 {
		t.Errorf("saturated DistScratch allocates %.1f times per lookup", n)
	}
}
