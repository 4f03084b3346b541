package dist

import (
	"math/rand"
	"testing"

	"regraph/internal/graph"
	"regraph/internal/rex"
)

// TestClosureShortSource: the closure APIs size their buffers by
// g.NumNodes(), not len(src) — a seed bitset shorter than the node
// count must still reach nodes beyond its length.
func TestClosureShortSource(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a", nil) // node 0
	g.AddNode("b", nil)      // node 1
	c := g.AddNode("c", nil) // node 2
	g.AddEdge(a, c, "e")     // 0 -> 2
	g.AddEdge(c, a, "e")     // 2 -> 0
	atoms, ok := Compile(g, rex.MustParse("e{2}"))
	if !ok {
		t.Fatal("compile failed")
	}
	s := NewScratch()
	res := ForwardClosureScratch(g, []bool{true}, atoms, s)
	if len(res) != g.NumNodes() {
		t.Fatalf("result length %d, want %d", len(res), g.NumNodes())
	}
	// 0 -e-> 2 -e-> 0: within bound 2, both 0 and 2 are reached.
	if !res[0] || !res[2] || res[1] {
		t.Fatalf("ForwardClosureScratch(short src) = %v, want [true false true]", res)
	}
	bres := BackwardClosureScratch(g, []bool{true}, atoms, s)
	if len(bres) != g.NumNodes() || !bres[0] || !bres[2] || bres[1] {
		t.Fatalf("BackwardClosureScratch(short dst) = %v, want [true false true]", bres)
	}
	if got := ForwardClosure(g, []bool{true}, atoms); len(got) != g.NumNodes() || !got[2] {
		t.Fatalf("ForwardClosure(short src) = %v", got)
	}
}

// TestLayerScansAllocateNothing: on a warm arena, a closure step, a
// BiDist and a wildcard predecessor row allocate nothing — every BFS
// reads the graph's CSR layers in place.
func TestLayerScansAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := randGraph(rand.New(rand.NewSource(3)), 300, 1500, []string{"a", "b", "c"})
	atoms, ok := Compile(g, rex.MustParse("a{2} b"))
	if !ok {
		t.Fatal("compile failed")
	}
	a, _ := g.ColorID("a")
	src := []graph.NodeID{0, 5, 9}
	s := NewScratch()
	for name, step := range map[string]func(){
		"closure step": func() { ForwardClosureOf(g, src, atoms[:1], s) },
		"BiDist":       func() { BiDistScratch(g, a, 1, 2, s) },
		"wildcard row": func() { _ = g.Layer(graph.AnyColor, false).Row(7) },
	} {
		step() // warm the arena and build the layers
		if n := testing.AllocsPerRun(50, step); n != 0 {
			t.Errorf("%s: %.1f allocations per call on a warm arena, want 0", name, n)
		}
	}
}
