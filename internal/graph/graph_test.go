package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddNodeDuplicate(t *testing.T) {
	g := New()
	a := g.AddNode("a", map[string]string{"k": "1"})
	b := g.AddNode("a", map[string]string{"k": "2"})
	if a != b {
		t.Errorf("duplicate AddNode returned %d, want %d", b, a)
	}
	if g.NumNodes() != 1 {
		t.Errorf("NumNodes = %d, want 1", g.NumNodes())
	}
	if g.Attrs(a)["k"] != "1" {
		t.Error("duplicate AddNode must not overwrite attributes")
	}
}

func TestColorsInterned(t *testing.T) {
	g := New()
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddEdge(a, b, "fa")
	g.AddEdge(b, a, "fn")
	g.AddEdge(a, b, "fa")
	if g.NumColors() != 2 {
		t.Errorf("NumColors = %d, want 2", g.NumColors())
	}
	if id, ok := g.ColorID("fa"); !ok || g.ColorName(id) != "fa" {
		t.Error("ColorID/ColorName round trip failed")
	}
	if id, ok := g.ColorID("_"); !ok || id != AnyColor {
		t.Error("wildcard should map to AnyColor")
	}
	if _, ok := g.ColorID("nope"); ok {
		t.Error("unknown color should not resolve")
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
}

func TestSuccPredByColor(t *testing.T) {
	g := New()
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	c := g.AddNode("c", nil)
	g.AddEdge(a, b, "x")
	g.AddEdge(a, c, "y")
	g.AddEdge(b, c, "x")
	x, _ := g.ColorID("x")
	y, _ := g.ColorID("y")
	if got := g.Layer(x, true).Row(a); len(got) != 1 || NodeID(got[0]) != b {
		t.Errorf("Succ(a,x) = %v, want [b]", got)
	}
	if got := g.Layer(y, true).Row(a); len(got) != 1 || NodeID(got[0]) != c {
		t.Errorf("Succ(a,y) = %v, want [c]", got)
	}
	if got := g.Layer(AnyColor, true).Row(a); len(got) != 2 {
		t.Errorf("Succ(a,any) = %v, want 2 successors", got)
	}
	if got := g.Layer(x, false).Row(c); len(got) != 1 || NodeID(got[0]) != b {
		t.Errorf("Pred(c,x) = %v, want [b]", got)
	}
	if got := g.Layer(AnyColor, false).Row(c); len(got) != 2 {
		t.Errorf("Pred(c,any) = %v, want 2 predecessors", got)
	}
}

func TestSuccIndexRebuiltAfterMutation(t *testing.T) {
	g := New()
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddEdge(a, b, "x")
	x, _ := g.ColorID("x")
	_ = g.Layer(x, true) // build the layers
	c := g.AddNode("c", nil)
	g.AddEdge(a, c, "x")
	if got := g.Layer(x, true).Row(a); len(got) != 2 {
		t.Errorf("after mutation Succ(a,x) = %v, want 2 successors", got)
	}
}

func TestSCCSimple(t *testing.T) {
	// 0 -> 1 -> 2 -> 0 (one SCC), 2 -> 3, 3 -> 4, 4 -> 3 (another SCC).
	adj := [][]int{{1}, {2}, {0, 3}, {4}, {3}}
	comps := SCC(5, func(v int) []int { return adj[v] })
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	for _, c := range comps {
		sort.Ints(c)
	}
	// Reverse topological: {3,4} must come before {0,1,2}.
	if !reflect.DeepEqual(comps[0], []int{3, 4}) || !reflect.DeepEqual(comps[1], []int{0, 1, 2}) {
		t.Errorf("components = %v, want [[3 4] [0 1 2]]", comps)
	}
}

func TestSCCDAGIsReverseTopological(t *testing.T) {
	// A DAG: every node its own component; order must be reverse
	// topological (successors first).
	adj := [][]int{{1, 2}, {3}, {3}, {}}
	comps := SCC(4, func(v int) []int { return adj[v] })
	pos := map[int]int{}
	for i, c := range comps {
		if len(c) != 1 {
			t.Fatalf("DAG produced multi-node component %v", c)
		}
		pos[c[0]] = i
	}
	for v, ss := range adj {
		for _, w := range ss {
			if pos[w] >= pos[v] {
				t.Errorf("edge %d->%d: successor %d at position %d, not before %d", v, w, w, pos[w], pos[v])
			}
		}
	}
}

// TestSCCRandomPartition: SCC must partition the vertex set, and two nodes
// share a component iff they reach each other.
func TestSCCRandomPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		adj := make([][]int, n)
		for i := 0; i < n*2; i++ {
			u, v := r.Intn(n), r.Intn(n)
			adj[u] = append(adj[u], v)
		}
		comps := SCC(n, func(v int) []int { return adj[v] })
		seen := make([]int, n)
		for i := range seen {
			seen[i] = -1
		}
		for ci, comp := range comps {
			for _, v := range comp {
				if seen[v] != -1 {
					return false // appears twice
				}
				seen[v] = ci
			}
		}
		for _, s := range seen {
			if s == -1 {
				return false // missing vertex
			}
		}
		// Reachability closure.
		reach := make([][]bool, n)
		for i := range reach {
			reach[i] = make([]bool, n)
			stack := []int{i}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, w := range adj[v] {
					if !reach[i][w] {
						reach[i][w] = true
						stack = append(stack, w)
					}
				}
			}
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				same := seen[u] == seen[v]
				mutual := u == v || (reach[u][v] && reach[v][u])
				if same != mutual {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTSVRoundTrip(t *testing.T) {
	g := New()
	a := g.AddNode("a", map[string]string{"job": "doctor", "cat": "Film & Animation"})
	b := g.AddNode("b", map[string]string{"job": "biologist"})
	g.AddEdge(a, b, "fa")
	g.AddEdge(b, a, "fn")

	var buf bytes.Buffer
	if err := g.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 2 || g2.NumEdges() != 2 {
		t.Fatalf("round trip: %d nodes, %d edges", g2.NumNodes(), g2.NumEdges())
	}
	a2, _ := g2.NodeByName("a")
	if g2.Attrs(a2)["cat"] != "Film & Animation" {
		t.Errorf("attribute with spaces lost: %q", g2.Attrs(a2)["cat"])
	}
	if g2.Attrs(a2)["job"] != "doctor" {
		t.Errorf("job attribute lost: %q", g2.Attrs(a2)["job"])
	}
}

func TestReadTSVErrors(t *testing.T) {
	for _, in := range []string{
		"node",
		"edge\ta\tb",
		"edge\tmissing\tb\tc",
		"bogus\tline",
		"node\ta\tnoequals",
	} {
		if _, err := ReadTSV(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("ReadTSV(%q): expected error", in)
		}
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New()
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddEdge(a, b, "x")
	g.AddEdge(a, b, "x") // parallel edge
	g.AddEdge(a, b, "y")
	x, _ := g.ColorID("x")
	_ = g.Layer(x, true) // build the layers
	if !g.RemoveEdge(a, b, "x") {
		t.Fatal("RemoveEdge should find the edge")
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	// One x edge remains, and the layers must reflect the removal.
	if got := g.Layer(x, true).Row(a); len(got) != 1 {
		t.Errorf("Succ(a,x) after removal = %v, want one edge", got)
	}
	if got := g.Layer(x, false).Row(b); len(got) != 1 {
		t.Errorf("Pred(b,x) after removal = %v, want one edge", got)
	}
	if !g.RemoveEdge(a, b, "x") || g.RemoveEdge(a, b, "x") {
		t.Error("second removal should succeed, third should fail")
	}
	if g.RemoveEdge(a, b, "nosuch") {
		t.Error("unknown color should not remove anything")
	}
	if !g.RemoveEdge(a, b, "y") {
		t.Error("y edge should be removable")
	}
	if g.NumEdges() != 0 {
		t.Errorf("NumEdges = %d, want 0", g.NumEdges())
	}
}
