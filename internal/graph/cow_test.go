package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// snapshot captures everything observable about a graph through its read
// API, deeply copied, so later mutations of any generation can be checked
// against it.
type snapshot struct {
	n, e   int
	colors []string
	nodes  []Node
	out    [][]Edge
	in     [][]Edge
	layers [2][][][]int32
}

func snap(g *Graph) *snapshot {
	s := &snapshot{
		n:      g.NumNodes(),
		e:      g.NumEdges(),
		colors: append([]string(nil), g.Colors()...),
		layers: layerRows(g),
	}
	for v := 0; v < s.n; v++ {
		nd := g.Node(NodeID(v))
		attrs := map[string]string{}
		for k, val := range nd.Attrs {
			attrs[k] = val
		}
		s.nodes = append(s.nodes, Node{Name: nd.Name, Attrs: attrs})
		s.out = append(s.out, append([]Edge(nil), g.Out(NodeID(v))...))
		s.in = append(s.in, append([]Edge(nil), g.In(NodeID(v))...))
	}
	return s
}

// layerRows copies every row of every CSR layer of g: rows[0] holds the
// forward layers and rows[1] the reverse ones, each indexed by color with
// the wildcard last, then by node.
func layerRows(g *Graph) [2][][][]int32 {
	var rows [2][][][]int32
	for dir, forward := range []bool{true, false} {
		for l := 0; l <= g.NumColors(); l++ {
			c := ColorID(l)
			if l == g.NumColors() {
				c = AnyColor
			}
			la := g.Layer(c, forward)
			var layer [][]int32
			for v := 0; v < g.NumNodes(); v++ {
				layer = append(layer, append([]int32{}, la.Row(NodeID(v))...))
			}
			rows[dir] = append(rows[dir], layer)
		}
	}
	return rows
}

// filterRows is layerRows computed from Out and In instead of the CSR:
// each row is the order-preserving color filter of the adjacency list.
func filterRows(g *Graph) [2][][][]int32 {
	var rows [2][][][]int32
	for dir, forward := range []bool{true, false} {
		for l := 0; l <= g.NumColors(); l++ {
			var layer [][]int32
			for v := 0; v < g.NumNodes(); v++ {
				es := g.In(NodeID(v))
				if forward {
					es = g.Out(NodeID(v))
				}
				row := []int32{}
				for _, e := range es {
					if l == g.NumColors() || e.Color == ColorID(l) {
						row = append(row, int32(e.To))
					}
				}
				layer = append(layer, row)
			}
			rows[dir] = append(rows[dir], layer)
		}
	}
	return rows
}

func (s *snapshot) check(t *testing.T, g *Graph, label string) {
	t.Helper()
	if g.NumNodes() != s.n || g.NumEdges() != s.e {
		t.Fatalf("%s: size changed: got %d nodes/%d edges, want %d/%d", label, g.NumNodes(), g.NumEdges(), s.n, s.e)
	}
	if !reflect.DeepEqual(append([]string(nil), g.Colors()...), s.colors) {
		t.Fatalf("%s: colors changed: %v vs %v", label, g.Colors(), s.colors)
	}
	for v := 0; v < s.n; v++ {
		nd := g.Node(NodeID(v))
		if nd.Name != s.nodes[v].Name || !reflect.DeepEqual(nd.Attrs, s.nodes[v].Attrs) {
			t.Fatalf("%s: node %d changed: %+v vs %+v", label, v, nd, s.nodes[v])
		}
		if !edgesEqual(g.Out(NodeID(v)), s.out[v]) || !edgesEqual(g.In(NodeID(v)), s.in[v]) {
			t.Fatalf("%s: adjacency of %d changed", label, v)
		}
	}
	if got := layerRows(g); !reflect.DeepEqual(got, s.layers) {
		t.Fatalf("%s: CSR layers changed: %v vs %v", label, got, s.layers)
	}
}

func edgesEqual(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func buildBase(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for i := 0; i < 8; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), map[string]string{"idx": fmt.Sprint(i)})
	}
	g.AddEdge(0, 1, "a")
	g.AddEdge(1, 2, "a")
	g.AddEdge(2, 3, "b")
	g.AddEdge(3, 4, "b")
	g.AddEdge(0, 1, "b") // parallel edge, different color
	g.AddEdge(0, 1, "a") // true multi-edge
	g.AddEdge(5, 6, "a")
	g.AddEdge(6, 7, "c")
	g.BuildColorIndex()
	return g
}

// TestDeriveBaseImmutable mutates a derived generation every way the API
// allows and asserts the base graph is bit-for-bit unchanged.
func TestDeriveBaseImmutable(t *testing.T) {
	g := buildBase(t)
	before := snap(g)

	ng := g.Derive()
	ng.AddEdge(4, 5, "a")
	ng.AddEdge(0, 7, "c")
	if !ng.RemoveEdge(0, 1, "a") {
		t.Fatal("RemoveEdge(0,1,a) should succeed")
	}
	ng.SetAttr(2, "idx", "changed")
	ng.SetAttr(2, "extra", "1")
	id := ng.AddNode("fresh", map[string]string{"idx": "99"})
	ng.AddEdge(id, 0, "a")
	ng.AddEdge(3, id, "d") // new color too

	before.check(t, g, "base after derived mutations")

	if _, ok := g.NodeByName("fresh"); ok {
		t.Fatal("base graph sees node added to derived generation")
	}
	if _, ok := g.ColorID("d"); ok {
		t.Fatal("base graph sees color interned in derived generation")
	}
	if ng.Epoch() <= g.Epoch() {
		t.Fatalf("derived epoch %d should be ahead of base %d", ng.Epoch(), g.Epoch())
	}
}

// TestDeriveEquivalentToRebuild replays a random mutation sequence both
// through chained Derive generations and into a from-scratch graph, and
// requires every read-API observation to agree at each step.
func TestDeriveEquivalentToRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	colors := []string{"a", "b", "c", "d"}

	fresh := New()
	cur := buildBase(t)
	// Mirror the base into fresh via TSV-free replay.
	for v := 0; v < cur.NumNodes(); v++ {
		nd := cur.Node(NodeID(v))
		attrs := map[string]string{}
		for k, val := range nd.Attrs {
			attrs[k] = val
		}
		fresh.AddNode(nd.Name, attrs)
	}
	for v := 0; v < cur.NumNodes(); v++ {
		for _, e := range cur.Out(NodeID(v)) {
			fresh.AddEdge(NodeID(v), e.To, cur.ColorName(e.Color))
		}
	}

	for gen := 0; gen < 12; gen++ {
		ng := cur.Derive()
		nops := 1 + rng.Intn(6)
		for i := 0; i < nops; i++ {
			switch rng.Intn(4) {
			case 0:
				name := fmt.Sprintf("g%dn%d", gen, i)
				attrs := map[string]string{"idx": fmt.Sprint(rng.Intn(100))}
				ng.AddNode(name, attrs)
				fresh.AddNode(name, attrs)
			case 1:
				v := NodeID(rng.Intn(ng.NumNodes()))
				k := fmt.Sprintf("k%d", rng.Intn(3))
				val := fmt.Sprint(rng.Intn(10))
				ng.SetAttr(v, k, val)
				fresh.SetAttr(v, k, val)
			case 2:
				from := NodeID(rng.Intn(ng.NumNodes()))
				to := NodeID(rng.Intn(ng.NumNodes()))
				c := colors[rng.Intn(len(colors))]
				ng.AddEdge(from, to, c)
				fresh.AddEdge(from, to, c)
			case 3:
				from := NodeID(rng.Intn(ng.NumNodes()))
				to := NodeID(rng.Intn(ng.NumNodes()))
				c := colors[rng.Intn(len(colors))]
				got := ng.RemoveEdge(from, to, c)
				want := fresh.RemoveEdge(from, to, c)
				if got != want {
					t.Fatalf("gen %d: RemoveEdge(%d,%d,%s) = %v on derived, %v on fresh", gen, from, to, c, got, want)
				}
			}
		}
		cur.Seal()
		cur = ng

		// The derived generation and the replayed fresh graph must agree
		// on every observation, including the CSR layers.
		want := snap(fresh)
		want.check(t, cur, fmt.Sprintf("gen %d vs fresh rebuild", gen))
	}
}

// TestSealedPanics pins the contract that a sealed generation refuses
// mutation loudly.
func TestSealedPanics(t *testing.T) {
	g := buildBase(t)
	ng := g.Derive()
	g.Seal()
	if !g.Sealed() {
		t.Fatal("Sealed() false after Seal")
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on sealed graph did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("AddEdge", func() { g.AddEdge(0, 1, "a") })
	mustPanic("RemoveEdge", func() { g.RemoveEdge(0, 1, "a") })
	mustPanic("AddNode", func() { g.AddNode("zz", nil) })
	mustPanic("SetAttr", func() { g.SetAttr(0, "k", "v") })
	mustPanic("InternColor", func() { g.InternColor("brand-new") })

	// Reads still work, and the unsealed successor still mutates.
	if len(g.Layer(0, true).Row(0)) == 0 {
		t.Fatal("sealed graph lost its adjacency")
	}
	ng.AddEdge(4, 5, "a")
	// Idempotent lookups on the sealed graph must not panic.
	if g.AddNode("n0", nil) != 0 {
		t.Fatal("existing-name AddNode should return the old ID without mutating")
	}
	if g.InternColor("a") != 0 {
		t.Fatal("existing InternColor should not mutate")
	}
}

// TestDeriveSharesUntouchedStorage is a cheap guard that Derive is O(1):
// deriving and mutating one node must not copy every adjacency list.
func TestDeriveSharesUntouchedStorage(t *testing.T) {
	g := buildBase(t)
	ng := g.Derive()
	ng.AddEdge(0, 1, "a")
	// Untouched rows share backing storage with the base.
	if len(g.Out(5)) > 0 && len(ng.Out(5)) > 0 && &g.Out(5)[0] != &ng.Out(5)[0] {
		t.Fatal("untouched adjacency row was copied")
	}
	// The touched row must NOT share storage.
	if &g.Out(0)[0] == &ng.Out(0)[0] {
		t.Fatal("touched adjacency row still shares storage with the base")
	}
}

// TestLayersMatchAdjacencyOverCOWHistories drives random histories of
// Derive, AddNode, AddEdge (some with a color first interned in a derived
// generation), RemoveEdge, SetAttr and Seal. After every step each live
// generation's layers must be the order-preserving color filter of its
// Out/In lists, and every base generation's layers must still be the ones
// it had when its successor was derived.
func TestLayersMatchAdjacencyOverCOWHistories(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cur := buildBase(t)
		colors := []string{"a", "b", "c"}
		var bases []*Graph
		var baseRows [][2][][][]int32
		for step := 0; step < 50; step++ {
			built := cur.csr.Load()
			adjacency := true // whether the op must drop cur's layers
			switch op := rng.Intn(8); op {
			case 0, 1: // Derive, sometimes from a base whose layers were never built
				if rng.Intn(2) == 0 {
					cur.BuildColorIndex()
				}
				ng := cur.Derive()
				if ng.csr.Load() != cur.csr.Load() {
					t.Fatalf("seed %d step %d: Derive did not share the base's layers", seed, step)
				}
				bases = append(bases, cur)
				baseRows = append(baseRows, layerRows(cur))
				if op == 1 {
					cur.Seal()
				}
				cur, adjacency = ng, false
			case 2:
				cur.AddNode(fmt.Sprintf("s%d", step), nil)
			case 3, 4:
				c := colors[rng.Intn(len(colors))]
				if op == 4 {
					c = fmt.Sprintf("new%d", step)
					colors = append(colors, c)
				}
				cur.AddEdge(NodeID(rng.Intn(cur.NumNodes())), NodeID(rng.Intn(cur.NumNodes())), c)
			case 5:
				from := NodeID(rng.Intn(cur.NumNodes()))
				es := cur.Out(from)
				if len(es) == 0 {
					adjacency = false
					break
				}
				e := es[rng.Intn(len(es))]
				if !cur.RemoveEdge(from, e.To, cur.ColorName(e.Color)) {
					t.Fatalf("seed %d step %d: RemoveEdge of a listed edge failed", seed, step)
				}
			default:
				cur.SetAttr(NodeID(rng.Intn(cur.NumNodes())), "k", fmt.Sprint(step))
				adjacency = false
			}
			if got := cur.csr.Load(); adjacency && got != nil || !adjacency && got != built && built != nil {
				t.Fatalf("seed %d step %d: layers pointer %p after an op with adjacency=%v (was %p)", seed, step, got, adjacency, built)
			}
			if rng.Intn(3) == 0 {
				// Read the newest generation's layers mid-history too, so
				// later ops start from built layers as well as dropped ones.
				cur.BuildColorIndex()
			}
			for i, g := range append(bases, cur) {
				if got, want := layerRows(g), filterRows(g); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: generation %d layers %v, want the filter of Out/In %v", seed, step, i, got, want)
				}
				if i < len(bases) && !reflect.DeepEqual(layerRows(g), baseRows[i]) {
					t.Fatalf("seed %d step %d: base generation %d's layers changed after its successor mutated", seed, step, i)
				}
			}
		}
	}
}
