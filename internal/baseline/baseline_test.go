package baseline_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"regraph/internal/baseline"
	"regraph/internal/dist"
	"regraph/internal/gen"
	"regraph/internal/graph"
	"regraph/internal/pattern"
	"regraph/internal/predicate"
	"regraph/internal/rex"
)

// triangle builds a data graph with a known embedding structure.
func triangle() *graph.Graph {
	g := graph.New()
	a := g.AddNode("a", map[string]string{"t": "x"})
	b := g.AddNode("b", map[string]string{"t": "y"})
	c := g.AddNode("c", map[string]string{"t": "z"})
	d := g.AddNode("d", map[string]string{"t": "y"})
	g.AddEdge(a, b, "e")
	g.AddEdge(b, c, "e")
	g.AddEdge(c, a, "e")
	g.AddEdge(a, d, "e")
	return g
}

func TestSubIsoFindsEmbedding(t *testing.T) {
	g := triangle()
	q := pattern.New()
	u := q.AddNode("U", predicate.MustParse("t = x"))
	v := q.AddNode("V", predicate.MustParse("t = y"))
	q.AddEdge(u, v, rex.MustParse("e"))
	ms, complete := baseline.SubIso(g, q, baseline.SubIsoOptions{})
	if !complete {
		t.Fatal("tiny search should complete")
	}
	// a->b and a->d both embed.
	if len(ms) != 2 {
		t.Fatalf("got %d embeddings, want 2: %v", len(ms), ms)
	}
	pairs := baseline.NodePairs(q, ms)
	if len(pairs) != 3 { // (U,a), (V,b), (V,d)
		t.Errorf("NodePairs = %v, want 3 distinct pairs", pairs)
	}
}

func TestSubIsoTriangleCycle(t *testing.T) {
	g := triangle()
	q := pattern.New()
	u := q.AddNode("U", predicate.Pred{})
	v := q.AddNode("V", predicate.Pred{})
	w := q.AddNode("W", predicate.Pred{})
	q.AddEdge(u, v, rex.MustParse("e"))
	q.AddEdge(v, w, rex.MustParse("e"))
	q.AddEdge(w, u, rex.MustParse("e"))
	ms, _ := baseline.SubIso(g, q, baseline.SubIsoOptions{})
	// The 3-cycle a,b,c in its three rotations.
	if len(ms) != 3 {
		t.Errorf("got %d embeddings of the triangle, want 3", len(ms))
	}
}

func TestSubIsoInjective(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a", nil)
	g.AddEdge(a, a, "e") // self loop
	q := pattern.New()
	u := q.AddNode("U", predicate.Pred{})
	v := q.AddNode("V", predicate.Pred{})
	q.AddEdge(u, v, rex.MustParse("e"))
	ms, _ := baseline.SubIso(g, q, baseline.SubIsoOptions{})
	if len(ms) != 0 {
		t.Errorf("injective mapping cannot place two pattern nodes on one data node: %v", ms)
	}
	// But a self-loop pattern edge on a single pattern node embeds.
	q2 := pattern.New()
	s := q2.AddNode("S", predicate.Pred{})
	q2.AddEdge(s, s, rex.MustParse("e"))
	ms2, _ := baseline.SubIso(g, q2, baseline.SubIsoOptions{})
	if len(ms2) != 1 {
		t.Errorf("self-loop should embed once, got %v", ms2)
	}
}

func TestSubIsoColorMismatch(t *testing.T) {
	g := triangle()
	q := pattern.New()
	u := q.AddNode("U", predicate.Pred{})
	v := q.AddNode("V", predicate.Pred{})
	q.AddEdge(u, v, rex.MustParse("f")) // no f edges exist
	ms, _ := baseline.SubIso(g, q, baseline.SubIsoOptions{})
	if len(ms) != 0 {
		t.Errorf("color mismatch must yield no embeddings, got %v", ms)
	}
}

func TestSubIsoLimits(t *testing.T) {
	g := gen.Synthetic(1, 60, 240, 1, []string{"e"})
	q := pattern.New()
	u := q.AddNode("U", predicate.Pred{})
	v := q.AddNode("V", predicate.Pred{})
	q.AddEdge(u, v, rex.MustParse("e"))
	ms, complete := baseline.SubIso(g, q, baseline.SubIsoOptions{MaxMappings: 5})
	if complete || len(ms) != 5 {
		t.Errorf("MaxMappings: got %d embeddings (complete=%v), want exactly 5, incomplete", len(ms), complete)
	}
	_, complete = baseline.SubIso(g, q, baseline.SubIsoOptions{MaxSteps: 3})
	if complete {
		t.Error("MaxSteps must mark the search incomplete")
	}
}

func TestRelax(t *testing.T) {
	q := pattern.New()
	u := q.AddNode("U", predicate.Pred{})
	v := q.AddNode("V", predicate.Pred{})
	q.AddEdge(u, v, rex.MustParse("a{2} b{3}"))
	q.AddEdge(v, u, rex.MustParse("a+ b"))
	relaxed := baseline.Relax(q)
	if got := relaxed.Edge(0).Expr.String(); got != "_{5}" {
		t.Errorf("relaxed edge 0 = %q, want _{5}", got)
	}
	if got := relaxed.Edge(1).Expr.String(); got != "_+" {
		t.Errorf("relaxed edge 1 = %q, want _+", got)
	}
}

// TestMatchIsUpperBound: bounded simulation ignores colors, so every true
// PQ node match must also be a Match node match (recall 1), on random
// inputs.
func TestMatchIsUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomAttrGraph(r, 2+r.Intn(10), 1+r.Intn(25))
		q := randomPattern(r)
		mx := dist.NewMatrix(g)
		truth := baseline.ResultNodePairs(q, pattern.JoinMatch(g, q, pattern.Options{Backend: mx}))
		found := baseline.ResultNodePairs(q, baseline.Match(g, q, pattern.Options{Backend: mx}))
		for m := range truth {
			if !found[m] {
				t.Logf("seed %d: true match %v missed by bounded simulation\n%v", seed, m, q)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestSubIsoSoundness: every SubIso embedding satisfies predicates and
// edge-by-edge color constraints.
func TestSubIsoSoundness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomAttrGraph(r, 2+r.Intn(8), 1+r.Intn(20))
		q := randomPattern(r)
		ms, _ := baseline.SubIso(g, q, baseline.SubIsoOptions{MaxMappings: 50})
		for _, m := range ms {
			seen := map[graph.NodeID]bool{}
			for u, v := range m {
				if !q.Node(u).Pred.Eval(g.Attrs(v)) {
					return false
				}
				if seen[v] {
					return false // not injective
				}
				seen[v] = true
			}
			for ei := 0; ei < q.NumEdges(); ei++ {
				e := q.Edge(ei)
				found := false
				atom := e.Expr.Atoms()[0]
				for _, ge := range g.Out(m[e.From]) {
					if ge.To == m[e.To] && atom.Matches(g.ColorName(ge.Color)) {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func randomAttrGraph(r *rand.Rand, n, e int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), map[string]string{"t": fmt.Sprint(r.Intn(3))})
	}
	colors := []string{"a", "b"}
	for i := 0; i < e; i++ {
		g.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)), colors[r.Intn(2)])
	}
	return g
}

func randomPattern(r *rand.Rand) *pattern.Query {
	q := pattern.New()
	nn := 2 + r.Intn(3)
	preds := []string{"t = 0", "t = 1", "t = 2", "*"}
	for i := 0; i < nn; i++ {
		q.AddNode(fmt.Sprintf("u%d", i), predicate.MustParse(preds[r.Intn(len(preds))]))
	}
	ne := 1 + r.Intn(3)
	colors := []string{"a", "b", "_"}
	for i := 0; i < ne; i++ {
		q.AddEdge(r.Intn(nn), r.Intn(nn), rex.MustNew(rex.Atom{
			Color: colors[r.Intn(3)], Max: 1 + r.Intn(3),
		}))
	}
	return q
}
