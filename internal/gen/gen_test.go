package gen_test

import (
	"math/rand"
	"testing"

	"regraph/internal/dist"
	"regraph/internal/gen"
	"regraph/internal/graph"
	"regraph/internal/pattern"
	"regraph/internal/rex"
)

func TestEssemblyShape(t *testing.T) {
	g := gen.Essembly()
	if g.NumNodes() != 7 {
		t.Errorf("Essembly has %d nodes, want 7", g.NumNodes())
	}
	for _, name := range []string{"B1", "B2", "C1", "C2", "C3", "D1", "H1"} {
		if _, ok := g.NodeByName(name); !ok {
			t.Errorf("missing node %s", name)
		}
	}
	if g.NumColors() != 4 {
		t.Errorf("Essembly has %d colors, want 4 (fa, fn, sa, sn)", g.NumColors())
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	g1 := gen.Synthetic(7, 100, 300, 2, gen.DefaultColors)
	g2 := gen.Synthetic(7, 100, 300, 2, gen.DefaultColors)
	if g1.NumNodes() != 100 || g1.NumEdges() != 300 {
		t.Fatalf("synthetic shape: %d nodes, %d edges", g1.NumNodes(), g1.NumEdges())
	}
	// Same seed, same graph.
	for v := 0; v < g1.NumNodes(); v++ {
		id := graph.NodeID(v)
		if len(g1.Out(id)) != len(g2.Out(id)) {
			t.Fatal("same seed must produce identical graphs")
		}
	}
	g3 := gen.Synthetic(8, 100, 300, 2, gen.DefaultColors)
	same := true
	for v := 0; v < g1.NumNodes() && same; v++ {
		same = len(g1.Out(graph.NodeID(v))) == len(g3.Out(graph.NodeID(v)))
	}
	if same {
		t.Error("different seeds should give different graphs (overwhelmingly)")
	}
}

func TestYouTubeShape(t *testing.T) {
	g := gen.YouTube(1, 0.1)
	if g.NumNodes() != 835 || g.NumEdges() != 3039 {
		t.Errorf("scaled YouTube: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.NumColors() != 4 {
		t.Errorf("YouTube colors = %v", g.Colors())
	}
	// The uploader Exp-1 queries for must exist.
	found := false
	for v := 0; v < g.NumNodes() && !found; v++ {
		found = g.Attrs(graph.NodeID(v))["uid"] == "Davedays"
	}
	if !found {
		t.Error("no video by Davedays")
	}
}

func TestTerrorShape(t *testing.T) {
	g := gen.Terror(1)
	if g.NumNodes() != 818 || g.NumEdges() != 1600 {
		t.Errorf("Terror: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if _, ok := g.NodeByName("Hamas"); !ok {
		t.Error("missing the Hamas anchor node")
	}
}

// TestGeneratedQueriesAreMeaningful: walk-anchored queries must have
// non-empty answers on their source graph (the paper evaluates
// "meaningful" queries only).
func TestGeneratedQueriesAreMeaningful(t *testing.T) {
	g := gen.Synthetic(3, 300, 1200, 3, gen.DefaultColors)
	mx := dist.NewMatrix(g)
	r := rand.New(rand.NewSource(9))
	nonEmpty := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		q := gen.Query(g, gen.Spec{Nodes: 4, Edges: 5, Preds: 2, Bound: 3, Colors: 2}, r)
		if q.NumNodes() < 2 || q.NumEdges() < 1 {
			t.Fatalf("degenerate query: %v", q)
		}
		res := pattern.JoinMatch(g, q, pattern.Options{Backend: mx})
		if !res.Empty() {
			nonEmpty++
		}
	}
	if nonEmpty < trials*3/4 {
		t.Errorf("only %d/%d generated queries had matches", nonEmpty, trials)
	}
}

// TestGeneratedRQsAreMeaningful: same for reachability queries.
func TestGeneratedRQsAreMeaningful(t *testing.T) {
	g := gen.Synthetic(4, 300, 1200, 3, gen.DefaultColors)
	mx := dist.NewMatrix(g)
	r := rand.New(rand.NewSource(10))
	nonEmpty := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		q := gen.RQ(g, 2, 3, 2, r)
		if len(q.EvalBackend(g, mx)) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < trials*3/4 {
		t.Errorf("only %d/%d generated RQs had matches", nonEmpty, trials)
	}
}

// TestQuerySpecRespected: the generator must respect the five parameters.
func TestQuerySpecRespected(t *testing.T) {
	g := gen.Synthetic(5, 200, 800, 3, gen.DefaultColors)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		spec := gen.Spec{Nodes: 3 + r.Intn(4), Edges: 4 + r.Intn(5), Preds: 1 + r.Intn(3), Bound: 1 + r.Intn(4), Colors: 1 + r.Intn(3)}
		q := gen.Query(g, spec, r)
		if q.NumNodes() > spec.Nodes {
			t.Errorf("query has %d nodes, spec %d", q.NumNodes(), spec.Nodes)
		}
		maxEdges := spec.Edges
		if spec.Nodes-1 > maxEdges {
			maxEdges = spec.Nodes - 1 // the generator keeps patterns connected
		}
		if q.NumEdges() > maxEdges {
			t.Errorf("query has %d edges, spec allows %d", q.NumEdges(), maxEdges)
		}
		for ei := 0; ei < q.NumEdges(); ei++ {
			expr := q.Edge(ei).Expr
			if expr.Len() > spec.Colors {
				t.Errorf("edge expr %v has %d atoms, spec allows %d", expr, expr.Len(), spec.Colors)
			}
			for _, a := range expr.Atoms() {
				if a.Max != rex.Unbounded && a.Max > spec.Bound {
					t.Errorf("atom %v exceeds bound %d", a, spec.Bound)
				}
			}
		}
		for u := 0; u < q.NumNodes(); u++ {
			if q.Node(u).Pred.Size() > spec.Preds {
				t.Errorf("node %d has %d predicates, spec %d", u, q.Node(u).Pred.Size(), spec.Preds)
			}
		}
	}
}
