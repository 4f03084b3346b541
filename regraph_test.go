package regraph_test

import (
	"testing"

	"regraph"
)

// TestFacadeEndToEnd exercises the public API exactly as the README's
// quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	g := regraph.Essembly()
	mx := regraph.NewMatrix(g)

	// RQ: Example 2.2.
	q1 := regraph.RQ{
		From: regraph.MustPredicate("job = biologist, sp = cloning"),
		To:   regraph.MustPredicate("job = doctor"),
		Expr: regraph.MustRegex("fa{2} fn"),
	}
	pairs := q1.EvalBackend(g, mx)
	if len(pairs) != 4 {
		t.Fatalf("Q1 returned %d pairs, want 4", len(pairs))
	}

	// PQ: the (C,B)+(B,D) fragment of Example 2.3.
	q2 := regraph.NewPQ()
	c := q2.AddNode("C", regraph.MustPredicate("job = biologist"))
	b := q2.AddNode("B", regraph.MustPredicate("job = doctor"))
	d := q2.AddNode("D", regraph.MustPredicate("uid = Alice001"))
	q2.AddEdge(c, b, regraph.MustRegex("fn"))
	q2.AddEdge(b, d, regraph.MustRegex("fn"))
	res := regraph.JoinMatch(g, q2, regraph.EvalOptions{Backend: mx})
	if res.Empty() {
		t.Fatal("pattern should match")
	}
	if got := regraph.SplitMatch(g, q2, regraph.EvalOptions{}); !got.Equal(res) {
		t.Error("SplitMatch disagrees with JoinMatch through the facade")
	}

	// Static analyses.
	if !regraph.PQEquivalent(q2, q2) {
		t.Error("query should be self-equivalent")
	}
	m := regraph.Minimize(q2)
	if !regraph.PQEquivalent(m, q2) {
		t.Error("minimized query should stay equivalent")
	}
	if !regraph.RQContains(q1, regraph.RQ{
		From: regraph.MustPredicate("job = biologist"),
		To:   regraph.Predicate{},
		Expr: regraph.MustRegex("fa{2} fn"),
	}) {
		t.Error("RQ with weaker predicates should contain q1")
	}
}

// TestFacadeExtensions exercises the future-work layer through the public
// API: incremental maintenance, general regexes (RQ and PQ), and the
// reachability filter.
func TestFacadeExtensions(t *testing.T) {
	g := regraph.Essembly()

	// Incremental maintenance.
	q := regraph.NewPQ()
	c := q.AddNode("C", regraph.MustPredicate("job = biologist"))
	b := q.AddNode("B", regraph.MustPredicate("job = doctor"))
	q.AddEdge(c, b, regraph.MustRegex("fn"))
	inc, err := regraph.NewIncremental(g, q)
	if err != nil {
		t.Fatal(err)
	}
	before := inc.Result().Size()
	c1, _ := g.NodeByName("C1")
	b1, _ := g.NodeByName("B1")
	inc.InsertEdge(c1, b1, "fn")
	if inc.Result().Size() != before+1 {
		t.Errorf("insertion should add one pair: %d -> %d", before, inc.Result().Size())
	}

	// General-regex RQ.
	frq := regraph.FullRQ{
		From: regraph.MustPredicate("job = doctor"),
		To:   regraph.MustPredicate("uid = Alice001"),
		Expr: regraph.MustFullRegex("(fa|fn)+"),
	}
	if pairs := frq.Eval(g); len(pairs) != 2 {
		t.Errorf("full-regex RQ found %d pairs, want 2 (B1, B2 -fn-> D1)", len(pairs))
	}

	// General-regex PQ.
	fpq := regraph.NewFullPQ()
	fb := fpq.AddNode("B", regraph.MustPredicate("job = doctor"))
	fd := fpq.AddNode("D", regraph.MustPredicate("uid = Alice001"))
	fpq.AddEdge(fb, fd, regraph.MustFullRegex("fn | fa fn"))
	if res := fpq.Eval(g); res.Empty() || len(res.MatchSet(fb)) != 2 {
		t.Errorf("full-regex PQ mat(B) = %v", res.MatchSet(fb))
	}

	// Reachability filter on the cache.
	g2 := regraph.Essembly() // unmutated copy
	ix := regraph.NewReachIndex(g2, 2)
	ca := regraph.NewCache(g2, 64)
	ca.SetFilter(ix)
	rq := regraph.RQ{
		From: regraph.MustPredicate("uid = Alice001"),
		To:   regraph.MustPredicate("job = doctor"),
		Expr: regraph.MustRegex("sn"),
	}
	if pairs := rq.EvalBackend(g2, ca); len(pairs) != 0 {
		t.Errorf("no sn path from Alice to a doctor; got %v", pairs)
	}
}

func TestFacadeGenerators(t *testing.T) {
	if g := regraph.SyntheticGraph(1, 50, 100, 2, []string{"x", "y"}); g.NumNodes() != 50 {
		t.Error("SyntheticGraph shape")
	}
	if g := regraph.YouTubeGraph(1, 0.02); g.NumNodes() != 167 {
		t.Errorf("YouTubeGraph scale: %d nodes", g.NumNodes())
	}
	if g := regraph.TerrorGraph(1); g.NumNodes() != 818 {
		t.Error("TerrorGraph shape")
	}
	g := regraph.NewGraph()
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddEdge(a, b, "e")
	ca := regraph.NewCache(g, 16)
	q := regraph.RQ{Expr: regraph.MustRegex("e")}
	if got := q.EvalBackend(g, ca); len(got) != 1 {
		t.Errorf("cache-backed RQ = %v", got)
	}
}
