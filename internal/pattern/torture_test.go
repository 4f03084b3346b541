package pattern_test

import (
	"fmt"
	"testing"

	"regraph/internal/graph"
	"regraph/internal/pattern"
	"regraph/internal/predicate"
	"regraph/internal/rex"
)

// Adversarial inputs: shapes that stress corner cases of the evaluators
// rather than average behaviour. Every case must agree across both
// algorithms on every backend (plus the unordered fixpoint).

func allConfigs(g *graph.Graph, q *pattern.Query) map[string]*pattern.Result {
	res := map[string]*pattern.Result{}
	for _, b := range backendTable(g) {
		opts := pattern.Options{Backend: b.be}
		res["JoinMatch/"+b.name] = pattern.JoinMatch(g, q, opts)
		res["SplitMatch/"+b.name] = pattern.SplitMatch(g, q, opts)
		opts.DisableTopoOrder = true
		res["JoinNoTopo/"+b.name] = pattern.JoinMatch(g, q, opts)
	}
	return res
}

// assertAgree checks every configuration against JoinMatch with no
// backend and returns that reference answer.
func assertAgree(t *testing.T, g *graph.Graph, q *pattern.Query) *pattern.Result {
	t.Helper()
	ref := pattern.JoinMatch(g, q, pattern.Options{})
	for name, r := range allConfigs(g, q) {
		if !r.Equal(ref) {
			t.Fatalf("%s disagrees:\n%s\nvs JoinMatch with no backend\n%s\npattern %v", name, r.String(g), ref.String(g), q)
		}
	}
	return ref
}

// TestTortureSelfLoopsEverywhere: a clique of self-loops and a pattern of
// self-loops; every node must match.
func TestTortureSelfLoopsEverywhere(t *testing.T) {
	g := graph.New()
	for i := 0; i < 6; i++ {
		id := g.AddNode(fmt.Sprintf("n%d", i), map[string]string{"t": "x"})
		g.AddEdge(id, id, "loop")
	}
	q := pattern.New()
	u := q.AddNode("U", predicate.MustParse("t = x"))
	q.AddEdge(u, u, rex.MustParse("loop+"))
	res := assertAgree(t, g, q)
	if len(res.MatchSet(u)) != 6 {
		t.Errorf("mat(U) = %d nodes, want all 6", len(res.MatchSet(u)))
	}
}

// TestTortureParallelContradiction: two parallel pattern edges whose
// expressions can never both be satisfied by any node pair still admit
// matches via *different* witnesses (simulation is per-edge existential).
func TestTortureParallelContradiction(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a", map[string]string{"t": "s"})
	b1 := g.AddNode("b1", map[string]string{"t": "d"})
	b2 := g.AddNode("b2", map[string]string{"t": "d"})
	g.AddEdge(a, b1, "x")
	g.AddEdge(a, b2, "y")
	q := pattern.New()
	u := q.AddNode("U", predicate.MustParse("t = s"))
	w := q.AddNode("W", predicate.MustParse("t = d"))
	q.AddEdge(u, w, rex.MustParse("x"))
	q.AddEdge(u, w, rex.MustParse("y"))
	res := assertAgree(t, g, q)
	if res.Empty() {
		t.Fatal("distinct witnesses should satisfy both parallel edges")
	}
	// Edge 0 (x) matches only (a,b1); edge 1 (y) only (a,b2).
	if len(res.EdgePairs(0)) != 1 || len(res.EdgePairs(1)) != 1 {
		t.Errorf("pairs: %v / %v", res.EdgePairs(0), res.EdgePairs(1))
	}
}

// TestTortureBoundsBeyondDiameter: bounds far larger than the graph
// diameter behave like unbounded.
func TestTortureBoundsBeyondDiameter(t *testing.T) {
	g := graph.New()
	prev := g.AddNode("n0", map[string]string{"t": "0"})
	for i := 1; i < 5; i++ {
		next := g.AddNode(fmt.Sprintf("n%d", i), map[string]string{"t": fmt.Sprint(i)})
		g.AddEdge(prev, next, "e")
		prev = next
	}
	q := pattern.New()
	u := q.AddNode("U", predicate.MustParse("t = 0"))
	w := q.AddNode("W", predicate.MustParse("t = 4"))
	q.AddEdge(u, w, rex.MustParse("e{10000}"))
	res := assertAgree(t, g, q)
	if res.Empty() {
		t.Fatal("giant bound should still match the 4-hop chain")
	}
	q2 := pattern.New()
	u2 := q2.AddNode("U", predicate.MustParse("t = 0"))
	w2 := q2.AddNode("W", predicate.MustParse("t = 4"))
	q2.AddEdge(u2, w2, rex.MustParse("e+"))
	res2 := assertAgree(t, g, q2)
	if !res.Equal(res2) {
		t.Error("e{10000} and e+ should coincide on a 5-node chain")
	}
}

// TestTorturePatternLargerThanGraph: more pattern nodes than data nodes
// is fine under simulation (no injectivity).
func TestTorturePatternLargerThanGraph(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a", map[string]string{"t": "x"})
	g.AddEdge(a, a, "e")
	q := pattern.New()
	prev := q.AddNode("U0", predicate.MustParse("t = x"))
	for i := 1; i < 7; i++ {
		next := q.AddNode(fmt.Sprintf("U%d", i), predicate.MustParse("t = x"))
		q.AddEdge(prev, next, rex.MustParse("e"))
		prev = next
	}
	res := assertAgree(t, g, q)
	if res.Empty() || res.Size() != 6 {
		t.Errorf("all 7 pattern nodes should map onto the single looping node; size=%d", res.Size())
	}
}

// TestTortureLongCycleQuery: a pattern cycle longer than any data cycle
// must be empty... unless the data cycle divides it (simulation wraps
// around). A 6-cycle pattern on a 3-cycle graph matches by wrapping.
func TestTortureLongCycleQuery(t *testing.T) {
	g := graph.New()
	var ids []graph.NodeID
	for i := 0; i < 3; i++ {
		ids = append(ids, g.AddNode(fmt.Sprintf("n%d", i), map[string]string{"t": "x"}))
	}
	for i := 0; i < 3; i++ {
		g.AddEdge(ids[i], ids[(i+1)%3], "e")
	}
	q := pattern.New()
	var us []int
	for i := 0; i < 6; i++ {
		us = append(us, q.AddNode(fmt.Sprintf("U%d", i), predicate.MustParse("t = x")))
	}
	for i := 0; i < 6; i++ {
		q.AddEdge(us[i], us[(i+1)%6], rex.MustParse("e"))
	}
	res := assertAgree(t, g, q)
	if res.Empty() {
		t.Fatal("the 3-cycle simulates the 6-cycle pattern")
	}
	// Every pattern node matches every data node (the cycle is
	// homogeneous).
	for _, u := range us {
		if len(res.MatchSet(u)) != 3 {
			t.Errorf("mat(U%d) = %d, want 3", u, len(res.MatchSet(u)))
		}
	}
}

// TestTortureDisconnectedPatternComponents: two disconnected pattern
// components must both match independently, and one failing empties all.
func TestTortureDisconnectedPatternComponents(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a", map[string]string{"t": "1"})
	b := g.AddNode("b", map[string]string{"t": "2"})
	g.AddEdge(a, b, "e")
	c := g.AddNode("c", map[string]string{"t": "3"})
	d := g.AddNode("d", map[string]string{"t": "4"})
	g.AddEdge(c, d, "f")

	q := pattern.New()
	u1 := q.AddNode("U1", predicate.MustParse("t = 1"))
	u2 := q.AddNode("U2", predicate.MustParse("t = 2"))
	u3 := q.AddNode("U3", predicate.MustParse("t = 3"))
	u4 := q.AddNode("U4", predicate.MustParse("t = 4"))
	q.AddEdge(u1, u2, rex.MustParse("e"))
	q.AddEdge(u3, u4, rex.MustParse("f"))
	res := assertAgree(t, g, q)
	if res.Empty() || res.Size() != 2 {
		t.Errorf("both components should match once each; size=%d", res.Size())
	}

	// Break the second component: the whole answer empties (condition 3).
	q.AddEdge(u4, u3, rex.MustParse("e")) // no e path d -> c
	res = assertAgree(t, g, q)
	if !res.Empty() {
		t.Error("one unsatisfiable edge must empty the whole answer")
	}
}

// TestTortureWildcardOnlyPattern: every node matched by '*' predicates
// and '_+' edges on a connected graph.
func TestTortureWildcardOnlyPattern(t *testing.T) {
	g := graph.New()
	var ids []graph.NodeID
	for i := 0; i < 5; i++ {
		ids = append(ids, g.AddNode(fmt.Sprintf("n%d", i), nil))
	}
	for i := 0; i < 5; i++ {
		g.AddEdge(ids[i], ids[(i+1)%5], fmt.Sprintf("c%d", i%2))
	}
	q := pattern.New()
	u := q.AddNode("U", predicate.Pred{})
	w := q.AddNode("W", predicate.Pred{})
	q.AddEdge(u, w, rex.MustParse("_+"))
	q.AddEdge(w, u, rex.MustParse("_+"))
	res := assertAgree(t, g, q)
	if res.Empty() {
		t.Fatal("wildcard pattern on a cycle should match everything")
	}
	if len(res.MatchSet(u)) != 5 || len(res.MatchSet(w)) != 5 {
		t.Errorf("expected full match sets, got %d/%d", len(res.MatchSet(u)), len(res.MatchSet(w)))
	}
}

// TestTortureDeepNormalizationChain: a single edge with many atoms is
// one twelve-step closure on every backend.
func TestTortureDeepNormalizationChain(t *testing.T) {
	g := graph.New()
	prev := g.AddNode("n0", map[string]string{"t": "start"})
	colors := []string{"a", "b", "c", "d"}
	for i := 1; i <= 12; i++ {
		attrs := map[string]string{}
		if i == 12 {
			attrs["t"] = "end"
		}
		next := g.AddNode(fmt.Sprintf("n%d", i), attrs)
		g.AddEdge(prev, next, colors[(i-1)%4])
		prev = next
	}
	q := pattern.New()
	u := q.AddNode("U", predicate.MustParse("t = start"))
	w := q.AddNode("W", predicate.MustParse("t = end"))
	q.AddEdge(u, w, rex.MustParse("a b c d a b c d a b c d"))
	res := assertAgree(t, g, q)
	if res.Empty() {
		t.Fatal("the 12-atom chain matches the 12-edge path exactly")
	}
}
