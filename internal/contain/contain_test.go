package contain_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"regraph/internal/contain"
	"regraph/internal/dist"
	"regraph/internal/graph"
	"regraph/internal/pattern"
	"regraph/internal/predicate"
	"regraph/internal/reach"
	"regraph/internal/rex"
)

func rq(from, to, expr string) reach.Query {
	return reach.New(predicate.MustParse(from), predicate.MustParse(to), rex.MustParse(expr))
}

func TestRQContains(t *testing.T) {
	tests := []struct {
		q1, q2 reach.Query
		want   bool
	}{
		{rq("job = doctor", "job = nurse", "a"), rq("job = doctor", "job = nurse", "a{2}"), true},
		{rq("job = doctor", "job = nurse", "a{2}"), rq("job = doctor", "job = nurse", "a"), false},
		{rq("job = doctor, age > 5", "*", "a"), rq("job = doctor", "*", "a"), true},
		{rq("job = doctor", "*", "a"), rq("job = doctor, age > 5", "*", "a"), false},
		{rq("a = 1", "b = 2", "x y"), rq("a = 1", "b = 2", "_ _"), true},
		{rq("a = 1", "b = 2", "x"), rq("a = 1", "b = 2", "y"), false},
	}
	for i, tc := range tests {
		if got := contain.RQContains(tc.q1, tc.q2); got != tc.want {
			t.Errorf("case %d: RQContains = %v, want %v", i, got, tc.want)
		}
	}
	if !contain.RQEquivalent(rq("a = 1", "*", "x{2} x{2}"), rq("a = 1", "*", "x x{3}")) {
		t.Error("language-equivalent RQs should be equivalent")
	}
}

// fig3 builds the three pattern queries of Fig. 3 with h1 ⊆ h2 ⊆ h3
// realized as a ⊆ a{2} ⊆ a{3}. All B nodes share one predicate, all C
// nodes another.
func fig3() (q1, q2, q3 *pattern.Query) {
	bPred := predicate.MustParse("t = b")
	cPred := predicate.MustParse("t = c")
	h1, h2, h3 := rex.MustParse("a"), rex.MustParse("a{2}"), rex.MustParse("a{3}")

	q1 = pattern.New()
	b1 := q1.AddNode("B1", bPred)
	q1.AddEdge(b1, q1.AddNode("C1", cPred), h1)
	q1.AddEdge(b1, q1.AddNode("C2", cPred), h2)
	q1.AddEdge(b1, q1.AddNode("C3", cPred), h3)

	q2 = pattern.New()
	b2 := q2.AddNode("B2", bPred)
	q2.AddEdge(b2, q2.AddNode("C4", cPred), h1)

	q3 = pattern.New()
	b3 := q3.AddNode("B3", bPred)
	q3.AddEdge(b3, q3.AddNode("C5", cPred), h1)
	q3.AddEdge(b3, q3.AddNode("C6", cPred), h3)
	return
}

// TestFig3Containment reproduces Example 3.1: Q2 ⊑ Q1, Q2 ⊑ Q3, Q3 ⊑ Q1,
// Q1 ⊑ Q3 (hence Q1 ≡ Q3), and the converses that must fail.
func TestFig3Containment(t *testing.T) {
	q1, q2, q3 := fig3()
	cases := []struct {
		name string
		a, b *pattern.Query
		want bool
	}{
		{"Q2 in Q1", q2, q1, true},
		{"Q2 in Q3", q2, q3, true},
		{"Q3 in Q1", q3, q1, true},
		{"Q1 in Q3", q1, q3, true},
		{"Q1 in Q2", q1, q2, false},
		{"Q3 in Q2", q3, q2, false},
	}
	for _, tc := range cases {
		if got := contain.Contains(tc.a, tc.b); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, got, tc.want)
		}
	}
	if !contain.Equivalent(q1, q3) {
		t.Error("Q1 ≡ Q3 expected (Example 3.1)")
	}
	if contain.Equivalent(q1, q2) {
		t.Error("Q1 ≡ Q2 must not hold")
	}
}

// TestFig3Similarity reproduces Example 3.2: Q1 E Q2 via the relation
// {(B1,B2), (Ci,C4)}.
func TestFig3Similarity(t *testing.T) {
	q1, q2, _ := fig3()
	if !contain.Similar(q1, q2) {
		t.Error("Q1 E Q2 expected (Example 3.2)")
	}
	if contain.Similar(q2, q1) {
		// Q2 E Q1 would mean Q1 ⊑ Q2, refuted above.
		t.Error("Q2 E Q1 must not hold")
	}
}

func TestContainsMappingWitness(t *testing.T) {
	q1, _, q3 := fig3()
	lambda, ok := contain.ContainsMapping(q1, q3)
	if !ok {
		t.Fatal("Q1 ⊑ Q3 should produce a mapping")
	}
	if len(lambda) != q1.NumEdges() {
		t.Fatalf("mapping covers %d edges, want %d", len(lambda), q1.NumEdges())
	}
	// Every Q1 edge must map to a Q3 edge with a containing language.
	for ei, ej := range lambda {
		if !rex.Contains(q1.Edge(ei).Expr, q3.Edge(ej).Expr) {
			t.Errorf("edge %d maps to %d but languages are not contained", ei, ej)
		}
	}
	if _, ok := contain.ContainsMapping(q1, fig3q2()); ok {
		t.Error("Q1 ⊑ Q2 must not produce a mapping")
	}
}

func fig3q2() *pattern.Query {
	_, q2, _ := fig3()
	return q2
}

// ---- semantic validation of containment ------------------------------------

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

// TestContainmentIsSemanticallySound: whenever Contains(Q1, Q2) holds with
// witness mapping λ, then on random graphs Se ⊆ S_λ(e) for every Q1 edge.
func TestContainmentIsSemanticallySound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q1 := randomPattern(r)
		q2 := randomPattern(r)
		lambda, ok := contain.ContainsMapping(q1, q2)
		if !ok {
			return true
		}
		for trial := 0; trial < 3; trial++ {
			g := randomAttrGraph(r, 2+r.Intn(8), 1+r.Intn(18))
			mx := dist.NewMatrix(g)
			r1 := pattern.JoinMatch(g, q1, pattern.Options{Backend: mx})
			if r1.Empty() {
				continue
			}
			r2 := pattern.JoinMatch(g, q2, pattern.Options{Backend: mx})
			for ei := 0; ei < q1.NumEdges(); ei++ {
				pairs2 := map[reach.Pair]bool{}
				for _, p := range r2.EdgePairs(lambda[ei]) {
					pairs2[p] = true
				}
				for _, p := range r1.EdgePairs(ei) {
					if !pairs2[p] {
						t.Logf("seed %d: pair %v of Q1 edge %d missing from Q2 edge %d\nQ1 %v\nQ2 %v",
							seed, p, ei, lambda[ei], q1, q2)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestContainsPreorder: containment is reflexive and transitive.
func TestContainsPreorder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	qs := make([]*pattern.Query, 8)
	for i := range qs {
		qs[i] = randomPattern(r)
	}
	for _, q := range qs {
		if !contain.Contains(q, q) {
			t.Fatalf("containment not reflexive for %v", q)
		}
	}
	for _, a := range qs {
		for _, b := range qs {
			for _, c := range qs {
				if contain.Contains(a, b) && contain.Contains(b, c) && !contain.Contains(a, c) {
					t.Fatalf("transitivity violated")
				}
			}
		}
	}
}

// ---- minimization -----------------------------------------------------------

// TestMinimizeMergesEquivalentSiblings: two simulation-equivalent children
// collapse into one.
func TestMinimizeMergesEquivalentSiblings(t *testing.T) {
	q := pattern.New()
	root := q.AddNode("R", predicate.MustParse("t = r"))
	c1 := q.AddNode("C1", predicate.MustParse("t = c"))
	c2 := q.AddNode("C2", predicate.MustParse("t = c"))
	q.AddEdge(root, c1, rex.MustParse("a"))
	q.AddEdge(root, c2, rex.MustParse("a"))
	m := contain.Minimize(q)
	if m.NumNodes() != 2 || m.NumEdges() != 1 {
		t.Errorf("minimized to %d nodes, %d edges; want 2 and 1\n%v", m.NumNodes(), m.NumEdges(), m)
	}
	if !contain.Equivalent(m, q) {
		t.Error("minimized query must stay equivalent")
	}
}

// TestMinimizeRemovesSandwichedEdge: with L(h1) ⊆ L(h2) ⊆ L(h3) between
// the same class pair, the middle edge goes away.
func TestMinimizeRemovesSandwichedEdge(t *testing.T) {
	q1, _, q3 := fig3()
	m := contain.Minimize(q1)
	if !contain.Equivalent(m, q1) {
		t.Fatal("minimized Q1 must stay equivalent")
	}
	if m.Size() > q3.Size() {
		t.Errorf("minimized Q1 has size %d; the equivalent Q3 has size %d", m.Size(), q3.Size())
	}
	if m.Size() >= q1.Size() {
		t.Errorf("minimization did not shrink Q1 (size %d -> %d)", q1.Size(), m.Size())
	}
}

// TestMinimizeChainUnchanged: an already-minimal chain must stay intact.
func TestMinimizeChainUnchanged(t *testing.T) {
	q := pattern.New()
	a := q.AddNode("A", predicate.MustParse("t = 0"))
	b := q.AddNode("B", predicate.MustParse("t = 1"))
	c := q.AddNode("C", predicate.MustParse("t = 2"))
	q.AddEdge(a, b, rex.MustParse("x"))
	q.AddEdge(b, c, rex.MustParse("y"))
	m := contain.Minimize(q)
	if m.Size() != q.Size() {
		t.Errorf("minimal chain changed size: %d -> %d", q.Size(), m.Size())
	}
	if !contain.Equivalent(m, q) {
		t.Error("must stay equivalent")
	}
}

// TestMinimizeProperties: on random patterns, minimization preserves
// equivalence, never grows the query, and is idempotent in size.
func TestMinimizeProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := randomPattern(r)
		m := contain.Minimize(q)
		if !contain.Equivalent(m, q) {
			t.Logf("seed %d: equivalence lost\nq: %v\nm: %v", seed, q, m)
			return false
		}
		if m.Size() > q.Size() {
			t.Logf("seed %d: grew from %d to %d", seed, q.Size(), m.Size())
			return false
		}
		m2 := contain.Minimize(m)
		if m2.Size() > m.Size() {
			t.Logf("seed %d: second pass grew: %d -> %d", seed, m.Size(), m2.Size())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestMinimizePreservesAnswers: the minimized query computes the same
// per-node match sets on concrete graphs (for the nodes it retains).
func TestMinimizePreservesAnswers(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := randomPattern(r)
		m := contain.Minimize(q)
		g := randomAttrGraph(r, 2+r.Intn(8), 1+r.Intn(16))
		mx := dist.NewMatrix(g)
		rq := pattern.JoinMatch(g, q, pattern.Options{Backend: mx})
		rm := pattern.JoinMatch(g, m, pattern.Options{Backend: mx})
		if rq.Empty() != rm.Empty() {
			t.Logf("seed %d: emptiness differs (q %v, m %v)\nq %v\nm %v", seed, rq.Empty(), rm.Empty(), q, m)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestSimulationEquivalentNodes(t *testing.T) {
	q := pattern.New()
	q.AddNode("A1", predicate.MustParse("t = a"))
	q.AddNode("A2", predicate.MustParse("t = a"))
	q.AddNode("B", predicate.MustParse("t = b"))
	classes := contain.SimulationEquivalentNodes(q)
	if len(classes) != 2 {
		t.Fatalf("got %d classes, want 2 (A1 A2 merge)", len(classes))
	}
	if len(classes[0]) != 2 {
		t.Errorf("first class = %v, want the two A nodes", classes[0])
	}
}

func TestMinimizeEdgeless(t *testing.T) {
	q := pattern.New()
	q.AddNode("A1", predicate.MustParse("t = a"))
	q.AddNode("A2", predicate.MustParse("t = a"))
	m := contain.Minimize(q)
	if m.NumNodes() != 1 {
		t.Errorf("edgeless equivalent nodes should merge; got %d nodes", m.NumNodes())
	}
	empty := pattern.New()
	if got := contain.Minimize(empty); got.NumNodes() != 0 {
		t.Error("empty query should minimize to itself")
	}
}
