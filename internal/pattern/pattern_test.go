package pattern_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"regraph/internal/dist"
	"regraph/internal/gen"
	"regraph/internal/graph"
	"regraph/internal/pattern"
	"regraph/internal/predicate"
	"regraph/internal/reach"
	"regraph/internal/rex"
)

// essemblyQ2 builds the pattern query Q2 of Fig. 1: Alice (D) with her
// doctor friends-nemeses (B) and cloning-supporting biologists (C).
func essemblyQ2() *pattern.Query {
	q := pattern.New()
	b := q.AddNode("B", predicate.MustParse("job = doctor, dsp = cloning"))
	c := q.AddNode("C", predicate.MustParse("job = biologist, sp = cloning"))
	d := q.AddNode("D", predicate.MustParse("uid = Alice001"))
	q.AddEdge(b, c, rex.MustParse("sn"))
	q.AddEdge(b, d, rex.MustParse("fn"))
	q.AddEdge(c, b, rex.MustParse("fn"))
	q.AddEdge(c, c, rex.MustParse("fa{3}"))
	q.AddEdge(c, d, rex.MustParse("fa{2} sa{2}"))
	return q
}

// backendTable is the backend input of the cross-checks: every
// algorithm must give the same answer whichever backend serves its
// single-atom checks, or none.
func backendTable(g *graph.Graph) []struct {
	name string
	be   dist.Backend
} {
	return []struct {
		name string
		be   dist.Backend
	}{
		{"none", nil},
		{"matrix", dist.NewMatrix(g)},
		{"cache", dist.NewCache(g, 256)},
		{"twohop", dist.NewTwoHop(g)},
	}
}

// TestExample23 reproduces the paper's Example 2.3: the exact answer table
// for Q2 over the Fig. 1 graph, under both algorithms on every backend.
func TestExample23(t *testing.T) {
	g := gen.Essembly()
	q := essemblyQ2()

	want := map[string]string{
		"(B,C)": "{(B1,C3), (B2,C3)}",
		"(B,D)": "{(B1,D1), (B2,D1)}",
		"(C,B)": "{(C3,B1), (C3,B2)}",
		"(C,C)": "{(C3,C3)}",
		"(C,D)": "{(C3,D1)}",
	}
	type config struct {
		name string
		res  *pattern.Result
	}
	var configs []config
	for _, b := range backendTable(g) {
		opts := pattern.Options{Backend: b.be}
		configs = append(configs,
			config{"JoinMatch/" + b.name, pattern.JoinMatch(g, q, opts)},
			config{"SplitMatch/" + b.name, pattern.SplitMatch(g, q, opts)})
	}
	for _, cfg := range configs {
		res := cfg.res
		if res.Empty() {
			t.Fatalf("%s: unexpected empty result", cfg.name)
		}
		for ei := 0; ei < q.NumEdges(); ei++ {
			e := q.Edge(ei)
			key := fmt.Sprintf("(%s,%s)", q.Node(e.From).Name, q.Node(e.To).Name)
			got := pairSetString(g, res.EdgePairs(ei))
			if got != want[key] {
				t.Errorf("%s edge %s = %s, want %s", cfg.name, key, got, want[key])
			}
		}
		// Match sets per the example: B -> {B1,B2}, C -> {C3}, D -> {D1}.
		bIdx, _ := q.NodeIndex("B")
		cIdx, _ := q.NodeIndex("C")
		dIdx, _ := q.NodeIndex("D")
		if got := nodeSetString(g, res.MatchSet(bIdx)); got != "[B1 B2]" {
			t.Errorf("%s mat(B) = %s", cfg.name, got)
		}
		if got := nodeSetString(g, res.MatchSet(cIdx)); got != "[C3]" {
			t.Errorf("%s mat(C) = %s", cfg.name, got)
		}
		if got := nodeSetString(g, res.MatchSet(dIdx)); got != "[D1]" {
			t.Errorf("%s mat(D) = %s", cfg.name, got)
		}
	}
}

func pairSetString(g *graph.Graph, pairs []reach.Pair) string {
	ss := make([]string, len(pairs))
	for i, p := range pairs {
		ss[i] = "(" + g.Node(p.From).Name + "," + g.Node(p.To).Name + ")"
	}
	sortStrings(ss)
	out := "{"
	for i, s := range ss {
		if i > 0 {
			out += ", "
		}
		out += s
	}
	return out + "}"
}

func nodeSetString(g *graph.Graph, ids []graph.NodeID) string {
	ss := make([]string, len(ids))
	for i, id := range ids {
		ss[i] = g.Node(id).Name
	}
	sortStrings(ss)
	return fmt.Sprint(ss)
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// TestCyclicPattern exercises a pattern that is itself a cycle (forcing
// the SCC fixpoint iteration).
func TestCyclicPattern(t *testing.T) {
	g := graph.New()
	// Data: a 2-cycle x <-> y plus a dangling z -> x.
	x := g.AddNode("x", map[string]string{"t": "a"})
	y := g.AddNode("y", map[string]string{"t": "b"})
	z := g.AddNode("z", map[string]string{"t": "a"})
	g.AddEdge(x, y, "e")
	g.AddEdge(y, x, "e")
	g.AddEdge(z, x, "e")

	q := pattern.New()
	a := q.AddNode("A", predicate.MustParse("t = a"))
	b := q.AddNode("B", predicate.MustParse("t = b"))
	q.AddEdge(a, b, rex.MustParse("e"))
	q.AddEdge(b, a, rex.MustParse("e"))

	res := pattern.JoinMatch(g, q, pattern.Options{Backend: dist.NewMatrix(g)})
	if res.Empty() {
		t.Fatal("cyclic pattern should match the 2-cycle")
	}
	// z matches "t = a" but has no incoming edge from a B-match, which is
	// fine (only outgoing constraints apply); however z's successor x must
	// be a B-match — it is not (x has t=a), so z must be pruned.
	if got := nodeSetString(g, res.MatchSet(a)); got != "[x]" {
		t.Errorf("mat(A) = %s, want [x]", got)
	}
	if got := nodeSetString(g, res.MatchSet(b)); got != "[y]" {
		t.Errorf("mat(B) = %s, want [y]", got)
	}
}

func TestEmptyWhenNoPath(t *testing.T) {
	g := gen.Essembly()
	q := pattern.New()
	c := q.AddNode("C", predicate.MustParse("job = biologist"))
	h := q.AddNode("H", predicate.MustParse("job = physician"))
	// No biologist reaches the physician via fn edges.
	q.AddEdge(c, h, rex.MustParse("fn"))
	for _, b := range backendTable(g) {
		opts := pattern.Options{Backend: b.be}
		if res := pattern.JoinMatch(g, q, opts); !res.Empty() {
			t.Errorf("%s: expected empty result, got %s", b.name, res.String(g))
		}
		if res := pattern.SplitMatch(g, q, opts); !res.Empty() {
			t.Errorf("%s: SplitMatch should agree on emptiness", b.name)
		}
	}
}

func TestEmptyWhenUnknownColor(t *testing.T) {
	g := gen.Essembly()
	q := pattern.New()
	a := q.AddNode("A", predicate.Pred{})
	b := q.AddNode("B", predicate.Pred{})
	q.AddEdge(a, b, rex.MustParse("nosuchcolor"))
	if res := pattern.JoinMatch(g, q, pattern.Options{}); !res.Empty() {
		t.Error("unknown color should produce the empty answer")
	}
}

func TestEdgelessPattern(t *testing.T) {
	g := gen.Essembly()
	q := pattern.New()
	q.AddNode("A", predicate.Pred{})
	if res := pattern.JoinMatch(g, q, pattern.Options{}); !res.Empty() {
		t.Error("edgeless pattern has no edge sets, hence the empty answer")
	}
}

func TestAsRQ(t *testing.T) {
	q := pattern.New()
	a := q.AddNode("A", predicate.MustParse("job = biologist"))
	b := q.AddNode("B", predicate.MustParse("job = doctor"))
	q.AddEdge(a, b, rex.MustParse("fa{2} fn"))
	rq, ok := q.AsRQ()
	if !ok {
		t.Fatal("two-node one-edge pattern should convert to an RQ")
	}
	g := gen.Essembly()
	mx := dist.NewMatrix(g)
	// The RQ answer must equal the PQ's single edge set.
	res := pattern.JoinMatch(g, q, pattern.Options{Backend: mx})
	rqPairs := rq.EvalBackend(g, mx)
	if res.Empty() && len(rqPairs) > 0 {
		t.Fatal("PQ empty but RQ non-empty")
	}
	if !res.Empty() {
		if pairSetString(g, res.EdgePairs(0)) != pairSetString(g, rqPairs) {
			t.Errorf("PQ edge set %s != RQ answer %s",
				pairSetString(g, res.EdgePairs(0)), pairSetString(g, rqPairs))
		}
	}
	if _, ok := essemblyQ2().AsRQ(); ok {
		t.Error("five-edge pattern must not convert to an RQ")
	}
}

// ---- reference evaluator --------------------------------------------------

// chainMatches reports whether a path from v to w matches the chain, by
// one forward closure from v alone.
func chainMatches(g *graph.Graph, atoms []dist.CAtom, v, w int) bool {
	src := make([]bool, g.NumNodes())
	src[v] = true
	return dist.ForwardClosure(g, src, atoms)[w]
}

// naiveEval computes the PQ semantics directly: a chaotic fixpoint over
// candidate match sets with per-pair forward-closure path checks, then
// pair collection. Used as ground truth for the property tests.
func naiveEval(g *graph.Graph, q *pattern.Query) *pattern.Result {
	n := g.NumNodes()
	atoms := make([][]dist.CAtom, q.NumEdges())
	for ei := 0; ei < q.NumEdges(); ei++ {
		a, ok := dist.Compile(g, q.Edge(ei).Expr)
		if !ok {
			return &pattern.Result{}
		}
		atoms[ei] = a
	}
	mats := make([][]bool, q.NumNodes())
	for u := 0; u < q.NumNodes(); u++ {
		mats[u] = make([]bool, n)
		for v := 0; v < n; v++ {
			mats[u][v] = q.Node(u).Pred.Eval(g.Attrs(graph.NodeID(v)))
		}
	}
	for changed := true; changed; {
		changed = false
		for u := 0; u < q.NumNodes(); u++ {
			for v := 0; v < n; v++ {
				if !mats[u][v] {
					continue
				}
				for _, ei := range q.Out(u) {
					e := q.Edge(ei)
					ok := false
					for w := 0; w < n; w++ {
						if mats[e.To][w] && chainMatches(g, atoms[ei], v, w) {
							ok = true
							break
						}
					}
					if !ok {
						mats[u][v] = false
						changed = true
						break
					}
				}
			}
		}
	}
	for u := 0; u < q.NumNodes(); u++ {
		if len(q.Out(u)) == 0 && len(q.In(u)) == 0 {
			continue // isolated nodes do not influence the per-edge answer
		}
		any := false
		for v := 0; v < n; v++ {
			any = any || mats[u][v]
		}
		if !any {
			return &pattern.Result{}
		}
	}
	res := &pattern.Result{Sets: make([][]reach.Pair, q.NumEdges())}
	for ei := 0; ei < q.NumEdges(); ei++ {
		e := q.Edge(ei)
		var pairs []reach.Pair
		for v := 0; v < n; v++ {
			if !mats[e.From][v] {
				continue
			}
			for w := 0; w < n; w++ {
				if mats[e.To][w] && chainMatches(g, atoms[ei], v, w) {
					pairs = append(pairs, reach.Pair{From: graph.NodeID(v), To: graph.NodeID(w)})
				}
			}
		}
		if len(pairs) == 0 {
			return &pattern.Result{}
		}
		res.Sets[ei] = pairs
	}
	return res
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
	ne := 1 + r.Intn(4)
	colors := []string{"a", "b", "_"}
	for i := 0; i < ne; i++ {
		na := 1 + r.Intn(2)
		atoms := make([]rex.Atom, na)
		for j := range atoms {
			m := 1 + r.Intn(3)
			if r.Intn(6) == 0 {
				m = rex.Unbounded
			}
			atoms[j] = rex.Atom{Color: colors[r.Intn(3)], Max: m}
		}
		q.AddEdge(r.Intn(nn), r.Intn(nn), rex.MustNew(atoms...))
	}
	return q
}

// TestAlgorithmsAgreeWithReference is the central cross-validation:
// both algorithms on every backend must produce exactly the reference
// semantics on random graphs and random patterns (including cycles,
// self-loops, wildcards and unbounded atoms).
func TestAlgorithmsAgreeWithReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomAttrGraph(r, 2+r.Intn(9), 1+r.Intn(22))
		q := randomPattern(r)
		want := naiveEval(g, q)
		for _, b := range backendTable(g) {
			opts := pattern.Options{Backend: b.be}
			for name, got := range map[string]*pattern.Result{
				"JoinMatch":  pattern.JoinMatch(g, q, opts),
				"SplitMatch": pattern.SplitMatch(g, q, opts),
			} {
				if !got.Equal(want) {
					t.Logf("seed %d %s/%s:\npattern %v\ngot  %s\nwant %s", seed, name, b.name, q, got.String(g), want.String(g))
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

// TestResultSize checks the paper's answer-size metric.
func TestResultSize(t *testing.T) {
	g := gen.Essembly()
	res := pattern.JoinMatch(g, essemblyQ2(), pattern.Options{Backend: dist.NewMatrix(g)})
	// 2 + 2 + 2 + 1 + 1 pairs across the five edges.
	if res.Size() != 8 {
		t.Errorf("Size = %d, want 8", res.Size())
	}
	var empty *pattern.Result
	if empty.Size() != 0 || !empty.Empty() {
		t.Error("nil result should be empty with size 0")
	}
}

func TestQueryBuilders(t *testing.T) {
	q := pattern.New()
	q.AddEdgeByName("A", "B", rex.MustParse("x"))
	if q.NumNodes() != 2 || q.NumEdges() != 1 {
		t.Errorf("AddEdgeByName built %d nodes, %d edges", q.NumNodes(), q.NumEdges())
	}
	a := q.AddNode("A", predicate.MustParse("ignored = 1"))
	if got := q.Node(a).Pred.String(); got != "*" {
		t.Errorf("duplicate AddNode must keep the original predicate, got %q", got)
	}
	c := q.Clone()
	if c.Size() != q.Size() || c.String() != q.String() {
		t.Error("Clone should preserve structure")
	}
}
