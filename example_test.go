package regraph_test

import (
	"context"
	"fmt"
	"sort"

	"regraph"
)

// The package-level example: the paper's Fig. 1 reachability query Q1
// (Example 2.2), evaluated with the precomputed distance matrix.
func Example() {
	g := regraph.Essembly()
	mx := regraph.NewMatrix(g)

	q := regraph.RQ{
		From: regraph.MustPredicate("job = biologist, sp = cloning"),
		To:   regraph.MustPredicate("job = doctor"),
		Expr: regraph.MustRegex("fa{2} fn"),
	}
	for _, p := range q.EvalBackend(g, mx) {
		fmt.Println(g.Node(p.From).Name, "->", g.Node(p.To).Name)
	}
	// Output:
	// C1 -> B1
	// C1 -> B2
	// C2 -> B1
	// C2 -> B2
}

// A pattern query under the revised graph simulation: Alice's doctor
// friends-nemeses and the biologists against them (a fragment of the
// paper's Q2).
func ExampleJoinMatch() {
	g := regraph.Essembly()
	q := regraph.NewPQ()
	c := q.AddNode("C", regraph.MustPredicate("job = biologist"))
	b := q.AddNode("B", regraph.MustPredicate("job = doctor"))
	d := q.AddNode("D", regraph.MustPredicate("uid = Alice001"))
	q.AddEdge(c, b, regraph.MustRegex("fn"))
	q.AddEdge(b, d, regraph.MustRegex("fn"))

	res := regraph.JoinMatch(g, q, regraph.EvalOptions{})
	fmt.Print(res.String(g))
	// Output:
	// (C,B): {(C3,B1), (C3,B2)}
	// (B,D): {(B1,D1), (B2,D1)}
}

// Minimization merges simulation-equivalent pattern nodes and removes
// redundant edges (algorithm minPQs, Theorem 3.4).
func ExampleMinimize() {
	q := regraph.NewPQ()
	root := q.AddNode("R", regraph.MustPredicate("t = r"))
	c1 := q.AddNode("C1", regraph.MustPredicate("t = c"))
	c2 := q.AddNode("C2", regraph.MustPredicate("t = c"))
	q.AddEdge(root, c1, regraph.MustRegex("a"))
	q.AddEdge(root, c2, regraph.MustRegex("a"))

	m := regraph.Minimize(q)
	fmt.Println("size:", q.Size(), "->", m.Size())
	fmt.Println("equivalent:", regraph.PQEquivalent(q, m))
	// Output:
	// size: 5 -> 3
	// equivalent: true
}

// Containment of pattern queries is decided in cubic time through the
// revised graph similarity (Lemma 3.1): a one-edge pattern with a weaker
// expression contains a stricter one.
func ExamplePQContains() {
	strict := regraph.NewPQ()
	a := strict.AddNode("A", regraph.MustPredicate("t = x"))
	b := strict.AddNode("B", regraph.MustPredicate("t = y"))
	strict.AddEdge(a, b, regraph.MustRegex("e"))

	loose := regraph.NewPQ()
	a2 := loose.AddNode("A", regraph.MustPredicate("t = x"))
	b2 := loose.AddNode("B", regraph.MustPredicate("t = y"))
	loose.AddEdge(a2, b2, regraph.MustRegex("e{3}"))

	fmt.Println(regraph.PQContains(strict, loose))
	fmt.Println(regraph.PQContains(loose, strict))
	// Output:
	// true
	// false
}

// A resident engine owns the graph plus one shared distance structure
// and evaluates whole batches concurrently across its worker pool; each
// worker reuses a private scratch arena, so a long-running engine stops
// allocating per query.
func ExampleEngine_RunBatch() {
	g := regraph.Essembly()
	eng := regraph.MustEngine(g, regraph.EngineOptions{Workers: 2})

	q1 := regraph.RQ{
		From: regraph.MustPredicate("job = biologist, sp = cloning"),
		To:   regraph.MustPredicate("job = doctor"),
		Expr: regraph.MustRegex("fa{2} fn"),
	}
	q2 := regraph.RQ{
		From: regraph.MustPredicate("job = biologist"),
		To:   regraph.MustPredicate("job = doctor"),
		Expr: regraph.MustRegex("fn"),
	}
	for i, res := range eng.RunBatch([]regraph.BatchRequest{{RQ: &q1}, {RQ: &q2}}) {
		fmt.Printf("query %d: %d pairs\n", i, len(res.Pairs))
	}
	// Output:
	// query 0: 4 pairs
	// query 1: 2 pairs
}

// A streaming session: requests are admitted one at a time under an
// in-flight bound (Submit blocks when it is reached — back-pressure),
// answers stream out in completion order tagged with request ids, and
// cancelling the context would stop in-flight evaluation at the
// evaluators' checkpoints. Results arrive in completion order; sort by
// ID to restore submission order.
func ExampleEngine_Open() {
	g := regraph.Essembly()
	eng := regraph.MustEngine(g, regraph.EngineOptions{Workers: 2})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := eng.Open(ctx, regraph.SessionOptions{MaxInFlight: 4})

	queries := []regraph.RQ{
		{
			From: regraph.MustPredicate("job = biologist, sp = cloning"),
			To:   regraph.MustPredicate("job = doctor"),
			Expr: regraph.MustRegex("fa{2} fn"),
		},
		{
			From: regraph.MustPredicate("job = biologist"),
			To:   regraph.MustPredicate("job = doctor"),
			Expr: regraph.MustRegex("fn"),
		},
	}
	go func() {
		for i := range queries {
			if _, err := s.Submit(ctx, regraph.BatchRequest{RQ: &queries[i]}); err != nil {
				return
			}
		}
		s.Close() // stop admission; Results closes once drained
	}()

	var results []regraph.BatchResult
	for r := range s.Results() {
		results = append(results, r)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].ID < results[j].ID })
	for _, r := range results {
		fmt.Printf("query %d: %d pairs\n", r.ID, len(r.Pairs))
	}
	// Output:
	// query 0: 4 pairs
	// query 1: 2 pairs
}

// Submitting with an Emit callback streams the answer pairs from the
// evaluating worker instead of materializing a slice: the session then
// holds no answer memory for the request at all, and Stats exposes the
// serving counters.
func ExampleSession_Submit() {
	g := regraph.Essembly()
	eng := regraph.MustEngine(g, regraph.EngineOptions{Workers: 1})
	s := eng.Open(context.Background(), regraph.SessionOptions{MaxInFlight: 1})

	q := regraph.RQ{
		From: regraph.MustPredicate("job = biologist"),
		To:   regraph.MustPredicate("job = doctor"),
		Expr: regraph.MustRegex("fn"),
	}
	pairs := 0
	id, err := s.Submit(context.Background(), regraph.BatchRequest{
		RQ:   &q,
		Emit: func(regraph.Pair) bool { pairs++; return true },
	})
	if err != nil {
		panic(err)
	}
	go s.Close()
	r := <-s.Results()
	fmt.Printf("request %d == result %d, streamed %d pairs, materialized %d\n",
		id, r.ID, pairs, len(r.Pairs))
	st := s.Stats()
	fmt.Printf("submitted %d, completed %d, cancelled %d\n",
		st.Submitted, st.Completed, st.Cancelled)
	// Output:
	// request 0 == result 0, streamed 2 pairs, materialized 0
	// submitted 1, completed 1, cancelled 0
}

// The scratch-accepting closure API: push a compiled expression forward
// from a source set without allocating, reusing one arena across calls.
// The result is owned by the arena — copy it before the next call if it
// must be retained.
func ExampleForwardClosureScratch() {
	g := regraph.Essembly()
	atoms, ok := regraph.CompileRegex(g, regraph.MustRegex("fa{2} fn"))
	if !ok {
		panic("expression mentions a color absent from the graph")
	}
	s := regraph.NewScratch()
	src := make([]bool, g.NumNodes())
	c1, _ := g.NodeByName("C1")
	src[c1] = true

	reached := regraph.ForwardClosureScratch(g, src, atoms, s)
	for v, in := range reached {
		if in {
			fmt.Println(g.Node(regraph.NodeID(v)).Name)
		}
	}
	// Output:
	// B1
	// B2
}

// The attribute inverted index answers "which nodes match this
// predicate?" by binary search over sorted posting columns instead of
// scanning every node, and a memo layered on it caches repeated
// predicates until the graph mutates. The engine builds and shares one
// automatically; standalone evaluation can pass either explicitly.
func ExampleNewCandidateIndex() {
	g := regraph.Essembly()
	ix := regraph.NewCandidateIndex(g)

	doctors := ix.Candidates(regraph.MustPredicate("job = doctor"))
	for _, v := range doctors {
		fmt.Println(g.Node(v).Name)
	}

	// The same index accelerates a full query evaluation.
	q := regraph.RQ{
		From: regraph.MustPredicate("job = biologist, sp = cloning"),
		To:   regraph.MustPredicate("job = doctor"),
		Expr: regraph.MustRegex("fa{2} fn"),
	}
	mx := regraph.NewMatrix(g)
	fmt.Printf("%d pairs\n", len(q.EvalBackendScratchWith(g, mx, regraph.NewScratch(), ix)))
	// Output:
	// B1
	// B2
	// 4 pairs
}

// A CandidateMemo tracks the graph's mutation epoch: cached candidate
// sets are retired the moment the graph changes, so mutate-then-query
// always sees fresh answers.
func ExampleNewCandidateMemo() {
	g := regraph.NewGraph()
	g.AddNode("ann", map[string]string{"job": "doctor"})
	g.AddNode("bob", map[string]string{"job": "nurse"})
	memo := regraph.NewCandidateMemo(g)

	p := regraph.MustPredicate("job = doctor")
	fmt.Println(len(memo.Candidates(p)))

	g.AddNode("cal", map[string]string{"job": "doctor"}) // bumps g.Epoch()
	fmt.Println(len(memo.Candidates(p)))
	// Output:
	// 1
	// 2
}
