// Essembly: the paper's running example (Fig. 1) end to end — the debate
// network G, reachability query Q1 (Example 2.2) and pattern query Q2
// (Example 2.3), with the exact answers the paper reports.
//
//	go run ./examples/essembly
package main

import (
	"fmt"

	"regraph"
)

func main() {
	g := regraph.Essembly()
	fmt.Printf("Fig. 1 network: %d nodes, %d edges, relationship types %v\n\n",
		g.NumNodes(), g.NumEdges(), g.Colors())
	mx := regraph.NewMatrix(g)

	// Q1 (Example 2.2): biologists supporting cloning who reach a doctor
	// via at most two friends-allies edges followed by one friends-nemeses
	// edge. Expected answer: (C1,B1), (C1,B2), (C2,B1), (C2,B2).
	q1 := regraph.RQ{
		From: regraph.MustPredicate("job = biologist, sp = cloning"),
		To:   regraph.MustPredicate("job = doctor"),
		Expr: regraph.MustRegex("fa{2} fn"),
	}
	fmt.Println("Q1:", q1)
	for _, p := range q1.EvalBackend(g, mx) {
		fmt.Printf("  %s -> %s\n", g.Node(p.From).Name, g.Node(p.To).Name)
	}

	// Q2 (Example 2.3): Alice's view of the debate. Five edges; note how
	// the edge (C,D) maps to the path C3 -fa-> C1 -sa-> D1, i.e. a single
	// pattern edge matches a multi-edge path.
	q2 := regraph.NewPQ()
	b := q2.AddNode("B", regraph.MustPredicate("job = doctor, dsp = cloning"))
	c := q2.AddNode("C", regraph.MustPredicate("job = biologist, sp = cloning"))
	d := q2.AddNode("D", regraph.MustPredicate("uid = Alice001"))
	q2.AddEdge(b, c, regraph.MustRegex("sn"))
	q2.AddEdge(b, d, regraph.MustRegex("fn"))
	q2.AddEdge(c, b, regraph.MustRegex("fn"))
	q2.AddEdge(c, c, regraph.MustRegex("fa{3}"))
	q2.AddEdge(c, d, regraph.MustRegex("fa{2} sa{2}"))

	fmt.Println("\nQ2 (pattern, revised graph simulation):")
	res := regraph.JoinMatch(g, q2, regraph.EvalOptions{Backend: mx})
	fmt.Print(res.String(g))

	// The same answer without any precomputed index (bi-directional
	// runtime search), and via the split-based algorithm.
	ca := regraph.NewCache(g, 1024)
	res2 := regraph.SplitMatch(g, q2, regraph.EvalOptions{Backend: ca})
	fmt.Printf("\nSplitMatch (cache mode) agrees: %v\n", res.Equal(res2))

	// Why C1 is not a match for C: there is a path C1 -fa-> C2 -fa-> C1
	// -sa-> D1 satisfying fa{2} sa{2}, but C1 has no fn edge to a doctor,
	// so the simulation prunes it — exactly the paper's point about
	// matching semantics.
	cIdx, _ := q2.NodeIndex("C")
	fmt.Print("mat(C) = ")
	for _, v := range res.MatchSet(cIdx) {
		fmt.Print(g.Node(v).Name, " ")
	}
	fmt.Println()
}
