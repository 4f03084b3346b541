// Terror: intelligence-analysis queries over the terrorist-organization
// collaboration network (the paper's second real-life dataset, Exp-1).
// Shows a multi-hop regex pattern centered on one organization and
// compares the answer against the bounded-simulation baseline, which
// ignores collaboration types and therefore over-matches.
//
//	go run ./examples/terror
package main

import (
	"fmt"

	"regraph"
)

func main() {
	g := regraph.TerrorGraph(1)
	fmt.Printf("terror network: %d organizations, %d collaboration edges\n\n",
		g.NumNodes(), g.NumEdges())
	mx := regraph.NewMatrix(g)

	// Organizations attacking business targets by armed assault that are
	// connected to Hamas through up to two international collaborations
	// followed by a chain of domestic ones (the paper's Q2 style:
	// ic{2} dc+).
	q := regraph.NewPQ()
	a := q.AddNode("A", regraph.MustPredicate(`at = "Armed Assault", tt = Business`))
	h := q.AddNode("Hamas", regraph.MustPredicate("gn = Hamas"))
	d := q.AddNode("D", regraph.MustPredicate(`tt = "Private Citizens & Property"`))
	q.AddEdge(a, h, regraph.MustRegex("ic{2} dc+"))
	q.AddEdge(h, d, regraph.MustRegex("ic{2} dc+"))

	res := regraph.JoinMatch(g, q, regraph.EvalOptions{Backend: mx})
	if res.Empty() {
		fmt.Println("no organizations satisfy the pattern")
		return
	}
	aIdx, _ := q.NodeIndex("A")
	dIdx, _ := q.NodeIndex("D")
	fmt.Printf("organizations reaching Hamas via ic{2} dc+: %d\n", len(res.MatchSet(aIdx)))
	for i, v := range res.MatchSet(aIdx) {
		if i == 5 {
			fmt.Println("  ...")
			break
		}
		at := g.Attrs(v)
		fmt.Printf("  %s (country %s)\n", g.Node(v).Name, at["country"])
	}
	fmt.Printf("organizations Hamas reaches via ic{2} dc+: %d\n", len(res.MatchSet(dIdx)))

	// The reachability-query view of the same question, evaluated three
	// ways; all agree.
	rq := regraph.RQ{
		From: regraph.MustPredicate(`at = "Armed Assault", tt = Business`),
		To:   regraph.MustPredicate("gn = Hamas"),
		Expr: regraph.MustRegex("ic{2} dc+"),
	}
	dm := rq.EvalBackend(g, mx)
	bfs := rq.EvalBFS(g)
	cached := rq.EvalBackend(g, regraph.NewCache(g, 4096))
	fmt.Printf("\nRQ answers: matrix=%d, bfs=%d, cache=%d pairs\n", len(dm), len(bfs), len(cached))

	// What a type-blind query would claim: replace the expressions by
	// plain "within k hops" (bounded simulation). Every regex match
	// remains a match, but untyped chains sneak in — the paper's
	// precision argument.
	blind := regraph.NewPQ()
	a2 := blind.AddNode("A", regraph.MustPredicate(`at = "Armed Assault", tt = Business`))
	h2 := blind.AddNode("Hamas", regraph.MustPredicate("gn = Hamas"))
	d2 := blind.AddNode("D", regraph.MustPredicate(`tt = "Private Citizens & Property"`))
	blind.AddEdge(a2, h2, regraph.MustRegex("_+"))
	blind.AddEdge(h2, d2, regraph.MustRegex("_+"))
	blindRes := regraph.JoinMatch(g, blind, regraph.EvalOptions{Backend: mx})
	fmt.Printf("type-blind pattern matches %d source organizations (regex-aware: %d)\n",
		len(blindRes.MatchSet(a2)), len(res.MatchSet(aIdx)))
}
