// Quickstart: build a small typed graph, run a reachability query and a
// pattern query, and minimize a redundant pattern.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"regraph"
)

func main() {
	// A little collaboration network: edges are typed "works_with" (w) or
	// "advises" (a).
	g := regraph.NewGraph()
	ann := g.AddNode("ann", map[string]string{"role": "professor", "field": "db"})
	bob := g.AddNode("bob", map[string]string{"role": "phd", "field": "db"})
	cho := g.AddNode("cho", map[string]string{"role": "phd", "field": "ml"})
	dee := g.AddNode("dee", map[string]string{"role": "engineer", "field": "db"})
	g.AddEdge(ann, bob, "a")
	g.AddEdge(ann, cho, "a")
	g.AddEdge(bob, dee, "w")
	g.AddEdge(cho, dee, "w")
	g.AddEdge(dee, bob, "w")

	// Reachability query: professors connected to engineers by one advice
	// edge followed by at most two works-with edges.
	q := regraph.RQ{
		From: regraph.MustPredicate("role = professor"),
		To:   regraph.MustPredicate("role = engineer"),
		Expr: regraph.MustRegex("a w{2}"),
	}
	fmt.Println("reachability:", q)
	for _, p := range q.EvalBFS(g) {
		fmt.Printf("  %s -> %s\n", g.Node(p.From).Name, g.Node(p.To).Name)
	}

	// Pattern query: a professor advising a DB student who works with an
	// engineer — matched by graph simulation, so one pattern node may
	// match many data nodes.
	pq := regraph.NewPQ()
	prof := pq.AddNode("Prof", regraph.MustPredicate("role = professor"))
	stud := pq.AddNode("Stud", regraph.MustPredicate("role = phd, field = db"))
	eng := pq.AddNode("Eng", regraph.MustPredicate("role = engineer"))
	pq.AddEdge(prof, stud, regraph.MustRegex("a"))
	pq.AddEdge(stud, eng, regraph.MustRegex("w+"))

	mx := regraph.NewMatrix(g) // precomputed index, shared across queries
	res := regraph.JoinMatch(g, pq, regraph.EvalOptions{Backend: mx})
	fmt.Println("pattern matches:")
	fmt.Print(res.String(g))

	// Static analysis: a pattern with two interchangeable student nodes
	// minimizes to the one above.
	big := regraph.NewPQ()
	p2 := big.AddNode("Prof", regraph.MustPredicate("role = professor"))
	s1 := big.AddNode("S1", regraph.MustPredicate("role = phd, field = db"))
	s2 := big.AddNode("S2", regraph.MustPredicate("role = phd, field = db"))
	e2 := big.AddNode("Eng", regraph.MustPredicate("role = engineer"))
	big.AddEdge(p2, s1, regraph.MustRegex("a"))
	big.AddEdge(p2, s2, regraph.MustRegex("a"))
	big.AddEdge(s1, e2, regraph.MustRegex("w+"))
	big.AddEdge(s2, e2, regraph.MustRegex("w+"))
	min := regraph.Minimize(big)
	fmt.Printf("minimization: size %d -> %d, equivalent: %v\n",
		big.Size(), min.Size(), regraph.PQEquivalent(big, min))
}
