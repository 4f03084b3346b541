// YouTube: recommendation-network analytics over the YouTube-like dataset
// (the paper's first real-life dataset, Exp-1 Q1). Demonstrates pattern
// queries whose edges distinguish friend recommendations from stranger
// references, query minimization as an optimizer, and the LRU distance
// cache for matrix-free evaluation.
//
//	go run ./examples/youtube
package main

import (
	"fmt"
	"time"

	"regraph"
)

func main() {
	g := regraph.YouTubeGraph(1, 0.25)
	fmt.Printf("video network: %d videos, %d links, types %v\n\n",
		g.NumNodes(), g.NumEdges(), g.Colors())

	t0 := time.Now()
	mx := regraph.NewMatrix(g)
	fmt.Printf("distance matrix built in %v\n\n", time.Since(t0).Round(time.Millisecond))

	// Q1-style pattern: well-commented film videos connected to Davedays
	// uploads through friend references, which in turn lead to popular
	// low-noise videos.
	q := regraph.NewPQ()
	film := q.AddNode("Film", regraph.MustPredicate(`cat = "Film & Animation", com > 20, age > 300`))
	dave := q.AddNode("Dave", regraph.MustPredicate("uid = Davedays"))
	hit := q.AddNode("Hit", regraph.MustPredicate("view > 160000, com < 300"))
	q.AddEdge(film, dave, regraph.MustRegex("fr{5}"))
	q.AddEdge(dave, hit, regraph.MustRegex("fr fc"))

	t0 = time.Now()
	res := regraph.JoinMatch(g, q, regraph.EvalOptions{Backend: mx})
	fmt.Printf("pattern evaluated in %v; %d total matched pairs\n",
		time.Since(t0).Round(time.Millisecond), res.Size())
	for _, u := range []int{film, dave, hit} {
		fmt.Printf("  %-4s matches %d videos\n", q.Node(u).Name, len(res.MatchSet(u)))
	}

	// A deliberately redundant version of the same pattern (duplicated
	// branch), minimized away by minPQs before evaluation.
	redundant := regraph.NewPQ()
	f2 := redundant.AddNode("Film", q.Node(film).Pred)
	d2 := redundant.AddNode("Dave", q.Node(dave).Pred)
	d3 := redundant.AddNode("Dave2", q.Node(dave).Pred)
	h2 := redundant.AddNode("Hit", q.Node(hit).Pred)
	redundant.AddEdge(f2, d2, regraph.MustRegex("fr{5}"))
	redundant.AddEdge(f2, d3, regraph.MustRegex("fr{5}"))
	redundant.AddEdge(d2, h2, regraph.MustRegex("fr fc"))
	redundant.AddEdge(d3, h2, regraph.MustRegex("fr fc"))
	min := regraph.Minimize(redundant)
	fmt.Printf("\nminPQs: redundant pattern size %d -> %d (equivalent: %v)\n",
		redundant.Size(), min.Size(), regraph.PQEquivalent(redundant, min))

	tRed := timeIt(func() { regraph.JoinMatch(g, redundant, regraph.EvalOptions{Backend: mx}) })
	tMin := timeIt(func() { regraph.JoinMatch(g, min, regraph.EvalOptions{Backend: mx}) })
	fmt.Printf("evaluation: %.3fs unminimized vs %.3fs minimized\n", tRed, tMin)

	// Matrix-free evaluation with the LRU distance cache (for graphs too
	// large to hold the matrix), plus its hit statistics.
	ca := regraph.NewCache(g, 1<<14)
	rq := regraph.RQ{
		From: regraph.MustPredicate(`cat = "Film & Animation", com > 20`),
		To:   regraph.MustPredicate("uid = Davedays"),
		Expr: regraph.MustRegex("fr{5}"),
	}
	pairs := rq.EvalBackend(g, ca)
	hits, misses := ca.Stats()
	fmt.Printf("\ncache-mode RQ: %d pairs (cache: %d hits, %d misses)\n", len(pairs), hits, misses)
}

func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}
