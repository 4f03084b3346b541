package bench

import (
	"fmt"

	"regraph/internal/contain"
	"regraph/internal/dist"
	"regraph/internal/gen"
	"regraph/internal/pattern"
)

// redundantQuery builds the Exp-2 workload: a meaningful base query
// inflated with duplicated nodes and edges up to the target size. This
// mirrors the paper's observation that larger generated queries carry more
// redundancy, which is what minimization removes.
func (e *Env) redundantQuery(vp, ep int, seedOffset int64) *pattern.Query {
	g, _, _ := e.YouTube()
	r := e.Rand(seedOffset)
	baseNodes := vp * 2 / 3
	if baseNodes < 2 {
		baseNodes = 2
	}
	baseEdges := ep * 2 / 3
	if baseEdges < baseNodes-1 {
		baseEdges = baseNodes - 1
	}
	q := gen.Query(g, gen.Spec{
		Nodes: baseNodes, Edges: baseEdges, Preds: 3, Bound: 5, Colors: 2 + r.Intn(3),
	}, r)
	// Duplicate random nodes (with their outgoing edges) until |Vp| is
	// reached; the duplicates are simulation equivalent by construction.
	for q.NumNodes() < vp {
		src := r.Intn(q.NumNodes())
		n := q.Node(src)
		dup := q.AddNode(fmt.Sprintf("%s'dup%d", n.Name, q.NumNodes()), n.Pred)
		for _, ei := range q.Out(src) {
			edge := q.Edge(ei)
			to := edge.To
			if to == src {
				to = dup
			}
			q.AddEdge(dup, to, edge.Expr)
			if q.NumEdges() >= ep {
				break
			}
		}
	}
	// Duplicate random edges until |Ep| is reached.
	for q.NumEdges() < ep {
		edge := q.Edge(r.Intn(q.NumEdges()))
		q.AddEdge(edge.From, edge.To, edge.Expr)
	}
	return q
}

// Fig10a measures PQ evaluation time with and without minimization
// (Exp-2). The paper's shape: minimized queries evaluate roughly twice as
// fast at the larger sizes, and minimization itself is instantaneous.
func Fig10a(e *Env) *Table {
	t := &Table{
		ID:     "Fig. 10(a)",
		Title:  "effectiveness of PQ minimization (YouTube)",
		XLabel: "(|Vp|,|Ep|)",
		Unit:   "s",
		Series: []string{"Normal", "Minimized", "MinSize"},
	}
	g, mx, _ := e.YouTube()
	sweep := []struct{ vp, ep int }{{4, 6}, {6, 8}, {8, 12}, {10, 15}, {12, 18}}
	for i, pt := range sweep {
		var normal, minimized, minSize float64
		for k := 0; k < e.Cfg.QueriesPerPoint; k++ {
			q := e.redundantQuery(pt.vp, pt.ep, int64(i*100+k))
			m := contain.Minimize(q)
			normal += timeIt(func() { pattern.JoinMatch(g, q, pattern.Options{Backend: mx}) })
			minimized += timeIt(func() { pattern.JoinMatch(g, m, pattern.Options{Backend: mx}) })
			minSize += float64(m.Size())
		}
		n := float64(e.Cfg.QueriesPerPoint)
		t.Add(fmt.Sprintf("(%d,%d)", pt.vp, pt.ep), map[string]float64{
			"Normal": normal / n, "Minimized": minimized / n, "MinSize": minSize / n,
		})
	}
	t.Notes = append(t.Notes,
		"MinSize = average |Vp|+|Ep| after minPQs (input size is the row label)")
	return t
}

// Fig10b compares the three RQ evaluation methods (Exp-3): the distance
// matrix (DM), plain forward BFS, and bi-directional BFS with the LRU
// cache. Sweeps the number of distinct colors c in the expression
// c1{5} ... cc{5}. The paper's shape: DM is fastest; Bi-BFS beats BFS and
// scales better with c.
func Fig10b(e *Env) *Table {
	t := &Table{
		ID:     "Fig. 10(b)",
		Title:  "RQ evaluation methods (YouTube)",
		XLabel: "#colors",
		Unit:   "s",
		Series: []string{"DM", "BFS", "Bi-BFS"},
	}
	g, mx, _ := e.YouTube()
	ca := dist.NewCache(g, e.Cfg.CacheSize)
	for colors := 1; colors <= 4; colors++ {
		r := e.Rand(int64(3000 + colors))
		var dm, bfs, bibfs float64
		for k := 0; k < e.Cfg.QueriesPerPoint; k++ {
			q := gen.RQ(g, 3, 5, colors, r)
			dm += timeIt(func() { q.EvalBackend(g, mx) })
			bfs += timeIt(func() { q.EvalBFS(g) })
			bibfs += timeIt(func() { q.EvalBackend(g, ca) })
		}
		n := float64(e.Cfg.QueriesPerPoint)
		t.Add(fmt.Sprint(colors), map[string]float64{
			"DM": dm / n, "BFS": bfs / n, "Bi-BFS": bibfs / n,
		})
	}
	return t
}
