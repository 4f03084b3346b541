package bench

import (
	"fmt"

	"regraph/internal/baseline"
	"regraph/internal/gen"
	"regraph/internal/pattern"
	"regraph/internal/predicate"
	"regraph/internal/rex"
)

// youtubeQ1 is the real-life PQ Q1 of Fig. 9(a): film videos with many
// comments connected to Davedays uploads and on to popular music videos.
func youtubeQ1() *pattern.Query {
	q := pattern.New()
	a := q.AddNode("A", predicate.MustParse(`cat = "Film & Animation", com > 20, age > 300`))
	b := q.AddNode("B", predicate.MustParse(`uid = Davedays`))
	c := q.AddNode("C", predicate.MustParse(`cat = Music, len > 4, age > 600`))
	d := q.AddNode("D", predicate.MustParse(`view > 160000, com < 300`))
	q.AddEdge(a, b, rex.MustParse("fr{5}"))
	q.AddEdge(b, c, rex.MustParse("sr{6} fr"))
	q.AddEdge(b, d, rex.MustParse("fr fc"))
	q.AddEdge(c, d, rex.MustParse("sr{5} fr"))
	return q
}

// terrorQ2 is the real-life PQ Q2 of Fig. 9(a): organizations related to
// Hamas through international/domestic collaboration chains.
func terrorQ2() *pattern.Query {
	q := pattern.New()
	a := q.AddNode("A", predicate.MustParse(`at = "Armed Assault", tt = Business`))
	b := q.AddNode("B", predicate.MustParse(`at = Bombing, tt = Military`))
	h := q.AddNode("H", predicate.MustParse(`gn = Hamas`))
	d := q.AddNode("D", predicate.MustParse(`tt = "Private Citizens & Property"`))
	q.AddEdge(a, h, rex.MustParse("ic{2} dc+ ic{2}"))
	q.AddEdge(b, h, rex.MustParse("dc+ ic{2}"))
	q.AddEdge(h, d, rex.MustParse("ic{2} dc+"))
	q.AddEdge(a, b, rex.MustParse("dc+"))
	return q
}

// Fig9a runs the two real-life queries of Fig. 9(a) and reports the number
// of matches per pattern edge — the paper's demonstration that PQs find
// sensible answers conventional queries cannot express.
func Fig9a(e *Env) *Table {
	t := &Table{
		ID:     "Fig. 9(a)",
		Title:  "real-life PQs on YouTube and Terrorist networks",
		XLabel: "query edge",
		Unit:   "matched pairs",
		Series: []string{"pairs"},
	}
	yt, ytMx, _ := e.YouTube()
	resQ1 := pattern.JoinMatch(yt, youtubeQ1(), pattern.Options{Backend: ytMx})
	addEdgeCounts(t, "Q1", youtubeQ1(), resQ1)
	tg, tMx, _ := e.Terror()
	resQ2 := pattern.JoinMatch(tg, terrorQ2(), pattern.Options{Backend: tMx})
	addEdgeCounts(t, "Q2", terrorQ2(), resQ2)
	if resQ1.Empty() {
		t.Notes = append(t.Notes, "Q1 had no matches on this synthetic instance")
	}
	if resQ2.Empty() {
		t.Notes = append(t.Notes, "Q2 had no matches on this synthetic instance")
	}
	return t
}

func addEdgeCounts(t *Table, name string, q *pattern.Query, res *pattern.Result) {
	for ei := 0; ei < q.NumEdges(); ei++ {
		e := q.Edge(ei)
		label := fmt.Sprintf("%s (%s,%s)", name, q.Node(e.From).Name, q.Node(e.To).Name)
		t.Add(label, map[string]float64{"pairs": float64(len(res.EdgePairs(ei)))})
	}
}

// exp1Sweep is the (|Vp|, |Ep|) sweep of Figures 9(b) and 9(c).
var exp1Sweep = []struct{ vp, ep int }{
	{3, 3}, {4, 4}, {5, 5}, {6, 6}, {7, 7},
}

// exp1Queries generates the Exp-1 workload on the Terror graph: patterns
// restricted to one color per edge (to favor SubIso, as the paper does)
// with 2-3 predicates per node.
func (e *Env) exp1Queries(vp, ep, seedOffset int) []*pattern.Query {
	g, _, _ := e.Terror()
	r := e.Rand(int64(seedOffset)*7919 + int64(vp*100+ep))
	qs := make([]*pattern.Query, e.Cfg.QueriesPerPoint)
	for i := range qs {
		// Single-color edges with bound 3: direct edges stay inside every
		// edge language (so SubIso's edge-to-edge matches remain true
		// matches, precision 1), while the color-blind Match baseline has
		// 3-hop any-color neighborhoods to over-match in.
		qs[i] = gen.Query(g, gen.Spec{
			Nodes: vp, Edges: ep, Preds: 2, Bound: 3, Colors: 1,
		}, r)
	}
	return qs
}

// Fig9b compares the F-measure of JoinMatchM (regex-aware simulation),
// Match (bounded simulation, colors ignored) and SubIso (subgraph
// isomorphism) against the true matches — which are by definition the PQ
// answers, so JoinMatchM scores 1. The paper's shape: Match has perfect
// recall but low precision; SubIso has perfect precision but poor recall.
func Fig9b(e *Env) *Table {
	t := &Table{
		ID:     "Fig. 9(b)",
		Title:  "effectiveness (F-measure) on the Terrorist network",
		XLabel: "(|Vp|,|Ep|)",
		Unit:   "F-measure",
		Series: []string{"JoinMatchM", "Match", "SubIso"},
	}
	g, mx, _ := e.Terror()
	for _, pt := range exp1Sweep {
		var fJoin, fMatch, fSub float64
		qs := e.exp1Queries(pt.vp, pt.ep, 1)
		for _, q := range qs {
			truthRes := pattern.JoinMatch(g, q, pattern.Options{Backend: mx})
			truth := baseline.ResultNodePairs(q, truthRes)
			fJoin += baseline.Evaluate(truth, truth).FMeasure
			found := baseline.ResultNodePairs(q, baseline.Match(g, q, pattern.Options{Backend: mx}))
			fMatch += baseline.Evaluate(found, truth).FMeasure
			ms, _ := baseline.SubIso(g, q, baseline.SubIsoOptions{MaxSteps: 2_000_000})
			fSub += baseline.Evaluate(baseline.NodePairs(q, ms), truth).FMeasure
		}
		n := float64(len(qs))
		t.Add(fmt.Sprintf("(%d,%d)", pt.vp, pt.ep), map[string]float64{
			"JoinMatchM": fJoin / n, "Match": fMatch / n, "SubIso": fSub / n,
		})
	}
	return t
}

// Fig9c compares elapsed time of the four Exp-1 systems on the Terrorist
// network. The paper's shape: JoinMatchM and SplitMatchM beat MatchM and
// are far faster than SubIso.
func Fig9c(e *Env) *Table {
	t := &Table{
		ID:     "Fig. 9(c)",
		Title:  "efficiency on the Terrorist network",
		XLabel: "(|Vp|,|Ep|)",
		Unit:   "s",
		Series: []string{"JoinMatchM", "SplitMatchM", "MatchM", "SubIso"},
	}
	g, mx, _ := e.Terror()
	for _, pt := range exp1Sweep {
		sums := map[string]float64{}
		qs := e.exp1Queries(pt.vp, pt.ep, 2)
		for _, q := range qs {
			sums["JoinMatchM"] += timeIt(func() { pattern.JoinMatch(g, q, pattern.Options{Backend: mx}) })
			sums["SplitMatchM"] += timeIt(func() { pattern.SplitMatch(g, q, pattern.Options{Backend: mx}) })
			sums["MatchM"] += timeIt(func() { baseline.Match(g, q, pattern.Options{Backend: mx}) })
			sums["SubIso"] += timeIt(func() {
				baseline.SubIso(g, q, baseline.SubIsoOptions{MaxSteps: 2_000_000})
			})
		}
		n := float64(len(qs))
		for k := range sums {
			sums[k] /= n
		}
		t.Add(fmt.Sprintf("(%d,%d)", pt.vp, pt.ep), sums)
	}
	return t
}
