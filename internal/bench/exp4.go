package bench

import (
	"fmt"

	"regraph/internal/baseline"
	"regraph/internal/dist"
	"regraph/internal/gen"
	"regraph/internal/graph"
	"regraph/internal/pattern"
)

// pqSeries are the four algorithm configurations of Exp-4.
var pqSeries = []string{"JoinMatchM", "JoinMatchC", "SplitMatchM", "SplitMatchC"}

// runPQConfigs times the four configurations on one query, accumulating
// into sums.
func runPQConfigs(g *graph.Graph, mx *dist.Matrix, ca *dist.Cache, q *pattern.Query, sums map[string]float64) {
	sums["JoinMatchM"] += timeIt(func() { pattern.JoinMatch(g, q, pattern.Options{Backend: mx}) })
	sums["JoinMatchC"] += timeIt(func() { pattern.JoinMatch(g, q, pattern.Options{Backend: ca}) })
	sums["SplitMatchM"] += timeIt(func() { pattern.SplitMatch(g, q, pattern.Options{Backend: mx}) })
	sums["SplitMatchC"] += timeIt(func() { pattern.SplitMatch(g, q, pattern.Options{Backend: ca}) })
}

// ytSweep runs one Fig-11 style sweep on the YouTube graph.
func (e *Env) ytSweep(id, title, xlabel string, points []int, spec func(x int) gen.Spec) *Table {
	t := &Table{
		ID: id, Title: title, XLabel: xlabel, Unit: "s",
		Series: append(append([]string{}, pqSeries...), "M-Index"),
	}
	g, mx, mxTime := e.YouTube()
	ca := dist.NewCache(g, e.Cfg.CacheSize)
	for i, x := range points {
		r := e.Rand(int64(i*1000) + int64(len(id)))
		sums := map[string]float64{}
		for k := 0; k < e.Cfg.QueriesPerPoint; k++ {
			q := gen.Query(g, spec(x), r)
			runPQConfigs(g, mx, ca, q, sums)
		}
		n := float64(e.Cfg.QueriesPerPoint)
		for k := range sums {
			sums[k] /= n
		}
		sums["M-Index"] = mxTime.Seconds()
		t.Add(fmt.Sprint(x), sums)
	}
	return t
}

// Fig11a varies the number of pattern nodes |Vp| (YouTube). Paper shape:
// matrix-backed variants beat cache variants; join beats split; time is
// not very sensitive to |Vp|.
func Fig11a(e *Env) *Table {
	return e.ytSweep("Fig. 11(a)", "PQs on YouTube, varying |Vp|", "|Vp|",
		[]int{4, 6, 8, 10, 12}, func(x int) gen.Spec {
			return gen.Spec{Nodes: x, Edges: x + 2, Preds: 3, Bound: 3, Colors: 2}
		})
}

// Fig11b varies the number of pattern edges |Ep|. Paper shape: time grows
// with |Ep| (more joins/splits), more sensitively than with |Vp|.
func Fig11b(e *Env) *Table {
	return e.ytSweep("Fig. 11(b)", "PQs on YouTube, varying |Ep|", "|Ep|",
		[]int{4, 6, 8, 10, 12}, func(x int) gen.Spec {
			return gen.Spec{Nodes: 4, Edges: x, Preds: 3, Bound: 3, Colors: 2}
		})
}

// Fig11c varies the number of predicates per node. Paper shape: more
// predicates → smaller candidate sets → faster evaluation.
func Fig11c(e *Env) *Table {
	return e.ytSweep("Fig. 11(c)", "PQs on YouTube, varying |pred|", "|pred|",
		[]int{1, 2, 3, 4, 5}, func(x int) gen.Spec {
			return gen.Spec{Nodes: 6, Edges: 8, Preds: x, Bound: 3, Colors: 2}
		})
}

// Fig11d varies the per-atom bound b. Paper shape: time grows with b (more
// matches within reach).
func Fig11d(e *Env) *Table {
	return e.ytSweep("Fig. 11(d)", "PQs on YouTube, varying bound b", "b",
		[]int{1, 3, 5, 7, 9}, func(x int) gen.Spec {
			return gen.Spec{Nodes: 6, Edges: 8, Preds: 3, Bound: x, Colors: 2}
		})
}

// synthSweep runs a Fig-12 style sweep over synthetic graphs.
func (e *Env) synthSweep(id, title, xlabel string, points []int, shape func(x int) (nodes, edges int), spec gen.Spec) *Table {
	t := &Table{
		ID: id, Title: title, XLabel: xlabel, Unit: "s",
		Series: pqSeries,
	}
	for i, x := range points {
		nodes, edges := shape(x)
		g, mx, _ := e.Synthetic(nodes, edges)
		ca := dist.NewCache(g, e.Cfg.CacheSize)
		r := e.Rand(int64(i*1000) + 31*int64(len(id)))
		sums := map[string]float64{}
		for k := 0; k < e.Cfg.QueriesPerPoint; k++ {
			q := gen.Query(g, spec, r)
			runPQConfigs(g, mx, ca, q, sums)
		}
		n := float64(e.Cfg.QueriesPerPoint)
		for k := range sums {
			sums[k] /= n
		}
		t.Add(fmt.Sprint(x), sums)
	}
	return t
}

// exp4Spec is the fixed query spec of the Fig-12 scalability runs (the
// paper uses |Vp|=6, |Ep|=8, c=4, |pred|=3, b=5).
var exp4Spec = gen.Spec{Nodes: 6, Edges: 8, Preds: 3, Bound: 5, Colors: 4}

// Fig12a varies |V| with |E| fixed at (scaled) 20k. Paper shape: all four
// configurations scale roughly linearly in |V|; matrix-backed wins.
func Fig12a(e *Env) *Table {
	points := []int{1000, 2000, 4000, 6000, 8000}
	return e.synthSweep("Fig. 12(a)", "synthetic G(|V|, 20k), varying |V|", "|V| (paper units)",
		points, func(x int) (int, int) { return e.ScaleN(x), e.ScaleN(20000) }, exp4Spec)
}

// Fig12b varies |E| with |V| fixed at (scaled) 8k. Paper shape: time grows
// with |E| for all configurations.
func Fig12b(e *Env) *Table {
	points := []int{3000, 9000, 15000, 21000, 27000}
	return e.synthSweep("Fig. 12(b)", "synthetic G(8k, |E|), varying |E|", "|E| (paper units)",
		points, func(x int) (int, int) { return e.ScaleN(8000), e.ScaleN(x) }, exp4Spec)
}

// synthFixed returns the fixed synthetic graph of Figures 12(c)-(e).
func (e *Env) synthFixed() (int, int) { return e.ScaleN(8000), e.ScaleN(20000) }

// Fig12c varies |Vp| on the fixed synthetic graph.
func Fig12c(e *Env) *Table {
	nodes, edges := e.synthFixed()
	t := &Table{ID: "Fig. 12(c)", Title: "synthetic graph, varying |Vp|", XLabel: "|Vp|", Unit: "s", Series: pqSeries}
	g, mx, _ := e.Synthetic(nodes, edges)
	ca := dist.NewCache(g, e.Cfg.CacheSize)
	for i, x := range []int{4, 8, 12, 16, 20, 24} {
		r := e.Rand(int64(110_000 + i*1000))
		sums := map[string]float64{}
		for k := 0; k < e.Cfg.QueriesPerPoint; k++ {
			q := gen.Query(g, gen.Spec{Nodes: x, Edges: x + 2, Preds: 3, Bound: 5, Colors: 4}, r)
			runPQConfigs(g, mx, ca, q, sums)
		}
		n := float64(e.Cfg.QueriesPerPoint)
		for k := range sums {
			sums[k] /= n
		}
		t.Add(fmt.Sprint(x), sums)
	}
	return t
}

// Fig12d varies |Ep| on the fixed synthetic graph.
func Fig12d(e *Env) *Table {
	nodes, edges := e.synthFixed()
	t := &Table{ID: "Fig. 12(d)", Title: "synthetic graph, varying |Ep|", XLabel: "|Ep|", Unit: "s", Series: pqSeries}
	g, mx, _ := e.Synthetic(nodes, edges)
	ca := dist.NewCache(g, e.Cfg.CacheSize)
	for i, x := range []int{5, 10, 15, 20, 25} {
		r := e.Rand(int64(120_000 + i*1000))
		sums := map[string]float64{}
		for k := 0; k < e.Cfg.QueriesPerPoint; k++ {
			q := gen.Query(g, gen.Spec{Nodes: 6, Edges: x, Preds: 3, Bound: 5, Colors: 4}, r)
			runPQConfigs(g, mx, ca, q, sums)
		}
		n := float64(e.Cfg.QueriesPerPoint)
		for k := range sums {
			sums[k] /= n
		}
		t.Add(fmt.Sprint(x), sums)
	}
	return t
}

// Fig12e varies |pred| on the fixed synthetic graph.
func Fig12e(e *Env) *Table {
	nodes, edges := e.synthFixed()
	t := &Table{ID: "Fig. 12(e)", Title: "synthetic graph, varying |pred|", XLabel: "|pred|", Unit: "s", Series: pqSeries}
	g, mx, _ := e.Synthetic(nodes, edges)
	ca := dist.NewCache(g, e.Cfg.CacheSize)
	for i, x := range []int{2, 3, 4, 5, 6, 7} {
		r := e.Rand(int64(130_000 + i*1000))
		sums := map[string]float64{}
		for k := 0; k < e.Cfg.QueriesPerPoint; k++ {
			q := gen.Query(g, gen.Spec{Nodes: 6, Edges: 8, Preds: x, Bound: 5, Colors: 4}, r)
			runPQConfigs(g, mx, ca, q, sums)
		}
		n := float64(e.Cfg.QueriesPerPoint)
		for k := range sums {
			sums[k] /= n
		}
		t.Add(fmt.Sprint(x), sums)
	}
	return t
}

// Fig12f compares SubIso and SplitMatchC on small synthetic graphs,
// reporting both elapsed time and the number of node matches found. Paper
// shape: SubIso takes hundreds of seconds and finds far fewer matches,
// SplitMatchC answers in under a second.
func Fig12f(e *Env) *Table {
	t := &Table{
		ID:     "Fig. 12(f)",
		Title:  "SubIso vs SplitMatchC on small synthetic graphs",
		XLabel: "(|V|,|E|)",
		Series: []string{"SubIso(s)", "Split(s)", "SubIsoMatch", "SplitMatch"},
	}
	r := e.Rand(140_000)
	for _, pt := range []struct{ v, ed int }{{50, 100}, {100, 200}, {150, 300}, {200, 400}, {250, 500}} {
		g := gen.Synthetic(e.Cfg.Seed+int64(pt.v), pt.v, pt.ed, 3, gen.DefaultColors)
		ca := dist.NewCache(g, e.Cfg.CacheSize)
		var subT, splitT, subM, splitM float64
		for k := 0; k < e.Cfg.QueriesPerPoint; k++ {
			// The paper's Fig 12(f) queries: 8 nodes, 15 edges, c{5}
			// expressions. One predicate per node here: these graphs have
			// only 50-250 nodes, so the paper's 3 equality predicates
			// would leave empty candidate sets on our 10-value attribute
			// domains and both systems would trivially return nothing.
			q := gen.Query(g, gen.Spec{Nodes: 8, Edges: 15, Preds: 1, Bound: 5, Colors: 4}, r)
			var ms []baseline.Mapping
			subT += timeIt(func() {
				ms, _ = baseline.SubIso(g, q, baseline.SubIsoOptions{MaxSteps: 50_000_000})
			})
			subM += float64(len(baseline.NodePairs(q, ms)))
			var res *pattern.Result
			splitT += timeIt(func() { res = pattern.SplitMatch(g, q, pattern.Options{Backend: ca}) })
			splitM += float64(len(baseline.ResultNodePairs(q, res)))
		}
		n := float64(e.Cfg.QueriesPerPoint)
		t.Add(fmt.Sprintf("(%d,%d)", pt.v, pt.ed), map[string]float64{
			"SubIso(s)": subT / n, "Split(s)": splitT / n,
			"SubIsoMatch": subM / n, "SplitMatch": splitM / n,
		})
	}
	return t
}
