package bench

import (
	"fmt"
	"math/rand"

	"regraph/internal/dist"
	"regraph/internal/gen"
	"regraph/internal/graph"
	"regraph/internal/pattern"
	"regraph/internal/reach"
	"regraph/internal/reachidx"
	"regraph/internal/rex"
)

// AblationContainment compares the paper's linear-scan containment check
// against the exact symbolic-automaton check on random subclass-F
// expressions: elapsed time per 10k checks and the fraction of inputs on
// which the two disagree (the linear scan is only a heuristic across color
// boundaries; see DESIGN.md).
func AblationContainment(e *Env) *Table {
	t := &Table{
		ID:     "Ablation A1",
		Title:  "regex containment: linear scan vs exact automaton",
		XLabel: "atoms/expr",
		Series: []string{"Linear(s)", "Exact(s)", "Disagree%"},
	}
	for _, atoms := range []int{1, 2, 3, 5} {
		r := rand.New(rand.NewSource(e.Cfg.Seed + int64(atoms)))
		exprs := make([]rex.Expr, 200)
		for i := range exprs {
			exprs[i] = randomExpr(r, atoms)
		}
		const pairs = 10_000
		var disagree int
		linT := timeIt(func() {
			for i := 0; i < pairs; i++ {
				rex.LinearContains(exprs[i%len(exprs)], exprs[(i*7)%len(exprs)])
			}
		})
		exT := timeIt(func() {
			for i := 0; i < pairs; i++ {
				a, b := exprs[i%len(exprs)], exprs[(i*7)%len(exprs)]
				got := rex.Contains(a, b)
				if got != rex.LinearContains(a, b) {
					disagree++
				}
			}
		})
		t.Add(fmt.Sprint(atoms), map[string]float64{
			"Linear(s)": linT, "Exact(s)": exT,
			"Disagree%": 100 * float64(disagree) / pairs,
		})
	}
	return t
}

func randomExpr(r *rand.Rand, atoms int) rex.Expr {
	colors := []string{"a", "b", "c", rex.Wildcard}
	as := make([]rex.Atom, 1+r.Intn(atoms))
	for i := range as {
		m := 1 + r.Intn(5)
		if r.Intn(8) == 0 {
			m = rex.Unbounded
		}
		as[i] = rex.Atom{Color: colors[r.Intn(len(colors))], Max: m}
	}
	return rex.MustNew(as...)
}

// AblationTopoOrder quantifies what JoinMatch's reverse-topological SCC
// processing buys over a plain chaotic fixpoint, on DAG-shaped and cyclic
// patterns over the YouTube graph.
func AblationTopoOrder(e *Env) *Table {
	t := &Table{
		ID:     "Ablation A2",
		Title:  "JoinMatch: reverse-topological order vs plain fixpoint",
		XLabel: "|Vp|",
		Unit:   "s",
		Series: []string{"TopoOrder", "NoOrder"},
	}
	g, mx, _ := e.YouTube()
	for i, vp := range []int{4, 8, 12} {
		r := e.Rand(int64(200_000 + i*1000))
		var topo, flat float64
		for k := 0; k < e.Cfg.QueriesPerPoint; k++ {
			q := gen.Query(g, gen.Spec{Nodes: vp, Edges: vp + 3, Preds: 2, Bound: 3, Colors: 2}, r)
			topo += timeIt(func() { pattern.JoinMatch(g, q, pattern.Options{Backend: mx}) })
			flat += timeIt(func() {
				pattern.JoinMatch(g, q, pattern.Options{Backend: mx, DisableTopoOrder: true})
			})
		}
		n := float64(e.Cfg.QueriesPerPoint)
		t.Add(fmt.Sprint(vp), map[string]float64{"TopoOrder": topo / n, "NoOrder": flat / n})
	}
	return t
}

// AblationFilter measures the GRAIL-style reachability filter in front of
// the bi-directional search: single- and two-color RQ workloads with and
// without the filter, plus how many searches it eliminated. Sparse
// per-color subgraphs make many candidate pairs unreachable, which is
// exactly where the filter pays.
func AblationFilter(e *Env) *Table {
	t := &Table{
		ID:     "Ablation A4",
		Title:  "reachability-index filter in front of bi-directional search",
		XLabel: "workload",
		Series: []string{"NoFilter(s)", "Filter(s)", "Skipped", "IndexKB"},
	}
	g, _, _ := e.YouTube()
	ix := reachidx.Build(g, 2)
	for _, w := range []struct {
		name   string
		colors int
	}{{"1-color", 1}, {"2-color", 2}} {
		r := e.Rand(int64(400_000 + w.colors))
		qs := make([]reach.Query, 10*e.Cfg.QueriesPerPoint)
		for i := range qs {
			qs[i] = gen.RQ(g, 1, 5, w.colors, r)
		}
		plain := dist.NewCache(g, 1)
		noFilter := timeIt(func() {
			for _, q := range qs {
				q.EvalBackend(g, plain)
			}
		})
		filtered := dist.NewCache(g, 1)
		filtered.SetFilter(ix)
		withFilter := timeIt(func() {
			for _, q := range qs {
				q.EvalBackend(g, filtered)
			}
		})
		t.Add(w.name, map[string]float64{
			"NoFilter(s)": noFilter,
			"Filter(s)":   withFilter,
			"Skipped":     float64(filtered.Filtered()),
			"IndexKB":     float64(ix.Bytes()) / 1024,
		})
	}
	return t
}

// AblationIncremental compares maintaining a pattern answer under churn
// against re-evaluating from scratch after every update — the paper's
// closing motivation for incremental algorithms (Section 7). Insertions
// and deletions are reported separately: deletion maintenance is
// semi-naive (the old answer seeds the refinement) and is the direction
// where incrementality pays; insertions must re-admit candidates and are
// known to be the hard direction for simulation-based semantics.
func AblationIncremental(e *Env) *Table {
	t := &Table{
		ID:     "Ablation A5",
		Title:  "incremental maintenance vs re-evaluation (YouTube)",
		XLabel: "updates",
		Unit:   "s total",
		Series: []string{"InsIncr", "InsFull", "DelIncr", "DelFull"},
	}
	g, _, _ := e.YouTube()
	r := e.Rand(500_000)
	q := gen.Query(g, gen.Spec{Nodes: 4, Edges: 5, Preds: 1, Bound: 3, Colors: 2}, r)
	for _, updates := range []int{8, 16, 32} {
		// Pre-draw the update script so every side replays the same edits.
		type edit struct {
			from, to graph.NodeID
			color    string
		}
		edits := make([]edit, updates)
		colors := g.Colors()
		for i := range edits {
			edits[i] = edit{
				from:  graph.NodeID(r.Intn(g.NumNodes())),
				to:    graph.NodeID(r.Intn(g.NumNodes())),
				color: colors[r.Intn(len(colors))],
			}
		}
		inc, err := pattern.NewIncremental(g, q)
		if err != nil {
			t.Notes = append(t.Notes, "query not maintainable: "+err.Error())
			break
		}
		insIncr := timeIt(func() {
			for _, ed := range edits {
				inc.InsertEdge(ed.from, ed.to, ed.color)
				inc.Result()
			}
		})
		// Deletion side: remove the same edges one at a time.
		delIncr := timeIt(func() {
			for _, ed := range edits {
				if err := inc.DeleteEdge(ed.from, ed.to, ed.color); err != nil {
					return
				}
				inc.Result()
			}
		})
		// Full-recomputation replay of the same script.
		insFull := timeIt(func() {
			for _, ed := range edits {
				g.AddEdge(ed.from, ed.to, ed.color)
				pattern.JoinMatch(g, q, pattern.Options{})
			}
		})
		delFull := timeIt(func() {
			for _, ed := range edits {
				g.RemoveEdge(ed.from, ed.to, ed.color)
				pattern.JoinMatch(g, q, pattern.Options{})
			}
		})
		t.Add(fmt.Sprint(updates), map[string]float64{
			"InsIncr": insIncr, "InsFull": insFull,
			"DelIncr": delIncr, "DelFull": delFull,
		})
	}
	return t
}

// AblationCache sweeps the LRU distance-cache capacity and reports hit
// rate and elapsed time for a fixed single-color RQ workload, motivating
// the cache design of Section 4.
func AblationCache(e *Env) *Table {
	t := &Table{
		ID:     "Ablation A3",
		Title:  "LRU distance cache capacity (single-color RQs, YouTube)",
		XLabel: "capacity",
		Series: []string{"Time(s)", "HitRate%"},
	}
	g, _, _ := e.YouTube()
	// A pool of "frequently asked" queries replayed over several rounds —
	// the workload the paper's cache design targets.
	r := e.Rand(300_000)
	qpool := make([]reach.Query, 16)
	for i := range qpool {
		qpool[i] = gen.RQ(g, 2, 5, 1, r)
	}
	for _, capa := range []int{8, 32, 128, 512, 2048} {
		ca := dist.NewCache(g, capa)
		elapsed := timeIt(func() {
			for round := 0; round < 4; round++ {
				for _, q := range qpool {
					q.EvalBackend(g, ca)
				}
			}
		})
		hits, misses := ca.Stats()
		rate := 0.0
		if hits+misses > 0 {
			rate = 100 * float64(hits) / float64(hits+misses)
		}
		t.Add(fmt.Sprint(capa), map[string]float64{"Time(s)": elapsed, "HitRate%": rate})
	}
	return t
}
