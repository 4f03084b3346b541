package bench

import (
	"fmt"
	"math/rand"

	"regraph/internal/candidx"
	"regraph/internal/dist"
	"regraph/internal/gen"
	"regraph/internal/graph"
	"regraph/internal/reach"
)

// TwoHop compares the three distance backends on the paper's single-atom
// RQ workload in two regimes. At the configured YouTube scale the matrix
// fits in memory and sets the speed ceiling the 2-hop labels are measured
// against. The second regime derives, from the very byte budget the
// first regime's matrix occupies, the smallest YouTube-shaped graph whose
// matrix would NOT fit that budget (gen.YouTubeUnbuildable) — there no
// matrix exists by construction and the contest is 2-hop labels vs a
// cold LRU cache, which is the scenario the backend exists for.
//
// Side metrics (reported by BenchmarkTwoHop and printed by
// cmd/experiments): label build seconds and bytes/node on the
// unbuildable graph, and the cold-cache-over-twohop query-time factor. Every backend's total pair
// count is cross-checked; a mismatch is reported in the table notes.
func TwoHop(e *Env) *Table {
	t := &Table{
		ID:     "2-hop",
		Title:  "distance backends: 2-hop labels vs cold cache (matrix as metric where buildable)",
		XLabel: "regime",
		Unit:   "s per RQ workload",
		// The matrix cannot appear as a series: the second regime exists
		// precisely because no matrix can be built there. Its fits-regime
		// time is the "matrix-fits-s" metric instead.
		Series: []string{"TwoHop", "ColdCache"},
	}

	// Regime 1: configured scale, matrix buildable. Candidate
	// enumeration goes through the inverted index (as the engine's does)
	// so the measurement isolates the distance lookups, not the shared
	// predicate scan.
	g, mx, _ := e.YouTube()
	cs := candidx.NewMemo(g)
	qs := twoHopWorkload(g, e.Rand(71), 20*e.Cfg.QueriesPerPoint)
	var mxPairs int
	tMx := timeIt(func() { mxPairs = runRQWorkload(g, mx, cs, qs) })
	var th *dist.TwoHop
	build1 := timeIt(func() { th = dist.NewTwoHop(g) })
	var thPairs int
	tTh := timeIt(func() { thPairs = runRQWorkload(g, th, cs, qs) })
	var caPairs int
	var tCa float64
	{
		ca := dist.NewCache(g, e.Cfg.CacheSize) // cold: built, never queried
		tCa = timeIt(func() { caPairs = runRQWorkload(g, ca, cs, qs) })
	}
	t.Add("fits", map[string]float64{"TwoHop": tTh, "ColdCache": tCa})
	if mxPairs != thPairs || mxPairs != caPairs {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"EQUIVALENCE FAILED at scale %.2f: matrix %d, twohop %d, cache %d pairs",
			e.Cfg.YouTubeScale, mxPairs, thPairs, caPairs))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"fits: %d nodes, matrix %d B, labels %d B built in %.3fs, %d pairs",
		g.NumNodes(), mx.Size(), th.Size(), build1, mxPairs))

	// Regime 2: the matrix of regime 1 defines the byte budget; the graph
	// is grown until that budget cannot hold its matrix.
	budget := dist.PredictMatrixBytes(g)
	ug, scale := gen.YouTubeUnbuildable(e.Cfg.Seed, budget)
	ucs := candidx.NewMemo(ug)
	uqs := twoHopWorkload(ug, e.Rand(73), 20*e.Cfg.QueriesPerPoint)
	var uth *dist.TwoHop
	build2 := timeIt(func() { uth = dist.NewTwoHop(ug) })
	var uthPairs int
	uTh := timeIt(func() { uthPairs = runRQWorkload(ug, uth, ucs, uqs) })
	var ucaPairs int
	var uCa float64
	{
		ca := dist.NewCache(ug, e.Cfg.CacheSize)
		uCa = timeIt(func() { ucaPairs = runRQWorkload(ug, ca, ucs, uqs) })
	}
	t.Add("unbuildable", map[string]float64{"TwoHop": uTh, "ColdCache": uCa})
	if uthPairs != ucaPairs {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"EQUIVALENCE FAILED on unbuildable graph: twohop %d, cache %d pairs",
			uthPairs, ucaPairs))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"unbuildable: scale %.3f, %d nodes, matrix would need %d B (> budget %d), labels %d B, %d pairs",
		scale, ug.NumNodes(), dist.PredictMatrixBytes(ug), budget, uth.Size(), uthPairs))

	t.Metric("matrix-fits-s", tMx)
	t.Metric("twohop-build-s", build2)
	t.Metric("twohop-bytes-per-node", float64(uth.Size())/float64(ug.NumNodes()))
	if uTh > 0 {
		t.Metric("cold-cache-over-twohop-x", uCa/uTh)
	}
	return t
}

// twoHopWorkload generates n single-atom RQs — the workload where every
// candidate pair resolves to one backend distance lookup, i.e. where the
// backends actually differ (multi-atom RQs run chained closures whatever
// the backend).
func twoHopWorkload(g *graph.Graph, r *rand.Rand, n int) []reach.Query {
	qs := make([]reach.Query, n)
	for i := range qs {
		qs[i] = gen.RQ(g, 2, 5, 1, r)
	}
	return qs
}

// runRQWorkload evaluates the queries on one backend with a private
// scratch arena and returns the total pair count (the equivalence
// cross-check between backends).
func runRQWorkload(g *graph.Graph, be dist.Backend, cs reach.CandidateSource, qs []reach.Query) int {
	s := dist.GetScratch()
	defer dist.PutScratch(s)
	pairs := 0
	for _, q := range qs {
		pairs += len(q.EvalBackendScratchWith(g, be, s, cs))
	}
	return pairs
}
