package reach_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"testing/quick"

	"regraph/internal/dist"
	"regraph/internal/gen"
	"regraph/internal/graph"
	"regraph/internal/pattern"
	"regraph/internal/predicate"
	"regraph/internal/reach"
	"regraph/internal/rex"
)

func pairsString(ps []reach.Pair, g *graph.Graph) string {
	ss := make([]string, len(ps))
	for i, p := range ps {
		ss[i] = g.Node(p.From).Name + "->" + g.Node(p.To).Name
	}
	sort.Strings(ss)
	return fmt.Sprint(ss)
}

// TestExample22Q1 reproduces Example 2.2: query Q1 over the Fig. 1 graph
// must return exactly {(C1,B1), (C1,B2), (C2,B1), (C2,B2)}.
func TestExample22Q1(t *testing.T) {
	g := gen.Essembly()
	q := reach.New(
		predicate.MustParse("job = biologist, sp = cloning"),
		predicate.MustParse("job = doctor"),
		rex.MustParse("fa{2} fn"),
	)
	want := "[C1->B1 C1->B2 C2->B1 C2->B2]"
	mx := dist.NewMatrix(g)
	if got := pairsString(q.EvalMatrix(g, mx), g); got != want {
		t.Errorf("EvalMatrix = %v, want %v", got, want)
	}
	if got := pairsString(q.EvalBFS(g), g); got != want {
		t.Errorf("EvalBFS = %v, want %v", got, want)
	}
	if got := pairsString(q.EvalBiBFS(g, dist.NewCache(g, 128)), g); got != want {
		t.Errorf("EvalBiBFS = %v, want %v", got, want)
	}
}

func TestSingleColorRQ(t *testing.T) {
	g := gen.Essembly()
	// Who is friends-nemeses (direct) with a doctor?
	q := reach.New(
		predicate.MustParse("job = biologist"),
		predicate.MustParse("job = doctor"),
		rex.MustParse("fn"),
	)
	mx := dist.NewMatrix(g)
	want := "[C3->B1 C3->B2]"
	if got := pairsString(q.EvalMatrix(g, mx), g); got != want {
		t.Errorf("EvalMatrix = %v, want %v", got, want)
	}
	if got := pairsString(q.EvalBiBFS(g, dist.NewCache(g, 16)), g); got != want {
		t.Errorf("EvalBiBFS(cache) = %v, want %v", got, want)
	}
}

func TestUnboundedRQ(t *testing.T) {
	g := gen.Essembly()
	// fa+ reaches through the biologist cycle.
	q := reach.New(
		predicate.MustParse("job = biologist"),
		predicate.MustParse("job = biologist"),
		rex.MustParse("fa+"),
	)
	mx := dist.NewMatrix(g)
	got := pairsString(q.EvalMatrix(g, mx), g)
	// All of C1, C2, C3 are on an fa cycle, so all 9 ordered pairs match.
	want := "[C1->C1 C1->C2 C1->C3 C2->C1 C2->C2 C2->C3 C3->C1 C3->C2 C3->C3]"
	if got != want {
		t.Errorf("EvalMatrix = %v, want %v", got, want)
	}
	if got := pairsString(q.EvalBFS(g), g); got != want {
		t.Errorf("EvalBFS = %v, want %v", got, want)
	}
}

func TestEmptyCandidates(t *testing.T) {
	g := gen.Essembly()
	q := reach.New(
		predicate.MustParse("job = lawyer"),
		predicate.MustParse("job = doctor"),
		rex.MustParse("fn"),
	)
	mx := dist.NewMatrix(g)
	if got := q.EvalMatrix(g, mx); len(got) != 0 {
		t.Errorf("no-candidate query returned %v", got)
	}
	if got := q.EvalBFS(g); len(got) != 0 {
		t.Errorf("no-candidate EvalBFS returned %v", got)
	}
}

func TestUnknownColor(t *testing.T) {
	g := gen.Essembly()
	q := reach.New(predicate.Pred{}, predicate.Pred{}, rex.MustParse("zz"))
	mx := dist.NewMatrix(g)
	if got := q.EvalMatrix(g, mx); len(got) != 0 {
		t.Errorf("unknown color returned %v", got)
	}
	if got := q.EvalBiBFS(g, nil); len(got) != 0 {
		t.Errorf("unknown color EvalBiBFS returned %v", got)
	}
}

func TestMatchesPair(t *testing.T) {
	g := gen.Essembly()
	mx := dist.NewMatrix(g)
	q := reach.New(
		predicate.MustParse("job = biologist"),
		predicate.MustParse("job = doctor"),
		rex.MustParse("fa{2} fn"),
	)
	c1, _ := g.NodeByName("C1")
	c3, _ := g.NodeByName("C3")
	b1, _ := g.NodeByName("B1")
	if !q.Matches(g, mx, c1, b1) {
		t.Error("C1->B1 should match fa{2}fn")
	}
	if q.Matches(g, mx, c3, b1) {
		t.Error("C3->B1 should not match fa{2}fn (needs fa block first)")
	}
	if !q.Matches(g, nil, c1, b1) {
		t.Error("C1->B1 should match without a matrix too")
	}
	d1, _ := g.NodeByName("D1")
	if q.Matches(g, mx, d1, b1) {
		t.Error("D1 fails the source predicate")
	}
}

func TestCandidates(t *testing.T) {
	g := gen.Essembly()
	got := reach.Candidates(g, predicate.MustParse("job = doctor"))
	if len(got) != 2 {
		t.Errorf("Candidates(doctor) = %v, want 2 nodes", got)
	}
	all := reach.Candidates(g, predicate.Pred{})
	if len(all) != g.NumNodes() {
		t.Errorf("empty predicate should match all nodes, got %d", len(all))
	}
}

// randomAttrGraph builds a random graph whose nodes carry a small "t"
// attribute so that predicates have varying selectivity.
func randomAttrGraph(r *rand.Rand, n, e int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), map[string]string{
			"t": fmt.Sprint(r.Intn(3)),
			"w": fmt.Sprint(r.Intn(5)),
		})
	}
	colors := []string{"a", "b"}
	for i := 0; i < e; i++ {
		g.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)), colors[r.Intn(2)])
	}
	return g
}

func randomRQ(r *rand.Rand) reach.Query {
	preds := []string{"t = 0", "t = 1", "t = 2", "w > 2", "*"}
	colors := []string{"a", "b", "_"}
	nAtoms := 1 + r.Intn(3)
	atoms := make([]rex.Atom, nAtoms)
	for i := range atoms {
		m := 1 + r.Intn(3)
		if r.Intn(5) == 0 {
			m = rex.Unbounded
		}
		atoms[i] = rex.Atom{Color: colors[r.Intn(3)], Max: m}
	}
	return reach.New(
		predicate.MustParse(preds[r.Intn(len(preds))]),
		predicate.MustParse(preds[r.Intn(len(preds))]),
		rex.MustNew(atoms...),
	)
}

// TestEvalMethodsAgree is the central cross-validation: the three
// evaluation strategies must return identical answer sets on random
// graphs and random queries (including unbounded atoms and wildcards).
func TestEvalMethodsAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomAttrGraph(r, 2+r.Intn(14), 1+r.Intn(40))
		mx := dist.NewMatrix(g)
		ca := dist.NewCache(g, 256)
		for k := 0; k < 4; k++ {
			q := randomRQ(r)
			a := pairsString(q.EvalMatrix(g, mx), g)
			b := pairsString(q.EvalBFS(g), g)
			c := pairsString(q.EvalBiBFS(g, ca), g)
			if a != b || b != c {
				t.Logf("seed %d query %v:\n matrix=%v\n bfs=%v\n bibfs=%v", seed, q, a, b, c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestEvalMatrixPairsAreSound: every returned pair must individually pass
// Matches, and node predicates must hold.
func TestEvalMatrixPairsAreSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomAttrGraph(r, 2+r.Intn(10), 1+r.Intn(25))
		mx := dist.NewMatrix(g)
		q := randomRQ(r)
		for _, p := range q.EvalMatrix(g, mx) {
			if !q.From.Eval(g.Attrs(p.From)) || !q.To.Eval(g.Attrs(p.To)) {
				return false
			}
			if !q.Matches(g, mx, p.From, p.To) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQueryString(t *testing.T) {
	q := reach.New(predicate.MustParse("a = 1"), predicate.Pred{}, rex.MustParse("x{2} y"))
	if got := q.String(); got != "RQ[a = 1 --x{2} y--> *]" {
		t.Errorf("String() = %q", got)
	}
}

// TestEvalScratchVariantsAgree: the scratch-accepting entry points must
// return exactly what their allocating counterparts return, across many
// random graphs and queries, reusing one arena throughout (so buffer
// poisoning between queries would be caught).
func TestEvalScratchVariantsAgree(t *testing.T) {
	s := dist.NewScratch()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomAttrGraph(r, 2+r.Intn(14), 1+r.Intn(40))
		ca := dist.NewCache(g, 256)
		for k := 0; k < 4; k++ {
			q := randomRQ(r)
			if a, b := pairsString(q.EvalBFS(g), g), pairsString(q.EvalBFSScratch(g, s), g); a != b {
				t.Logf("seed %d query %v: EvalBFS=%v scratch=%v", seed, q, a, b)
				return false
			}
			if a, b := pairsString(q.EvalBiBFS(g, ca), g), pairsString(q.EvalBiBFSScratch(g, ca, s), g); a != b {
				t.Logf("seed %d query %v: EvalBiBFS=%v scratch=%v", seed, q, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestEvalBiBFSAllocRegression pins the allocation win of the scratch
// arenas (ISSUE 2 / the ROADMAP's closure-allocation open item): on a
// fixed graph, a repeated multi-atom EvalBiBFS must stay within a small
// constant number of allocations per run. Before the arenas, every run
// allocated one seed bitset per candidate plus three buffers per
// closure step — hundreds of allocations on this workload.
func TestEvalBiBFSAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; bounds hold in normal builds only")
	}
	// A GC pause mid-measurement can empty the scratch sync.Pool and
	// charge a full arena rebuild to one run; disable GC so the bounds
	// measure the steady state deterministically.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := gen.Synthetic(1, 300, 1200, 3, gen.DefaultColors)
	q := reach.New(
		predicate.MustParse("a0 = 3"),
		predicate.MustParse("a1 = 7"),
		rex.MustParse("c0{2} c1{2}"),
	)
	if n := len(q.EvalBiBFS(g, nil)); n == 0 {
		t.Fatal("workload found no pairs; allocation numbers would be vacuous")
	}

	// Dedicated arena: in steady state nothing but the answer slice (and
	// its append growth) may allocate.
	s := dist.NewScratch()
	sink := q.EvalBiBFSScratch(g, nil, s)
	if got := testing.AllocsPerRun(20, func() {
		sink = q.EvalBiBFSScratch(g, nil, s)
	}); got > 12 {
		t.Errorf("EvalBiBFSScratch allocates %.0f/run, want <= 12", got)
	}

	// Pooled entry point: the bound is looser because sync.Pool
	// hand-offs (and whatever arena sizes earlier tests parked in the
	// pool) add run-to-run noise on top of the answer slice — but it
	// must stay an order of magnitude below the ~918/run this workload
	// cost before the arenas existed.
	if got := testing.AllocsPerRun(20, func() {
		sink = q.EvalBiBFS(g, nil)
	}); got > 64 {
		t.Errorf("EvalBiBFS allocates %.0f/run, want <= 64", got)
	}
	_ = sink
}

// paddedGraph is a fixed core followed by pad isolated nodes: 4 sources
// (role=src) reach 8 hubs over "a" edges, and every hub reaches 96
// destinations (role=dst) over "b" edges, one of them through a "b"
// chain of two. Candidate sets, closures and answers are the same for
// every pad; only |V| grows.
func paddedGraph(pad int) *graph.Graph {
	g := graph.New()
	var src, hub, dst []graph.NodeID
	for i := 0; i < 4; i++ {
		src = append(src, g.AddNode(fmt.Sprintf("s%d", i), map[string]string{"role": "src"}))
	}
	for i := 0; i < 8; i++ {
		hub = append(hub, g.AddNode(fmt.Sprintf("h%d", i), nil))
	}
	for i := 0; i < 96; i++ {
		dst = append(dst, g.AddNode(fmt.Sprintf("d%d", i), map[string]string{"role": "dst"}))
	}
	for i, s := range src {
		g.AddEdge(s, hub[2*i], "a")
		g.AddEdge(s, hub[2*i+1], "a")
	}
	for i, d := range dst {
		if i%3 == 0 {
			g.AddEdge(hub[i%8], dst[(i+1)%96], "b")
		}
		g.AddEdge(hub[i%8], d, "b")
	}
	for i := 0; i < pad; i++ {
		g.AddNode(fmt.Sprintf("p%d", i), nil)
	}
	return g
}

// perRun measures the mean allocation count and bytes of f over runs
// calls, with the GC off and one P, so that pooled buffers stay put: a
// goroutine that moves to another P misses the sync.Pool entries it put
// on the first.
func perRun(runs int, f func()) (allocs, bytes uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm arenas, pools and caches
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestStreamBackendMultiAtomAllocsFlatInV: a multi-atom RQ through
// StreamBackend with 96 destination candidates — more than the arena's
// 64-entry bitset free list — allocates the same count and bytes per run
// at |V| = 1,108 and at |V| = 64,108. Keeping one |V|-long bitset per
// destination made the bytes grow with |V|.
func TestStreamBackendMultiAtomAllocsFlatInV(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; bounds hold in normal builds only")
	}
	q := reach.New(predicate.MustParse("role = src"), predicate.MustParse("role = dst"), rex.MustParse("a b{2}"))
	measure := func(pad int) (uint64, uint64, int) {
		g := paddedGraph(pad)
		ca := dist.NewCache(g, 1024)
		s := dist.NewScratch()
		var pairs []reach.Pair
		allocs, bytes := perRun(10, func() { pairs = q.EvalBackendScratchWith(g, ca, s, nil) })
		return allocs, bytes, len(pairs)
	}
	smallA, smallB, smallN := measure(1000)
	bigA, bigB, bigN := measure(64000)
	if smallN == 0 || smallN != bigN {
		t.Fatalf("answers: %d pairs at the small |V|, %d at the big one; want equal and non-zero", smallN, bigN)
	}
	if bigA > smallA || bigB > smallB+256 {
		t.Errorf("per run: %d allocs / %d B at |V|=1,108 but %d allocs / %d B at |V|=64,108; want no growth with |V|", smallA, smallB, bigA, bigB)
	}
}

// TestJoinMatchCacheAllocsFlatInV: a cache-backed JoinMatch on the same
// padded graphs allocates the same count and bytes per run whatever
// |V|: match sets come from the arena and return to it, and neither
// refinement nor collection allocates per node.
func TestJoinMatchCacheAllocsFlatInV(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; bounds hold in normal builds only")
	}
	pq := pattern.New()
	s0 := pq.AddNode("S", predicate.MustParse("role = src"))
	d0 := pq.AddNode("D", predicate.MustParse("role = dst"))
	d1 := pq.AddNode("E", predicate.MustParse("role = dst"))
	pq.AddEdge(s0, d0, rex.MustParse("a b{2}"))
	pq.AddEdge(s0, d1, rex.MustParse("_{3}"))
	measure := func(pad int) (uint64, uint64, int) {
		g := paddedGraph(pad)
		opts := pattern.Options{Cache: dist.NewCache(g, 1<<14), Scratch: dist.NewScratch()}
		var res *pattern.Result
		allocs, bytes := perRun(10, func() { res = pattern.JoinMatch(g, pq, opts) })
		return allocs, bytes, res.Size()
	}
	smallA, smallB, smallN := measure(1000)
	bigA, bigB, bigN := measure(64000)
	if smallN == 0 || smallN != bigN {
		t.Fatalf("answers: %d pairs at the small |V|, %d at the big one; want equal and non-zero", smallN, bigN)
	}
	if bigA > smallA || bigB > smallB+256 {
		t.Errorf("per run: %d allocs / %d B at |V|=1,108 but %d allocs / %d B at |V|=64,108; want no growth with |V|", smallA, smallB, bigA, bigB)
	}
}
