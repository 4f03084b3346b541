package reach_test

import (
	"fmt"
	"math/rand"
	"reflect"
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

// backendTable is the backend input of the cross-checks: every
// evaluator answer must be the same whichever backend serves it, or
// none.
func backendTable(g *graph.Graph) []struct {
	name string
	be   dist.Backend
} {
	return []struct {
		name string
		be   dist.Backend
	}{
		{"none", nil},
		{"matrix", dist.NewMatrix(g)},
		{"cache", dist.NewCache(g, 256)},
		{"twohop", dist.NewTwoHop(g)},
	}
}

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
	if got := pairsString(q.EvalBFS(g), g); got != want {
		t.Errorf("EvalBFS = %v, want %v", got, want)
	}
	for _, b := range backendTable(g) {
		if got := pairsString(q.EvalBackend(g, b.be), g); got != want {
			t.Errorf("%s: EvalBackend = %v, want %v", b.name, got, want)
		}
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
	want := "[C3->B1 C3->B2]"
	for _, b := range backendTable(g) {
		if got := pairsString(q.EvalBackend(g, b.be), g); got != want {
			t.Errorf("%s: EvalBackend = %v, want %v", b.name, got, want)
		}
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
	// All of C1, C2, C3 are on an fa cycle, so all 9 ordered pairs match.
	want := "[C1->C1 C1->C2 C1->C3 C2->C1 C2->C2 C2->C3 C3->C1 C3->C2 C3->C3]"
	if got := pairsString(q.EvalBFS(g), g); got != want {
		t.Errorf("EvalBFS = %v, want %v", got, want)
	}
	for _, b := range backendTable(g) {
		if got := pairsString(q.EvalBackend(g, b.be), g); got != want {
			t.Errorf("%s: EvalBackend = %v, want %v", b.name, got, want)
		}
	}
}

func TestEmptyCandidates(t *testing.T) {
	g := gen.Essembly()
	q := reach.New(
		predicate.MustParse("job = lawyer"),
		predicate.MustParse("job = doctor"),
		rex.MustParse("fn"),
	)
	if got := q.EvalBFS(g); len(got) != 0 {
		t.Errorf("no-candidate EvalBFS returned %v", got)
	}
	for _, b := range backendTable(g) {
		if got := q.EvalBackend(g, b.be); len(got) != 0 {
			t.Errorf("%s: no-candidate query returned %v", b.name, got)
		}
	}
}

func TestUnknownColor(t *testing.T) {
	g := gen.Essembly()
	q := reach.New(predicate.Pred{}, predicate.Pred{}, rex.MustParse("zz"))
	if got := q.EvalBFS(g); len(got) != 0 {
		t.Errorf("unknown color EvalBFS returned %v", got)
	}
	for _, b := range backendTable(g) {
		if got := q.EvalBackend(g, b.be); len(got) != 0 {
			t.Errorf("%s: unknown color returned %v", b.name, got)
		}
	}
}

// TestMatchesPair: single pairs are answers exactly when both
// predicates hold and a path matches, on every backend.
func TestMatchesPair(t *testing.T) {
	g := gen.Essembly()
	q := reach.New(
		predicate.MustParse("job = biologist"),
		predicate.MustParse("job = doctor"),
		rex.MustParse("fa{2} fn"),
	)
	c1, _ := g.NodeByName("C1")
	c3, _ := g.NodeByName("C3")
	b1, _ := g.NodeByName("B1")
	d1, _ := g.NodeByName("D1")
	atoms, _ := dist.Compile(g, q.Expr)
	if !dist.BiReach(g, atoms, c1, b1) {
		t.Error("C1->B1 should match fa{2}fn")
	}
	if dist.BiReach(g, atoms, c3, b1) {
		t.Error("C3->B1 should not match fa{2}fn (needs fa block first)")
	}
	for _, b := range backendTable(g) {
		answers := map[reach.Pair]bool{}
		for _, p := range q.EvalBackend(g, b.be) {
			answers[p] = true
		}
		if !answers[reach.Pair{From: c1, To: b1}] {
			t.Errorf("%s: C1->B1 missing", b.name)
		}
		if answers[reach.Pair{From: c3, To: b1}] {
			t.Errorf("%s: C3->B1 answered without a matching path", b.name)
		}
		if answers[reach.Pair{From: d1, To: b1}] {
			t.Errorf("%s: D1 fails the source predicate", b.name)
		}
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

// agreesWithBFS reports whether every backend of g's table answers q
// exactly as EvalBFS does, pair for pair and in the same order.
func agreesWithBFS(t *testing.T, g *graph.Graph, backends []struct {
	name string
	be   dist.Backend
}, q reach.Query) bool {
	t.Helper()
	want := q.EvalBFS(g)
	for _, b := range backends {
		if got := q.EvalBackend(g, b.be); !reflect.DeepEqual(got, want) {
			t.Logf("query %v: %s = %v, EvalBFS = %v", q, b.name, got, want)
			return false
		}
	}
	return true
}

// TestEvalMethodsAgree is the central cross-validation: every backend
// must return EvalBFS's answer, in order, on random graphs and random
// queries (including unbounded atoms and wildcards), and on a chain
// long enough to saturate matrix cells.
func TestEvalMethodsAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomAttrGraph(r, 2+r.Intn(14), 1+r.Intn(40))
		backends := backendTable(g)
		for k := 0; k < 4; k++ {
			if !agreesWithBFS(t, g, backends, randomRQ(r)) {
				t.Logf("seed %d", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}

	// A 300-node chain of "a" edges with a "b" shortcut back to its
	// start: distances along it reach past the matrix's 255 saturation
	// point, so bounds on either side of it must decide alike.
	g := graph.New()
	for i := 0; i < 300; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), map[string]string{"t": fmt.Sprint(i % 3), "w": fmt.Sprint(i % 5)})
	}
	for i := 0; i+1 < 300; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), "a")
	}
	g.AddEdge(299, 0, "b")
	backends := backendTable(g)
	for _, expr := range []string{"a{254}", "a{255}", "a{256}", "a{298}", "a{299}", "a+", "a{200} a{60}", "a{254} b", "a+ b a{2}", "b a{255}", "_{300}"} {
		for _, preds := range [][2]string{{"t = 0, w = 0", "w > 2"}, {"w = 1", "t = 2, w < 3"}} {
			q := reach.New(predicate.MustParse(preds[0]), predicate.MustParse(preds[1]), rex.MustParse(expr))
			if !agreesWithBFS(t, g, backends, q) {
				t.Fatalf("long chain: %v", q)
			}
		}
	}
}

// TestEvalMatrixPairsAreSound: every pair the matrix backend returns
// must satisfy both node predicates and have a matching path, by
// runtime search.
func TestEvalMatrixPairsAreSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomAttrGraph(r, 2+r.Intn(10), 1+r.Intn(25))
		mx := dist.NewMatrix(g)
		q := randomRQ(r)
		atoms, _ := dist.Compile(g, q.Expr)
		for _, p := range q.EvalBackend(g, mx) {
			if !q.From.Eval(g.Attrs(p.From)) || !q.To.Eval(g.Attrs(p.To)) {
				return false
			}
			if !dist.BiReach(g, atoms, p.From, p.To) {
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
		backends := backendTable(g)
		for k := 0; k < 4; k++ {
			q := randomRQ(r)
			if a, b := pairsString(q.EvalBFS(g), g), pairsString(q.EvalBFSScratch(g, s), g); a != b {
				t.Logf("seed %d query %v: EvalBFS=%v scratch=%v", seed, q, a, b)
				return false
			}
			for _, be := range backends {
				if a, b := pairsString(q.EvalBackend(g, be.be), g), pairsString(q.EvalBackendScratchWith(g, be.be, s, nil), g); a != b {
					t.Logf("seed %d query %v: %s EvalBackend=%v scratch=%v", seed, q, be.name, a, b)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestEvalBiBFSAllocRegression pins the allocation win of the scratch
// arenas: on a fixed graph, a repeated multi-atom bi-directional search
// (EvalBackend with no backend, and with the matrix) must stay within a
// small constant number of allocations per run. Before the arenas, every run
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
	if n := len(q.EvalBackend(g, nil)); n == 0 {
		t.Fatal("workload found no pairs; allocation numbers would be vacuous")
	}

	// Dedicated arena: in steady state nothing but the answer slice (and
	// its append growth) may allocate.
	s := dist.NewScratch()
	var sink []reach.Pair
	for _, b := range []struct {
		name string
		be   dist.Backend
	}{{"none", nil}, {"matrix", dist.NewMatrix(g)}} {
		sink = q.EvalBackendScratchWith(g, b.be, s, nil)
		if got := testing.AllocsPerRun(20, func() {
			sink = q.EvalBackendScratchWith(g, b.be, s, nil)
		}); got > 12 {
			t.Errorf("%s: EvalBackendScratchWith allocates %.0f/run, want <= 12", b.name, got)
		}
	}

	// Pooled entry point: the bound is looser because sync.Pool
	// hand-offs (and whatever arena sizes earlier tests parked in the
	// pool) add run-to-run noise on top of the answer slice — but it
	// must stay an order of magnitude below the ~918/run this workload
	// cost before the arenas existed.
	if got := testing.AllocsPerRun(20, func() {
		sink = q.EvalBackend(g, nil)
	}); got > 64 {
		t.Errorf("EvalBackend allocates %.0f/run, want <= 64", got)
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
		opts := pattern.Options{Backend: dist.NewCache(g, 1<<14), Scratch: dist.NewScratch()}
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
