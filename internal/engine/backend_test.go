package engine_test

import (
	"errors"
	"math/rand"
	"testing"

	"regraph/internal/dist"
	"regraph/internal/engine"
	"regraph/internal/gen"
	"regraph/internal/pattern"
	"regraph/internal/reachidx"
)

// TestOptionsValidation: every ambiguous Options combination must be
// rejected with an error wrapping ErrOptions — no quiet precedence.
func TestOptionsValidation(t *testing.T) {
	g := testGraph(21)
	mx := dist.NewMatrix(g)
	ca := dist.NewCache(g, 64)
	th := dist.NewTwoHop(g)
	bad := map[string]engine.Options{
		"matrix+cache":        {Matrix: mx, Cache: ca},
		"matrix+backend":      {Matrix: mx, Backend: th},
		"cache+backend":       {Cache: ca, Backend: th},
		"matrix+auto":         {Matrix: mx, AutoBackend: true},
		"cachesize+matrix":    {Matrix: mx, CacheSize: 128},
		"cachesize+cache":     {Cache: ca, CacheSize: 128},
		"cachesize+backend":   {Backend: th, CacheSize: 128},
		"budget-without-auto": {MemoryBudget: 1 << 20},
		"filter+filterk":      {ReachFilter: reachidx.Build(g, 1), ReachFilterK: 2},
		"filter+matrix":       {Matrix: mx, ReachFilterK: 2},
		"filter+unfilterable": {Backend: mx, ReachFilterK: 2},
	}
	for name, opts := range bad {
		if _, err := engine.New(g, opts); !errors.Is(err, engine.ErrOptions) {
			t.Errorf("%s: want ErrOptions, got %v", name, err)
		}
	}
	good := map[string]engine.Options{
		"default":         {},
		"cachesize-alone": {CacheSize: 128},
		"cachesize+auto":  {AutoBackend: true, CacheSize: 128},
		"filter+cache":    {Cache: dist.NewCache(g, 64), ReachFilterK: 2},
		"filter+twohop":   {Backend: th, ReachFilterK: 2},
		"filter+auto":     {AutoBackend: true, ReachFilterK: 2},
	}
	for name, opts := range good {
		if _, err := engine.New(g, opts); err != nil {
			t.Errorf("%s: unexpected error %v", name, err)
		}
	}
}

// TestAutoBackendSelection: the heuristic must pick the matrix when it
// fits the budget, 2-hop labels when only they fit, and the cache when
// nothing fits.
func TestAutoBackendSelection(t *testing.T) {
	g := testGraph(23)
	matrixBytes := dist.PredictMatrixBytes(g)

	e := engine.MustNew(g, engine.Options{AutoBackend: true, MemoryBudget: matrixBytes})
	if e.BackendKind() != "matrix" || e.Matrix() == nil {
		t.Fatalf("budget == matrix size: kind %q", e.BackendKind())
	}

	e = engine.MustNew(g, engine.Options{AutoBackend: true, MemoryBudget: matrixBytes - 1})
	if e.BackendKind() != "twohop" {
		t.Fatalf("budget below matrix: kind %q", e.BackendKind())
	}
	th, ok := e.Backend().(*dist.TwoHop)
	if !ok {
		t.Fatalf("twohop kind but backend %T", e.Backend())
	}
	if th.Size() > matrixBytes-1 {
		t.Fatalf("selected index (%d bytes) exceeds its budget (%d)", th.Size(), matrixBytes-1)
	}

	e = engine.MustNew(g, engine.Options{AutoBackend: true, MemoryBudget: 64})
	if e.BackendKind() != "cache" || e.Cache() == nil {
		t.Fatalf("tiny budget: kind %q", e.BackendKind())
	}
}

// TestBackendEquivalence: the same RQ and PQ batch must produce
// identical answers whichever backend the engine runs on — including
// the auto-selected and filter-fronted configurations.
func TestBackendEquivalence(t *testing.T) {
	g := testGraph(29)
	qs := testRQs(g, 40, 31)
	mx := dist.NewMatrix(g)

	want := make([]string, len(qs))
	for i, q := range qs {
		want[i] = pairsKey(q.EvalBFS(g))
	}

	r := rand.New(rand.NewSource(37))
	pq := gen.Query(g, gen.Spec{Nodes: 3, Edges: 3, Preds: 2, Bound: 3, Colors: 2}, r)
	wantPQ := pattern.JoinMatch(g, pq, pattern.Options{}).String(g)

	for name, opts := range map[string]engine.Options{
		"matrix":        {Matrix: mx},
		"cache":         {},
		"twohop":        {Backend: dist.NewTwoHop(g)},
		"twohop+grail":  {Backend: dist.NewTwoHop(g), ReachFilterK: 2},
		"cache+grail":   {ReachFilterK: 2, Cache: dist.NewCache(g, 1024)},
		"auto":          {AutoBackend: true},
		"auto-no-index": {AutoBackend: true, MemoryBudget: 64, DisableCandidateIndex: true},
	} {
		e := engine.MustNew(g, opts)
		got := e.RunRQs(qs)
		for i := range qs {
			if pairsKey(got[i]) != want[i] {
				t.Fatalf("%s (backend %s): query %d differs", name, e.BackendKind(), i)
			}
		}
		res := e.RunBatch([]engine.Request{{PQ: pq}})[0]
		if res.Err != nil {
			t.Fatalf("%s: PQ error %v", name, res.Err)
		}
		if got := res.Match.String(g); got != wantPQ {
			t.Fatalf("%s (backend %s): PQ answer differs", name, e.BackendKind())
		}
	}
}
