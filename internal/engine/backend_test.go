package engine_test

import (
	"errors"
	"math/rand"
	"testing"

	"regraph/internal/dist"
	"regraph/internal/engine"
	"regraph/internal/gen"
	"regraph/internal/pattern"
)

// TestOptionsValidation: an unknown backend kind, and every setting the
// chosen kind would silently ignore, is rejected with an error wrapping
// ErrOptions — one row per rule; "auto" takes both a budget and a
// filter.
func TestOptionsValidation(t *testing.T) {
	g := testGraph(21)
	bad := map[string]engine.Options{
		"unknown-kind":     {BackendKind: "bitmap"},
		"cachesize+matrix": {BackendKind: "matrix", CacheSize: 128},
		"budget+cache":     {MemoryBudget: 1 << 20},
		"filter+matrix":    {BackendKind: "matrix", ReachFilterK: 2},
	}
	for name, opts := range bad {
		if _, err := engine.New(g, opts); !errors.Is(err, engine.ErrOptions) {
			t.Errorf("%s: want ErrOptions, got %v", name, err)
		}
	}
	good := map[string]engine.Options{
		"default":     {},
		"auto+budget": {BackendKind: "auto", MemoryBudget: 1 << 20},
		"auto+filter": {BackendKind: "auto", ReachFilterK: 2},
	}
	for name, opts := range good {
		if _, err := engine.New(g, opts); err != nil {
			t.Errorf("%s: unexpected error %v", name, err)
		}
	}
}

// TestBackendAutoSelection: the "auto" heuristic must pick the matrix
// when it fits the budget, 2-hop labels when only they fit, and the
// cache when nothing fits.
func TestBackendAutoSelection(t *testing.T) {
	g := testGraph(23)
	matrixBytes := dist.PredictMatrixBytes(g)

	e := engine.MustNew(g, engine.Options{BackendKind: "auto", MemoryBudget: matrixBytes})
	if _, ok := e.Backend().(*dist.Matrix); e.BackendKind() != "matrix" || !ok {
		t.Fatalf("budget == matrix size: kind %q", e.BackendKind())
	}

	e = engine.MustNew(g, engine.Options{BackendKind: "auto", MemoryBudget: matrixBytes - 1})
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

	e = engine.MustNew(g, engine.Options{BackendKind: "auto", MemoryBudget: 64})
	if _, ok := e.Backend().(*dist.Cache); e.BackendKind() != "cache" || !ok {
		t.Fatalf("tiny budget: kind %q", e.BackendKind())
	}
}

// TestBackendEquivalence: the same RQ and PQ batch must produce
// identical answers whichever backend the engine runs on — including
// the auto-selected and filter-fronted configurations.
func TestBackendEquivalence(t *testing.T) {
	g := testGraph(29)
	qs := testRQs(g, 40, 31)

	want := make([]string, len(qs))
	for i, q := range qs {
		want[i] = pairsKey(q.EvalBFS(g))
	}

	r := rand.New(rand.NewSource(37))
	pq := gen.Query(g, gen.Spec{Nodes: 3, Edges: 3, Preds: 2, Bound: 3, Colors: 2}, r)
	wantPQ := pattern.JoinMatch(g, pq, pattern.Options{}).String(g)

	for name, opts := range map[string]engine.Options{
		"matrix":        {BackendKind: "matrix"},
		"cache":         {},
		"twohop":        {BackendKind: "twohop"},
		"twohop+grail":  {BackendKind: "twohop", ReachFilterK: 2},
		"cache+grail":   {ReachFilterK: 2, CacheSize: 1024},
		"auto":          {BackendKind: "auto"},
		"auto-no-index": {BackendKind: "auto", MemoryBudget: 64, DisableCandidateIndex: true},
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
