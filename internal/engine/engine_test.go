package engine_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"regraph/internal/dist"
	"regraph/internal/engine"
	"regraph/internal/gen"
	"regraph/internal/graph"
	"regraph/internal/pattern"
	"regraph/internal/reach"
)

func testGraph(seed int64) *graph.Graph {
	return gen.Synthetic(seed, 200, 800, 3, gen.DefaultColors)
}

func testRQs(g *graph.Graph, n int, seed int64) []reach.Query {
	r := rand.New(rand.NewSource(seed))
	qs := make([]reach.Query, n)
	for i := range qs {
		qs[i] = gen.RQ(g, 2, 3, 1+r.Intn(3), r)
	}
	return qs
}

func pairsKey(ps []reach.Pair) string {
	ss := make([]string, len(ps))
	for i, p := range ps {
		ss[i] = fmt.Sprintf("%d->%d", p.From, p.To)
	}
	sort.Strings(ss)
	return fmt.Sprint(ss)
}

// TestBatchMatchesSerial: RunBatch must return, per index, exactly what a
// serial evaluation of the same query returns — in cache mode and in
// matrix mode.
func TestBatchMatchesSerial(t *testing.T) {
	g := testGraph(7)
	qs := testRQs(g, 60, 11)

	want := make([]string, len(qs))
	for i, q := range qs {
		want[i] = pairsKey(q.EvalBFS(g))
	}
	for name, opts := range map[string]engine.Options{
		"cache":         {Workers: 4},
		"matrix":        {Workers: 4, BackendKind: "matrix"},
		"1-worker":      {Workers: 1},
		"64-worker":     {Workers: 64},
		"no-candidx":    {Workers: 4, DisableCandidateIndex: true},
		"matrix-no-idx": {Workers: 4, BackendKind: "matrix", DisableCandidateIndex: true},
	} {
		e := engine.MustNew(g, opts)
		got := e.RunRQs(qs)
		for i := range qs {
			if pairsKey(got[i]) != want[i] {
				t.Errorf("%s: query %d: got %v, want %v", name, i, pairsKey(got[i]), want[i])
			}
		}
	}
}

// TestMixedBatch runs RQs and PQs in one batch and cross-checks each
// against its serial evaluator.
func TestMixedBatch(t *testing.T) {
	g := testGraph(3)
	r := rand.New(rand.NewSource(5))
	var reqs []engine.Request
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			q := gen.RQ(g, 2, 3, 1+r.Intn(2), r)
			reqs = append(reqs, engine.Request{RQ: &q})
		} else {
			q := gen.Query(g, gen.Spec{Nodes: 3, Edges: 3, Preds: 2, Bound: 3, Colors: 2}, r)
			reqs = append(reqs, engine.Request{PQ: q})
		}
	}
	e := engine.MustNew(g, engine.Options{Workers: 3})
	res := e.RunBatch(reqs)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if reqs[i].RQ != nil {
			want := reqs[i].RQ.EvalBFS(g)
			if pairsKey(r.Pairs) != pairsKey(want) {
				t.Errorf("RQ %d: got %v, want %v", i, pairsKey(r.Pairs), pairsKey(want))
			}
		} else {
			want := pattern.JoinMatch(g, reqs[i].PQ, pattern.Options{})
			if got := r.Match.String(g); got != want.String(g) {
				t.Errorf("PQ %d: got %q, want %q", i, got, want.String(g))
			}
		}
	}
}

// TestConcurrentBatchesSharedCache is the -race stress test: many
// goroutines run batches against one engine (hence one shared
// dist.Cache) at once, while every goroutine's answers must still match
// the serial oracle exactly.
func TestConcurrentBatchesSharedCache(t *testing.T) {
	g := testGraph(13)
	qs := testRQs(g, 40, 17)
	want := make([]string, len(qs))
	for i, q := range qs {
		want[i] = pairsKey(q.EvalBFS(g))
	}

	e := engine.MustNew(g, engine.Options{Workers: 4, CacheSize: 1 << 12})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for b := 0; b < 8; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := e.RunRQs(qs)
			for i := range qs {
				if pairsKey(got[i]) != want[i] {
					select {
					case errs <- fmt.Sprintf("query %d: got %v, want %v", i, pairsKey(got[i]), want[i]):
					default:
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if hits, misses := e.Backend().(*dist.Cache).Stats(); hits == 0 && misses == 0 {
		t.Log("note: no single-atom queries hit the cache in this workload")
	}
}

// TestRequestValidation: malformed requests surface errors instead of
// panicking or being silently dropped.
func TestRequestValidation(t *testing.T) {
	g := testGraph(1)
	e := engine.MustNew(g, engine.Options{Workers: 2})
	q := testRQs(g, 1, 1)[0]
	pq := gen.Query(g, gen.Spec{Nodes: 2, Edges: 1, Preds: 1, Bound: 2, Colors: 1}, rand.New(rand.NewSource(2)))
	res := e.RunBatch([]engine.Request{
		{},
		{RQ: &q, PQ: pq},
	})
	if res[0].Err == nil {
		t.Error("empty request: want error")
	}
	if res[1].Err == nil {
		t.Error("double request: want error")
	}
}

// TestEmptyBatch must not hang on zero requests.
func TestEmptyBatch(t *testing.T) {
	e := engine.MustNew(testGraph(2), engine.Options{})
	if res := e.RunBatch(nil); len(res) != 0 {
		t.Errorf("RunBatch(nil) = %v", res)
	}
}
