package dist

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"regraph/internal/graph"
	"regraph/internal/reachidx"
)

// TestTwoHopMatchesMatrix: the three backends must agree bit-for-bit on
// every (layer, pair) — including the non-empty diagonal and
// unreachable pairs — over random graphs. This is the Backend
// contract's equivalence clause made executable.
func TestTwoHopMatchesMatrix(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randGraph(r, 1+r.Intn(30), r.Intn(90), []string{"a", "b", "c"})
		mx := NewMatrix(g)
		th := NewTwoHop(g)
		ca := NewCache(g, 1<<12)
		for _, c := range allLayers(g) {
			for v1 := 0; v1 < g.NumNodes(); v1++ {
				for v2 := 0; v2 < g.NumNodes(); v2++ {
					want := mx.Dist(c, graph.NodeID(v1), graph.NodeID(v2))
					if got := th.Dist(c, graph.NodeID(v1), graph.NodeID(v2)); got != want {
						t.Logf("seed %d: twohop layer %d pair (%d,%d) = %d, matrix %d", seed, c, v1, v2, got, want)
						return false
					}
					if got := ca.Dist(c, graph.NodeID(v1), graph.NodeID(v2)); got != want {
						t.Logf("seed %d: cache layer %d pair (%d,%d) = %d, matrix %d", seed, c, v1, v2, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTwoHopBackendInterface: all three backends answer identically
// through the Backend interface with and without an arena.
func TestTwoHopBackendInterface(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := randGraph(r, 25, 70, []string{"x", "y"})
	mx := NewMatrix(g)
	backends := []Backend{mx, NewTwoHop(g), NewCache(g, 64)}
	s := NewScratch()
	for _, c := range allLayers(g) {
		for v1 := 0; v1 < g.NumNodes(); v1++ {
			for v2 := 0; v2 < g.NumNodes(); v2++ {
				want := mx.Dist(c, graph.NodeID(v1), graph.NodeID(v2))
				for i, be := range backends {
					if got := be.DistScratch(c, graph.NodeID(v1), graph.NodeID(v2), s); got != want {
						t.Fatalf("backend %d layer %d pair (%d,%d) = %d, want %d", i, c, v1, v2, got, want)
					}
				}
			}
		}
	}
}

// TestTwoHopFilter: with the GRAIL interval index installed as a front
// filter the answers must not change (it is a sound negative-only
// oracle), and refuted pairs must be counted.
func TestTwoHopFilter(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	// Sparse graph: plenty of genuinely unreachable pairs to refute.
	g := randGraph(r, 40, 30, []string{"a", "b"})
	mx := NewMatrix(g)
	th := NewTwoHop(g)
	th.SetFilter(reachidx.Build(g, 2))
	for _, c := range allLayers(g) {
		for v1 := 0; v1 < g.NumNodes(); v1++ {
			for v2 := 0; v2 < g.NumNodes(); v2++ {
				want := mx.Dist(c, graph.NodeID(v1), graph.NodeID(v2))
				if got := th.Dist(c, graph.NodeID(v1), graph.NodeID(v2)); got != want {
					t.Fatalf("filtered twohop layer %d pair (%d,%d) = %d, want %d", c, v1, v2, got, want)
				}
			}
		}
	}
	if th.Filtered() == 0 {
		t.Fatal("filter never fired on a sparse graph")
	}
	th.SetFilter(nil)
	if got := th.Dist(graph.AnyColor, 0, 1); got != mx.Dist(graph.AnyColor, 0, 1) {
		t.Fatalf("after removing filter: got %d", got)
	}
}

// TestTwoHopCtxCancel: a context cancelled before/during construction
// must abort the build with the context's error, not return a partial
// index.
func TestTwoHopCtxCancel(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := randGraph(r, 60, 200, []string{"a", "b", "c"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	th, err := NewTwoHopCtx(ctx, g)
	if th != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: th=%v err=%v", th, err)
	}
}

// TestTwoHopBudget: a budget far below the label footprint aborts with
// ErrTwoHopBudget; a generous budget builds the full, correct index.
func TestTwoHopBudget(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := randGraph(r, 50, 150, []string{"a", "b"})
	if th, err := NewTwoHopBudget(context.Background(), g, 64); th != nil || !errors.Is(err, ErrTwoHopBudget) {
		t.Fatalf("tiny budget: th=%v err=%v", th, err)
	}
	th, err := NewTwoHopBudget(context.Background(), g, 1<<30)
	if err != nil {
		t.Fatalf("generous budget: %v", err)
	}
	if th.Size() > 1<<30 || th.Entries() == 0 {
		t.Fatalf("implausible index: size=%d entries=%d", th.Size(), th.Entries())
	}
	mx := NewMatrix(g)
	for _, c := range allLayers(g) {
		for v1 := 0; v1 < g.NumNodes(); v1++ {
			for v2 := 0; v2 < g.NumNodes(); v2++ {
				if th.Dist(c, graph.NodeID(v1), graph.NodeID(v2)) != mx.Dist(c, graph.NodeID(v1), graph.NodeID(v2)) {
					t.Fatalf("budgeted build differs at layer %d pair (%d,%d)", c, v1, v2)
				}
			}
		}
	}
}

// TestTwoHopConcurrent: one shared index queried from many goroutines
// (run under -race in CI) — TwoHop is immutable after construction, so
// concurrent readers must see identical answers with no synchronization.
func TestTwoHopConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	g := randGraph(r, 40, 160, []string{"a", "b", "c"})
	mx := NewMatrix(g)
	th := NewTwoHop(g)
	th.SetFilter(reachidx.Build(g, 2))
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			s := NewScratch()
			layers := allLayers(g)
			for i := 0; i < 2000; i++ {
				c := layers[rr.Intn(len(layers))]
				v1 := graph.NodeID(rr.Intn(g.NumNodes()))
				v2 := graph.NodeID(rr.Intn(g.NumNodes()))
				if got, want := th.DistScratch(c, v1, v2, s), mx.Dist(c, v1, v2); got != want {
					select {
					case errs <- "concurrent mismatch":
					default:
					}
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestMatrixBytes: the engine's auto-selection quantity must match the
// actual allocation Matrix makes, one byte per cell.
func TestMatrixBytes(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	g := randGraph(r, 17, 40, []string{"a", "b", "c"})
	if got, want := PredictMatrixBytes(g), NewMatrix(g).Size(); got != want {
		t.Fatalf("PredictMatrixBytes = %d, Matrix.Size = %d", got, want)
	}
	if got, want := MatrixBytes(17, 3), int64(4*17*17); got != want {
		t.Fatalf("MatrixBytes(17, 3) = %d, want %d", got, want)
	}
}

// TestTwoHopDistCtx: a dead context bound to the arena leaves label
// merges and cell loads alone — they finish faster than a poll — so
// both index backends still answer exactly under it.
func TestTwoHopDistCtx(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	g := randGraph(r, 10, 25, []string{"a"})
	th := NewTwoHop(g)
	mx := NewMatrix(g)
	s := NewScratch()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	unbind := s.BindContext(ctx)
	defer unbind()
	a := CAtom{Color: graph.AnyColor, Max: 3}
	for v1 := graph.NodeID(0); v1 < 10; v1++ {
		for v2 := graph.NodeID(0); v2 < 10; v2++ {
			want := mx.Dist(graph.AnyColor, v1, v2)
			if d := th.DistScratch(graph.AnyColor, v1, v2, s); d != want {
				t.Fatalf("cancelled ctx: twohop Dist(%d, %d) = %d, want %d", v1, v2, d, want)
			}
			if th.Sat(a, v1, v2, s) != a.Sat(want) || mx.Sat(a, v1, v2, s) != a.Sat(want) {
				t.Fatalf("cancelled ctx: Sat(%d, %d) differs from distance %d", v1, v2, want)
			}
		}
	}
}
