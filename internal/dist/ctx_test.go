package dist

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"regraph/internal/graph"
	"regraph/internal/rex"
)

func ctxTestGraph() (*graph.Graph, []CAtom) {
	r := rand.New(rand.NewSource(1))
	g := graph.New()
	const n = 300
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), nil)
	}
	colors := []string{"a", "b"}
	for i := 0; i < 1200; i++ {
		g.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)), colors[r.Intn(2)])
	}
	atoms, ok := Compile(g, rex.MustParse("a+ b+"))
	if !ok {
		panic("compile failed")
	}
	return g, atoms
}

// TestClosureCtxLive: with a live context bound to the arena, the
// closures agree exactly with their unbound forms and the arena does
// not report a cancellation.
func TestClosureCtxLive(t *testing.T) {
	g, atoms := ctxTestGraph()
	s := NewScratch()
	src := make([]bool, g.NumNodes())
	src[0], src[17] = true, true
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	unbind := s.BindContext(ctx)
	defer unbind()

	want := ForwardClosure(g, src, atoms)
	got := ForwardClosureScratch(g, src, atoms, s)
	if s.Canceled() {
		t.Fatal("live context reported as cancelled")
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("forward closure differs at node %d", i)
		}
	}
	wantB := BackwardClosure(g, src, atoms)
	gotB := BackwardClosureScratch(g, src, atoms, s)
	if s.Canceled() {
		t.Fatal("live context reported as cancelled")
	}
	for i := range wantB {
		if wantB[i] != gotB[i] {
			t.Fatalf("backward closure differs at node %d", i)
		}
	}
}

// TestClosureCtxCancelled: with a dead context bound, every search
// primitive leaves the arena reporting Canceled, and once unbound the
// arena is clean (a later plain call works).
func TestClosureCtxCancelled(t *testing.T) {
	g, atoms := ctxTestGraph()
	s := NewScratch()
	src := make([]bool, g.NumNodes())
	src[0] = true
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for name, search := range map[string]func(){
		"forward":  func() { ForwardClosureScratch(g, src, atoms, s) },
		"backward": func() { BackwardClosureScratch(g, src, atoms, s) },
		"bidist":   func() { BiDistScratch(g, graph.AnyColor, 0, 5, s) },
	} {
		unbind := s.BindContext(ctx)
		search()
		if !s.Canceled() {
			t.Fatalf("%s: arena not cancelled under a dead context", name)
		}
		unbind()
	}
	// The binding must not leak into subsequent plain calls on the arena.
	if s.Canceled() {
		t.Fatal("arena still reports cancelled after unbind")
	}
	want := ForwardClosure(g, src, atoms)
	got := ForwardClosureScratch(g, src, atoms, s)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("post-cancel plain closure differs at node %d", i)
		}
	}
}

// TestCacheDistCtxNoPollution: a miss searched under a dead context
// must not store a (possibly wrong) distance; the next lookup
// recomputes and agrees with the uncached search.
func TestCacheDistCtxNoPollution(t *testing.T) {
	g, _ := ctxTestGraph()
	ca := NewCache(g, 64)
	s := NewScratch()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	unbind := s.BindContext(ctx)
	ca.DistScratch(graph.AnyColor, 3, 250, s)
	ca.Sat(CAtom{Color: graph.AnyColor, Max: 2}, 3, 250, s)
	if !s.Canceled() {
		t.Fatal("arena not cancelled under a dead context")
	}
	unbind()
	if hits, misses := ca.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("stats after cancelled misses: hits=%d misses=%d", hits, misses)
	}
	want := BiDist(g, graph.AnyColor, 3, 250)
	if got := ca.DistScratch(graph.AnyColor, 3, 250, s); got != want {
		t.Fatalf("post-cancel dist = %d, want %d", got, want)
	}
	if hits, misses := ca.Stats(); hits != 0 || misses != 3 {
		t.Fatalf("stats after the live miss: hits=%d misses=%d", hits, misses)
	}
	// And the good value is now cached.
	if d := ca.Dist(graph.AnyColor, 3, 250); d != want {
		t.Fatalf("cached dist = %d, want %d", d, want)
	}
	if hits, _ := ca.Stats(); hits != 1 {
		t.Fatalf("cached lookup missed: hits=%d", hits)
	}
}
