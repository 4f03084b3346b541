package dist

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"regraph/internal/graph"
	"regraph/internal/rex"
)

// lowerEntry reports whether the cache holds a lower-bound entry for the
// pair.
func lowerEntry(ca *Cache, c graph.ColorID, v1, v2 graph.NodeID) bool {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	e, ok := ca.entries[cacheKey{c, v1, v2}]
	return ok && e.lower
}

// TestCacheSatProperty: over random sequences of (colour, u, v, bound)
// asks in any order — unbounded atoms, bounds 1–6, exact Dist calls
// mixed in, capacities small enough to evict — Cache.Sat equals
// a.Sat(Matrix.Dist), Matrix.Sat and TwoHop.Sat agree with it, and
// Cache.Dist stays exact after a lower-bound entry. Asks draw from a
// small node pool so pairs repeat: a lower-bound entry is then followed
// by tighter, looser and exact asks.
func TestCacheSatProperty(t *testing.T) {
	var lowerSeen, lowerHits, lowerDists int
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		g := randGraph(r, n, r.Intn(3*n), []string{"a", "b", "c"})
		mx := NewMatrix(g)
		th := NewTwoHop(g)
		ca := NewCache(g, 1+r.Intn(24))
		s := NewScratch()
		layers := allLayers(g)
		pool := make([]graph.NodeID, 1+r.Intn(6))
		for i := range pool {
			pool[i] = graph.NodeID(r.Intn(n))
		}
		for k := 0; k < 400; k++ {
			c := layers[r.Intn(len(layers))]
			u, v := pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]
			want := mx.Dist(c, u, v)
			lower := lowerEntry(ca, c, u, v)
			if lower {
				lowerSeen++
			}
			if r.Intn(4) == 0 {
				var got int32
				if r.Intn(2) == 0 {
					got = ca.Dist(c, u, v)
				} else {
					got = ca.DistScratch(c, u, v, s)
				}
				if got != want {
					t.Logf("seed %d ask %d: Cache.Dist(%d, %d, %d) = %d, want %d (lower entry before: %v)", seed, k, c, u, v, got, want, lower)
					return false
				}
				if lower {
					lowerDists++
				}
				continue
			}
			a := CAtom{Color: c, Max: rex.Unbounded}
			if r.Intn(5) != 0 {
				a.Max = 1 + r.Intn(6)
			}
			sat := a.Sat(want)
			hits, _ := ca.Stats()
			if got := ca.Sat(a, u, v, s); got != sat {
				t.Logf("seed %d ask %d: Cache.Sat(%+v, %d, %d) = %v, distance %d (lower entry before: %v)", seed, k, a, u, v, got, want, lower)
				return false
			}
			if h, _ := ca.Stats(); lower && h > hits {
				lowerHits++
			}
			var sNil *Scratch
			if r.Intn(2) == 0 {
				sNil = s
			}
			if got := mx.Sat(a, u, v, sNil); got != sat {
				t.Logf("seed %d ask %d: Matrix.Sat(%+v, %d, %d) = %v, distance %d", seed, k, a, u, v, got, want)
				return false
			}
			if got := th.Sat(a, u, v, sNil); got != sat {
				t.Logf("seed %d ask %d: TwoHop.Sat(%+v, %d, %d) = %v, distance %d", seed, k, a, u, v, got, want)
				return false
			}
			if got := BiSat(g, a, u, v, s); got != sat {
				t.Logf("seed %d ask %d: BiSat(%+v, %d, %d) = %v, distance %d", seed, k, a, u, v, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	// The property is only as good as its coverage of lower-bound
	// entries: some must answer a later ask, and some must be replaced
	// by an exact Dist.
	if lowerSeen == 0 || lowerHits == 0 || lowerDists == 0 {
		t.Fatalf("lower-bound entries not exercised: seen %d, answered %d, before Dist %d", lowerSeen, lowerHits, lowerDists)
	}
}

// TestCacheSatStoresLowerBound pins the entry life cycle on a path
// 0 -> 1 -> ... -> 9: a bounded miss stores "distance > k", which
// answers a tighter ask as a hit, while a looser ask and an exact Dist
// are misses that replace it.
func TestCacheSatStoresLowerBound(t *testing.T) {
	g := graph.New()
	for i := 0; i < 10; i++ {
		g.AddNode(string(rune('a'+i)), nil)
	}
	for i := 0; i < 9; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), "e")
	}
	e, _ := g.ColorID("e")
	ca := NewCache(g, 8)
	s := NewScratch()
	if ca.Sat(CAtom{e, 3}, 0, 9, s) {
		t.Fatal("distance 9 satisfied bound 3")
	}
	if !lowerEntry(ca, e, 0, 9) {
		t.Fatal("bounded miss did not store a lower bound")
	}
	if ca.Sat(CAtom{e, 2}, 0, 9, s) {
		t.Fatal("distance 9 satisfied bound 2")
	}
	if hits, misses := ca.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("after a tighter ask: hits=%d misses=%d, want 1 and 1", hits, misses)
	}
	if !ca.Sat(CAtom{e, 9}, 0, 9, s) {
		t.Fatal("distance 9 did not satisfy bound 9")
	}
	if lowerEntry(ca, e, 0, 9) {
		t.Fatal("an exact result did not replace the lower bound")
	}
	if d := ca.Dist(e, 0, 9); d != 9 {
		t.Fatalf("Dist = %d, want 9", d)
	}
	if hits, misses := ca.Stats(); hits != 2 || misses != 2 {
		t.Fatalf("after exact asks: hits=%d misses=%d, want 2 and 2", hits, misses)
	}
}

// countdownCtx reports cancellation from its (left+1)-th Err call on, so
// a search bound to it is cut at a chosen checkpoint.
type countdownCtx struct {
	context.Context
	left int
	done chan struct{}
}

func newCountdownCtx(left int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), left: left, done: make(chan struct{})}
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.left > 0 {
		c.left--
		return nil
	}
	return context.Canceled
}

// checkResting asserts the arena rule: distance arrays at Unreachable in
// every entry of their capacity, closure bitsets set exactly at their
// members.
func checkResting(t *testing.T, s *Scratch, when string) {
	t.Helper()
	for name, d := range map[string][]int32{"d": s.d, "d2": s.d2} {
		for i, x := range d[:cap(d)] {
			if x != graph.Unreachable {
				t.Fatalf("%s: %s[%d] = %d, want Unreachable", when, name, i, x)
			}
		}
	}
	for _, b := range []struct {
		name string
		bits []bool
		ids  []graph.NodeID
	}{{"cur", s.cur, s.curIDs}, {"next", s.next, s.nextIDs}} {
		set := 0
		for _, x := range b.bits[:cap(b.bits)] {
			if x {
				set++
			}
		}
		for _, v := range b.ids {
			if !b.bits[:cap(b.bits)][v] {
				t.Fatalf("%s: %s member %d not set", when, b.name, v)
			}
		}
		if set != len(b.ids) {
			t.Fatalf("%s: %s has %d bits set, %d members", when, b.name, set, len(b.ids))
		}
	}
}

// sameAsFresh compares searches on s with the same searches on a fresh
// arena.
func sameAsFresh(t *testing.T, g *graph.Graph, s *Scratch, when string) {
	t.Helper()
	r := rand.New(rand.NewSource(int64(g.NumNodes())))
	atoms, ok := Compile(g, rex.MustParse("a{2} b+"))
	if !ok {
		t.Fatal("compile failed")
	}
	n := g.NumNodes()
	for k := 0; k < 20; k++ {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if got, want := BiDistScratch(g, graph.AnyColor, u, v, s), BiDistScratch(g, graph.AnyColor, u, v, NewScratch()); got != want {
			t.Fatalf("%s: |V|=%d BiDist(%d, %d) = %d, fresh arena %d", when, n, u, v, got, want)
		}
		a := CAtom{Color: atoms[0].Color, Max: 1 + k%4}
		if got, want := BiSat(g, a, u, v, s), BiSat(g, a, u, v, NewScratch()); got != want {
			t.Fatalf("%s: |V|=%d BiSat(%+v, %d, %d) = %v, fresh arena %v", when, n, a, u, v, got, want)
		}
		src := []graph.NodeID{u, v}
		for _, forward := range []bool{true, false} {
			got, _ := closure(g, src, atoms, forward, s)
			got = append([]bool(nil), got...)
			want, _ := closure(g, src, atoms, forward, NewScratch())
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: |V|=%d closure(%v, forward=%v) differs at node %d", when, n, src, forward, i)
				}
			}
		}
	}
	checkResting(t, s, when)
}

// TestScratchReuseAcrossGraphsAndCancels: one arena reused across graphs
// of different |V|, after closures and BiDist searches cancelled at
// every checkpoint in turn, rests as the arena rule says and answers
// exactly as a fresh arena does.
func TestScratchReuseAcrossGraphsAndCancels(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	big := randGraph(r, 3000, 12000, []string{"a", "b"})
	small := randGraph(r, 40, 120, []string{"a", "b"})
	atoms, ok := Compile(big, rex.MustParse("a+ b+"))
	if !ok {
		t.Fatal("compile failed")
	}
	s := NewScratch()
	sameAsFresh(t, small, s, "fresh")
	for k := 0; k < 12; k++ {
		unbind := s.BindContext(newCountdownCtx(k))
		ForwardClosureOf(big, []graph.NodeID{0, 1}, atoms, s)
		unbind()
		checkResting(t, s, "after a cancelled closure")
		unbind = s.BindContext(newCountdownCtx(k))
		BiDistScratch(big, graph.AnyColor, 0, 2999, s)
		unbind()
		checkResting(t, s, "after a cancelled BiDist")
		sameAsFresh(t, small, s, "small graph after cancels")
		sameAsFresh(t, big, s, "big graph after cancels")
	}
}
