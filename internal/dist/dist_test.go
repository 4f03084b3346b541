package dist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"regraph/internal/graph"
	"regraph/internal/rex"
)

// randGraph builds a seeded random graph over the given colors. It is
// hand-rolled here because internal/gen depends (via pattern) on this
// package.
func randGraph(r *rand.Rand, n, e int, colors []string) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), nil)
	}
	for i := 0; i < e; i++ {
		g.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)), colors[r.Intn(len(colors))])
	}
	return g
}

func allLayers(g *graph.Graph) []graph.ColorID {
	out := []graph.ColorID{graph.AnyColor}
	for c := 0; c < g.NumColors(); c++ {
		out = append(out, graph.ColorID(c))
	}
	return out
}

// TestParallelMatrixMatchesSerial: the concurrent build must produce
// exactly the serial build's layers.
func TestParallelMatrixMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randGraph(r, 1+r.Intn(30), r.Intn(90), []string{"a", "b", "c"})
		par := NewMatrix(g)
		ser := newMatrixSerial(g)
		for _, c := range allLayers(g) {
			for v1 := 0; v1 < g.NumNodes(); v1++ {
				for v2 := 0; v2 < g.NumNodes(); v2++ {
					if par.Dist(c, graph.NodeID(v1), graph.NodeID(v2)) != ser.Dist(c, graph.NodeID(v1), graph.NodeID(v2)) {
						t.Logf("seed %d: layer %d pair (%d,%d) differs", seed, c, v1, v2)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMatrixSelfDistance: the diagonal holds the shortest non-empty
// cycle, not zero.
func TestMatrixSelfDistance(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	c := g.AddNode("c", nil)
	d := g.AddNode("d", nil)
	g.AddEdge(a, b, "x")
	g.AddEdge(b, a, "x") // 2-cycle a <-> b
	g.AddEdge(c, c, "x") // self-loop
	g.AddEdge(c, d, "x") // d: acyclic
	mx := NewMatrix(g)
	x, _ := g.ColorID("x")
	for _, tc := range []struct {
		v    graph.NodeID
		want int32
	}{{a, 2}, {b, 2}, {c, 1}, {d, graph.Unreachable}} {
		if got := mx.Dist(x, tc.v, tc.v); got != tc.want {
			t.Errorf("Dist(%v, %v) = %d, want %d", tc.v, tc.v, got, tc.want)
		}
	}
	if got := mx.Dist(graph.AnyColor, a, a); got != 2 {
		t.Errorf("wildcard self distance = %d, want 2", got)
	}
}

// TestMatrixRespectsColors: a path of mixed colors must not register on
// any single-color layer.
func TestMatrixRespectsColors(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	c := g.AddNode("c", nil)
	g.AddEdge(a, b, "x")
	g.AddEdge(b, c, "y")
	mx := NewMatrix(g)
	x, _ := g.ColorID("x")
	y, _ := g.ColorID("y")
	if got := mx.Dist(x, a, c); got != graph.Unreachable {
		t.Errorf("x-layer a->c = %d, want unreachable", got)
	}
	if got := mx.Dist(y, a, c); got != graph.Unreachable {
		t.Errorf("y-layer a->c = %d, want unreachable", got)
	}
	if got := mx.Dist(graph.AnyColor, a, c); got != 2 {
		t.Errorf("wildcard a->c = %d, want 2", got)
	}
}

// TestBiDistAgreesWithMatrix: the runtime bi-directional search must
// reproduce every matrix entry, on every layer, including diagonals.
func TestBiDistAgreesWithMatrix(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randGraph(r, 1+r.Intn(18), r.Intn(50), []string{"a", "b"})
		mx := NewMatrix(g)
		for _, c := range allLayers(g) {
			for v1 := 0; v1 < g.NumNodes(); v1++ {
				for v2 := 0; v2 < g.NumNodes(); v2++ {
					want := mx.Dist(c, graph.NodeID(v1), graph.NodeID(v2))
					got := BiDist(g, c, graph.NodeID(v1), graph.NodeID(v2))
					if got != want {
						t.Logf("seed %d: BiDist(%d, %d->%d) = %d, matrix %d", seed, c, v1, v2, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestCompile(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddEdge(a, b, "x")
	atoms, ok := Compile(g, rex.MustParse("x{3} _+"))
	if !ok || len(atoms) != 2 {
		t.Fatalf("Compile = %v, %v", atoms, ok)
	}
	x, _ := g.ColorID("x")
	if atoms[0].Color != x || atoms[0].Max != 3 {
		t.Errorf("atom 0 = %+v", atoms[0])
	}
	if atoms[1].Color != graph.AnyColor || atoms[1].Max != rex.Unbounded {
		t.Errorf("atom 1 = %+v", atoms[1])
	}
	if _, ok := Compile(g, rex.MustParse("nosuch")); ok {
		t.Error("unknown color must not compile")
	}
	if _, ok := Compile(g, rex.Expr{}); ok {
		t.Error("zero expression must not compile")
	}
}

func TestCAtomSat(t *testing.T) {
	bounded := CAtom{Color: 0, Max: 3}
	unbounded := CAtom{Color: 0, Max: rex.Unbounded}
	for _, tc := range []struct {
		a    CAtom
		d    int32
		want bool
	}{
		{bounded, graph.Unreachable, false},
		{bounded, 0, false}, // empty paths never satisfy an atom
		{bounded, 1, true},
		{bounded, 3, true},
		{bounded, 4, false},
		{unbounded, graph.Unreachable, false},
		{unbounded, 1, true},
		{unbounded, 1 << 20, true},
		// Bounds above MaxInt32 parse fine on 64-bit and must not
		// truncate negative.
		{CAtom{Color: 0, Max: 3_000_000_000}, 1, true},
	} {
		if got := tc.a.Sat(tc.d); got != tc.want {
			t.Errorf("%+v.Sat(%d) = %v, want %v", tc.a, tc.d, got, tc.want)
		}
	}
}

// chainReachBrute checks v1 -> v2 over an atom chain by depth-first
// enumeration of block lengths, the direct reading of the subclass-F
// semantics. Exponential, fine at test sizes.
func chainReachBrute(g *graph.Graph, atoms []CAtom, v1, v2 graph.NodeID) bool {
	if len(atoms) == 0 {
		return v1 == v2
	}
	a := atoms[0]
	limit := g.NumNodes()
	if a.Max != rex.Unbounded && a.Max < limit {
		limit = a.Max
	}
	// BFS frontier per step count over this color.
	cur := map[graph.NodeID]bool{v1: true}
	seenAt := map[graph.NodeID]bool{}
	for step := 1; step <= limit; step++ {
		next := map[graph.NodeID]bool{}
		for v := range cur {
			for _, e := range g.Out(v) {
				if a.Color == graph.AnyColor || e.Color == a.Color {
					next[e.To] = true
				}
			}
		}
		for w := range next {
			if !seenAt[w] {
				seenAt[w] = true
				if chainReachBrute(g, atoms[1:], w, v2) {
					return true
				}
			}
		}
		cur = next
		if len(cur) == 0 {
			break
		}
	}
	return false
}

// TestClosuresAndPairsAgainstBrute: ForwardClosure, BackwardClosure
// and the pair enumerator, at every split and at the planned one, must
// all agree with the brute-force semantics on random graphs and random
// atom chains.
func TestClosuresAndPairsAgainstBrute(t *testing.T) {
	s := NewScratch()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randGraph(r, 2+r.Intn(9), r.Intn(25), []string{"a", "b"})
		n := g.NumNodes()
		nAtoms := 1 + r.Intn(3)
		atoms := make([]CAtom, nAtoms)
		for i := range atoms {
			c := graph.ColorID(r.Intn(g.NumColors() + 1))
			if int(c) == g.NumColors() {
				c = graph.AnyColor
			}
			m := 1 + r.Intn(3)
			if r.Intn(5) == 0 {
				m = rex.Unbounded
			}
			atoms[i] = CAtom{Color: c, Max: m}
		}
		all := make([]graph.NodeID, n)
		var wantPairs [][2]graph.NodeID
		for v1 := 0; v1 < n; v1++ {
			all[v1] = graph.NodeID(v1)
			src := make([]bool, n)
			src[v1] = true
			fc := ForwardClosure(g, src, atoms)
			for v2 := 0; v2 < n; v2++ {
				want := chainReachBrute(g, atoms, graph.NodeID(v1), graph.NodeID(v2))
				if want {
					wantPairs = append(wantPairs, [2]graph.NodeID{graph.NodeID(v1), graph.NodeID(v2)})
				}
				if fc[v2] != want {
					t.Logf("seed %d: ForwardClosure(%d)[%d] = %v, want %v (atoms %+v)", seed, v1, v2, fc[v2], want, atoms)
					return false
				}
				dst := make([]bool, n)
				dst[v2] = true
				if got := BackwardClosure(g, dst, atoms)[v1]; got != want {
					t.Logf("seed %d: BackwardClosure(%d)[%d] = %v, want %v", seed, v2, v1, got, want)
					return false
				}
			}
		}
		for k := -1; k <= nAtoms; k++ {
			var got [][2]graph.NodeID
			add := func(x, y graph.NodeID) bool {
				got = append(got, [2]graph.NodeID{x, y})
				return true
			}
			if k < 0 {
				Pairs(g, atoms, all, all, s, add)
			} else {
				pairsAt(g, atoms, all, all, k, s, add)
			}
			if !slices.Equal(got, wantPairs) {
				t.Logf("seed %d: pairs split at %d (-1 = planned) = %v, want %v (atoms %+v)", seed, k, got, wantPairs, atoms)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestClosureEmptyChain: an empty chain is the empty path — the closure
// is the source set itself, as a fresh slice.
func TestClosureEmptyChain(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddEdge(a, b, "x")
	src := []bool{true, false}
	fc := ForwardClosure(g, src, nil)
	if !fc[0] || fc[1] {
		t.Errorf("empty-chain closure = %v, want src", fc)
	}
	fc[1] = true
	if src[1] {
		t.Error("closure must not alias the caller's source set")
	}
}

// TestMultiSourceClosureIncludesSources: a source reached from another
// source via a non-empty path must be in the image (depth-0 marking must
// not mask it).
func TestMultiSourceClosureIncludesSources(t *testing.T) {
	g := graph.New()
	x := g.AddNode("x", nil)
	y := g.AddNode("y", nil)
	g.AddNode("z", nil)
	g.AddEdge(y, x, "a")
	atoms := []CAtom{{Color: 0, Max: 3}}
	src := []bool{true, true, false} // {x, y}
	fc := ForwardClosure(g, src, atoms)
	if !fc[x] {
		t.Error("x is reachable from source y in one hop; must be in the image")
	}
	if fc[y] {
		t.Error("y has no incoming a-edge; must not be in the image")
	}
}

// TestHugeBoundBehavesAsUnbounded: a bound beyond int32 (and beyond |V|)
// must behave like c+, not overflow into an unsatisfiable atom.
func TestHugeBoundBehavesAsUnbounded(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddEdge(a, b, "x")
	atoms := []CAtom{{Color: 0, Max: 3_000_000_000}}
	src := []bool{true, false}
	if fc := ForwardClosure(g, src, atoms); !fc[b] {
		t.Error("huge-bound atom must still reach the direct successor")
	}
	found := false
	Pairs(g, atoms, []graph.NodeID{a}, []graph.NodeID{b}, NewScratch(), func(x, y graph.NodeID) bool {
		found = true
		return true
	})
	if !found {
		t.Error("Pairs must agree")
	}
}

func TestCacheLRUAndStats(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := randGraph(r, 12, 30, []string{"a"})
	a, _ := g.ColorID("a")
	ca := NewCache(g, 4)
	mx := NewMatrix(g)

	// First pass: all misses; second pass over the same 3 pairs: all hits
	// (capacity 4 keeps them resident).
	pairs := [][2]graph.NodeID{{0, 1}, {2, 3}, {4, 5}}
	for pass := 0; pass < 2; pass++ {
		for _, p := range pairs {
			if got, want := ca.Dist(a, p[0], p[1]), mx.Dist(a, p[0], p[1]); got != want {
				t.Fatalf("cache Dist(%d,%d) = %d, want %d", p[0], p[1], got, want)
			}
		}
	}
	hits, misses := ca.Stats()
	if hits != 3 || misses != 3 {
		t.Errorf("Stats = (%d, %d), want (3, 3)", hits, misses)
	}

	// Sweep many distinct pairs through a capacity-1 cache: every lookup
	// of a new pair must evict, but answers stay exact.
	small := NewCache(g, 1)
	for v1 := 0; v1 < g.NumNodes(); v1++ {
		for v2 := 0; v2 < g.NumNodes(); v2++ {
			if got, want := small.Dist(a, graph.NodeID(v1), graph.NodeID(v2)), mx.Dist(a, graph.NodeID(v1), graph.NodeID(v2)); got != want {
				t.Fatalf("capacity-1 cache Dist(%d,%d) = %d, want %d", v1, v2, got, want)
			}
		}
	}
	if h, _ := small.Stats(); h != 0 {
		t.Errorf("distinct-pair sweep through capacity 1 should never hit, got %d hits", h)
	}
}

// exactFilter is a Filter built from the matrix itself: refutes exactly
// the unreachable pairs.
type exactFilter struct{ mx *Matrix }

func (f exactFilter) MaybeReaches(c graph.ColorID, v1, v2 graph.NodeID) bool {
	return f.mx.Dist(c, v1, v2) >= 0
}

func TestCacheFilter(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := randGraph(r, 14, 18, []string{"a", "b"})
	mx := NewMatrix(g)
	ca := NewCache(g, 64)
	ca.SetFilter(exactFilter{mx})
	a, _ := g.ColorID("a")
	unreachable := 0
	for v1 := 0; v1 < g.NumNodes(); v1++ {
		for v2 := 0; v2 < g.NumNodes(); v2++ {
			want := mx.Dist(a, graph.NodeID(v1), graph.NodeID(v2))
			if got := ca.Dist(a, graph.NodeID(v1), graph.NodeID(v2)); got != want {
				t.Fatalf("filtered Dist(%d,%d) = %d, want %d", v1, v2, got, want)
			}
			if want == graph.Unreachable {
				unreachable++
			}
		}
	}
	if got := ca.Filtered(); got != unreachable {
		t.Errorf("Filtered = %d, want %d (one per unreachable pair)", got, unreachable)
	}
	_, misses := ca.Stats()
	total := g.NumNodes() * g.NumNodes()
	if misses != total-unreachable {
		t.Errorf("misses = %d, want %d (filtered pairs skip the search)", misses, total-unreachable)
	}
}

func TestMatrixSize(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := randGraph(r, 10, 20, []string{"a", "b"})
	mx := NewMatrix(g)
	want := int64(g.NumColors()+1) * 10 * 10 // one byte per cell
	if got := mx.Size(); got != want {
		t.Errorf("Size = %d, want %d", got, want)
	}
}
