package candidx_test

import (
	"fmt"
	"math/rand"
	"testing"

	"regraph/internal/candidx"
	"regraph/internal/gen"
	"regraph/internal/graph"
	"regraph/internal/predicate"
	"regraph/internal/reach"
)

// valuePool exercises every corner of predicate.Compare's two-domain
// ordering: plain numerics, equal-but-differently-spelled numerics
// ("1"/"1.0", "0"/"00"/"-0"), NaN and infinities (Compare reports NaN
// equal to every number), hex/underscore shapes that pass the
// looksNumeric pre-check but may fail ParseFloat, plain words, and
// values needing quoting (spaces, commas, embedded quotes).
var valuePool = []string{
	"0", "00", "-0", "1", "1.0", "5", "-3.5", "9", "10", "007", "1e2", "100",
	"nan", "NaN", "inf", "-inf", "Infinity",
	"0x10", "1_0", "+5", "face1", "abc", "zzz", "",
	"Film & Animation", "a, b", `he said "hi"`, "user007",
}

var attrPool = []string{"x", "y", "z", "w"}

// mixedGraph builds a graph whose nodes carry random subsets of
// attrPool with values drawn from valuePool.
func mixedGraph(r *rand.Rand, n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		attrs := map[string]string{}
		for _, a := range attrPool {
			if r.Intn(4) > 0 { // 3/4 of nodes carry each attribute
				attrs[a] = valuePool[r.Intn(len(valuePool))]
			}
		}
		g.AddNode(fmt.Sprintf("n%d", i), attrs)
	}
	return g
}

// randPred draws a random conjunction (possibly always-true) over the
// given attribute names and value pool.
func randPred(r *rand.Rand, attrs, vals []string) predicate.Pred {
	k := r.Intn(4) // 0 clauses = the always-true predicate
	cs := make([]predicate.Clause, k)
	for i := range cs {
		cs[i] = predicate.Clause{
			Attr:  attrs[r.Intn(len(attrs))],
			Op:    predicate.Op(r.Intn(6)),
			Value: vals[r.Intn(len(vals))],
		}
	}
	return predicate.New(cs...)
}

func sameIDs(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkPred asserts index answer == scan answer, exactly (content and
// order).
func checkPred(t *testing.T, g *graph.Graph, ix *candidx.Index, p predicate.Pred) {
	t.Helper()
	want := reach.Candidates(g, p)
	got := ix.Candidates(p)
	if !sameIDs(got, want) {
		t.Fatalf("pred %q: index %v != scan %v", p, got, want)
	}
}

// TestIndexMatchesScanMixedValues is the property test on adversarial
// attribute values: for random graphs mixing numeric and lexicographic
// value domains and random predicates (all six operators, quoted
// values, the always-true predicate), the inverted index must return
// exactly the linear scan's candidate slice.
func TestIndexMatchesScanMixedValues(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := mixedGraph(r, 30+r.Intn(120))
		ix := candidx.Build(g)
		for q := 0; q < 300; q++ {
			p := randPred(r, attrPool, valuePool)
			checkPred(t, g, ix, p)
			// Round-trip through the concrete syntax (quoted values,
			// comma-separated clauses) when the predicate can render:
			// empty values have no unambiguous spelling.
			renderable := true
			for _, c := range p.Clauses() {
				if c.Value == "" {
					renderable = false
				}
			}
			if renderable {
				p2, err := predicate.Parse(p.String())
				if err != nil {
					t.Fatalf("re-parse %q: %v", p.String(), err)
				}
				checkPred(t, g, ix, p2)
			}
		}
	}
}

// TestIndexMatchesScanSynthetic runs the same property on the
// generator's synthetic graphs (integer-valued attributes, the bench
// workload's shape), including predicates on absent attributes and
// non-numeric constants against numeric values.
func TestIndexMatchesScanSynthetic(t *testing.T) {
	vals := []string{"0", "3", "5", "5.0", "9", "10", "abc", "-1", "nan"}
	attrs := []string{"a0", "a1", "a2", "missing"}
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		g := gen.Synthetic(seed, 150, 600, 3, gen.DefaultColors)
		ix := candidx.Build(g)
		for q := 0; q < 200; q++ {
			checkPred(t, g, ix, randPred(r, attrs, vals))
		}
	}
}

// TestCandidatesAppendReuse: the Append form must honor a reused
// prefix, as reach.CandidatesAppend does.
func TestCandidatesAppendReuse(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := mixedGraph(r, 60)
	ix := candidx.Build(g)
	buf := make([]graph.NodeID, 0, 64)
	for q := 0; q < 50; q++ {
		p := randPred(r, attrPool, valuePool)
		buf = buf[:0]
		buf = ix.CandidatesAppend(buf, p)
		if !sameIDs(buf, reach.Candidates(g, p)) {
			t.Fatalf("pred %q: append-form mismatch", p)
		}
	}
}

// TestMemoEpochInvalidation: after any graph mutation the memo must
// re-answer from the post-mutation graph, never the cached snapshot.
func TestMemoEpochInvalidation(t *testing.T) {
	g := graph.New()
	g.AddNode("a", map[string]string{"job": "doctor", "age": "30"})
	g.AddNode("b", map[string]string{"job": "nurse", "age": "40"})
	m := candidx.NewMemo(g)
	p := predicate.MustParse("job = doctor")

	if got := m.Candidates(p); !sameIDs(got, []graph.NodeID{0}) {
		t.Fatalf("initial: got %v", got)
	}
	// AddNode bumps the epoch and changes the answer.
	g.AddNode("c", map[string]string{"job": "doctor"})
	if got := m.Candidates(p); !sameIDs(got, []graph.NodeID{0, 2}) {
		t.Fatalf("after AddNode: got %v, want [0 2]", got)
	}
	// Edge mutations bump the epoch too (candidates unchanged but the
	// memo must revalidate, not panic or serve garbage).
	g.AddEdge(0, 1, "fn")
	if got := m.Candidates(p); !sameIDs(got, []graph.NodeID{0, 2}) {
		t.Fatalf("after AddEdge: got %v", got)
	}
	g.RemoveEdge(0, 1, "fn")
	if got := m.Candidates(p); !sameIDs(got, []graph.NodeID{0, 2}) {
		t.Fatalf("after RemoveEdge: got %v", got)
	}
	// With no mutation in between, the second identical lookup is a
	// map hit.
	h0, _ := m.Stats()
	m.Candidates(p)
	if h1, _ := m.Stats(); h1 != h0+1 {
		t.Fatalf("repeat lookup: hits %d -> %d, want +1", h0, h1)
	}
}

func key(p predicate.Pred) string { return string(p.AppendKey(nil)) }

// TestMemoCanonicalKey: clause order must not defeat memoization, and
// must not change answers.
func TestMemoCanonicalKey(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := mixedGraph(r, 80)
	m := candidx.NewMemo(g)
	c1 := predicate.Clause{Attr: "x", Op: predicate.Ge, Value: "3"}
	c2 := predicate.Clause{Attr: "y", Op: predicate.Ne, Value: "abc"}
	p12, p21 := predicate.New(c1, c2), predicate.New(c2, c1)
	if key(p12) != key(p21) {
		t.Fatalf("keys differ: %q vs %q", key(p12), key(p21))
	}
	a := m.Candidates(p12)
	h0, m0 := m.Stats()
	b := m.Candidates(p21)
	h1, m1 := m.Stats()
	if !sameIDs(a, b) {
		t.Fatalf("reordered conjunction changed the answer: %v vs %v", a, b)
	}
	if h1 != h0+1 || m1 != m0 {
		t.Fatalf("reordered conjunction missed the memo: hits %d->%d misses %d->%d", h0, h1, m0, m1)
	}
}

// TestMemoKeyUnambiguous: predicate cache keys must be a prefix code —
// attribute values may contain any byte (quoted syntax admits control
// characters), so two distinct predicates must never share a key and
// silently serve each other's candidate sets.
func TestMemoKeyUnambiguous(t *testing.T) {
	// Crafted so a separator-based encoding ("a\x00=\x00x\x01a\x00=\x00y")
	// would collide: one satisfiable single-clause predicate vs an
	// unsatisfiable two-clause conjunction.
	tricky := predicate.New(predicate.Clause{
		Attr: "a", Op: predicate.Eq, Value: "x\x01a\x00=\x00y",
	})
	pair := predicate.New(
		predicate.Clause{Attr: "a", Op: predicate.Eq, Value: "x"},
		predicate.Clause{Attr: "a", Op: predicate.Eq, Value: "y"},
	)
	if key(tricky) == key(pair) {
		t.Fatalf("distinct predicates share key %q", key(tricky))
	}
	// Operator spellings must not absorb a neighboring value either.
	ltEq := predicate.New(predicate.Clause{Attr: "a", Op: predicate.Lt, Value: "=5"})
	leFive := predicate.New(predicate.Clause{Attr: "a", Op: predicate.Le, Value: "5"})
	if key(ltEq) == key(leFive) {
		t.Fatalf("a < \"=5\" and a <= 5 share key %q", key(ltEq))
	}

	g := graph.New()
	g.AddNode("n0", map[string]string{"a": "x\x01a\x00=\x00y"})
	g.AddNode("n1", map[string]string{"a": "x"})
	m := candidx.NewMemo(g)
	for _, p := range []predicate.Pred{tricky, pair, ltEq, leFive} {
		got := m.Candidates(p)
		if want := reach.Candidates(g, p); !sameIDs(got, want) {
			t.Fatalf("pred %q: memo %v != scan %v", p, got, want)
		}
	}
}

// TestMemoHitAllocatesNothing: a memo hit builds its key on the stack
// and looks it up without converting it to a string.
func TestMemoHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := gen.Synthetic(3, 200, 600, 3, gen.DefaultColors)
	m := candidx.NewMemo(g)
	p := predicate.MustParse("x = 1, y <= 20, z != abc")
	m.Candidates(p) // the miss that stores the key
	if got := testing.AllocsPerRun(100, func() { m.Candidates(p) }); got != 0 {
		t.Fatalf("memo hit: %v allocations, want 0", got)
	}
}
