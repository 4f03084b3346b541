package dist_test

import (
	"fmt"
	"slices"
	"testing"

	"regraph/internal/dist"
	"regraph/internal/graph"
	"regraph/internal/rex"
)

// pairsCase is one decoded FuzzPairs input: a small graph, an atom
// chain, and ordered source and destination lists (repeats allowed).
type pairsCase struct {
	g        *graph.Graph
	atoms    []dist.CAtom
	src, dst []graph.NodeID
}

// decodePairsCase reads a case from fuzz bytes. Every byte string
// decodes to some case: missing bytes read as zero.
//
//	n = 1 + b%48 nodes, 1 + b%3 colors, 2 + b%3 atoms;
//	per atom a color byte (the last value is the wildcard) and a bound
//	byte from {1, 2, 3, 5, |V| + b%3, unbounded};
//	source and destination lists of up to 15 node bytes each;
//	then edges, three bytes each (from, to, color), up to 256.
//
// Self-loops and parallel edges of any colors come out of the edge
// bytes as they fall.
func decodePairsCase(data []byte) pairsCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%48
	colors := 1 + next()%3
	nAtoms := 2 + next()%3
	g := graph.New()
	for v := 0; v < n; v++ {
		g.AddNode(fmt.Sprintf("v%d", v), nil)
	}
	for c := 0; c < colors; c++ {
		g.InternColor(string(rune('a' + c)))
	}
	var c pairsCase
	c.g = g
	for i := 0; i < nAtoms; i++ {
		col := graph.ColorID(next() % (colors + 1))
		if int(col) == colors {
			col = graph.AnyColor
		}
		b := next()
		bounds := []int{1, 2, 3, 5, n + b/6%3, rex.Unbounded}
		c.atoms = append(c.atoms, dist.CAtom{Color: col, Max: bounds[b%6]})
	}
	for _, list := range []*[]graph.NodeID{&c.src, &c.dst} {
		for k := next() % 16; k > 0; k-- {
			*list = append(*list, graph.NodeID(next()%n))
		}
	}
	for e := 0; e < 256 && len(data) >= 3; e++ {
		from, to, col := next()%n, next()%n, next()%colors
		g.AddEdge(graph.NodeID(from), graph.NodeID(to), string(rune('a'+col)))
	}
	return c
}

// brutePairs is the reference answer, with no dist code: for each
// source a BFS over states (node, atom index, steps taken in the atom),
// where an edge of the atom's color extends the atom within its bound
// and an atom with at least one step may hand over to the next one. A
// destination answers when the last atom ends on it. Pairs come in src
// order, each source's destinations in dst order.
func brutePairs(c pairsCase) [][2]graph.NodeID {
	g, atoms := c.g, c.atoms
	n := g.NumNodes()
	// An unbounded atom's steps are capped at 1: beyond the first step
	// only "at least one" matters. A bounded one counts to its bound.
	limit := make([]int, len(atoms))
	for i, a := range atoms {
		limit[i] = a.Max
		if a.Max == rex.Unbounded {
			limit[i] = 1
		}
	}
	type state struct{ v, i, s int }
	var out [][2]graph.NodeID
	for _, x := range c.src {
		seen := map[state]bool{}
		ends := make([]bool, n)
		queue := []state{{int(x), 0, 0}}
		seen[queue[0]] = true
		for len(queue) > 0 {
			st := queue[0]
			queue = queue[1:]
			var nexts []state
			if st.s > 0 {
				if st.i+1 == len(atoms) {
					ends[st.v] = true
				} else {
					nexts = append(nexts, state{st.v, st.i + 1, 0})
				}
			}
			a := atoms[st.i]
			if a.Max == rex.Unbounded || st.s < a.Max {
				for _, e := range g.Out(graph.NodeID(st.v)) {
					if a.Color == graph.AnyColor || e.Color == a.Color {
						nexts = append(nexts, state{int(e.To), st.i, min(st.s+1, limit[st.i])})
					}
				}
			}
			for _, ns := range nexts {
				if !seen[ns] {
					seen[ns] = true
					queue = append(queue, ns)
				}
			}
		}
		for _, y := range c.dst {
			if ends[y] {
				out = append(out, [2]graph.NodeID{x, y})
			}
		}
	}
	return out
}

// FuzzPairs checks the pair enumerator against brutePairs at every
// split and at the planned one, pairs and order alike.
func FuzzPairs(f *testing.F) {
	f.Add([]byte{5, 1, 0, 0, 0, 1, 1, 2, 0, 1, 2, 3, 4, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 0, 0})
	f.Add([]byte{12, 2, 2, 3, 5, 0, 4, 1, 3, 2, 1, 4, 0, 5, 9, 2, 11, 3, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1, 1, 1, 2, 2, 0, 7, 7, 2, 3, 4, 1})
	s := dist.NewScratch()
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodePairsCase(data)
		want := brutePairs(c)
		for k := -1; k <= len(c.atoms); k++ {
			var got [][2]graph.NodeID
			add := func(x, y graph.NodeID) bool {
				got = append(got, [2]graph.NodeID{x, y})
				return true
			}
			if k < 0 {
				dist.Pairs(c.g, c.atoms, c.src, c.dst, s, add)
			} else {
				dist.PairsAt(c.g, c.atoms, c.src, c.dst, k, s, add)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("split %d (-1 = planned %d), atoms %+v, src %v, dst %v:\n got  %v\n want %v",
					k, dist.PlanSplit(c.g, c.atoms, c.src, c.dst, s), c.atoms, c.src, c.dst, got, want)
			}
		}
	})
}

// TestPairsStopsWhenYieldDeclines: returning false from yield ends the
// enumeration at every split, after exactly the pairs yielded so far.
func TestPairsStopsWhenYieldDeclines(t *testing.T) {
	g := graph.New()
	for v := 0; v < 4; v++ {
		g.AddNode(fmt.Sprintf("v%d", v), nil)
	}
	for v := 0; v < 4; v++ {
		for w := 0; w < 4; w++ {
			g.AddEdge(graph.NodeID(v), graph.NodeID(w), "a")
		}
	}
	a, _ := g.ColorID("a")
	atoms := []dist.CAtom{{Color: a, Max: 1}, {Color: a, Max: 2}, {Color: a, Max: 1}}
	all := []graph.NodeID{0, 1, 2, 3}
	s := dist.NewScratch()
	for k := 0; k <= len(atoms); k++ {
		calls := 0
		dist.PairsAt(g, atoms, all, all, k, s, func(x, y graph.NodeID) bool {
			calls++
			return calls < 5
		})
		if calls != 5 {
			t.Errorf("split %d: yield called %d times after declining at the 5th", k, calls)
		}
	}
}
