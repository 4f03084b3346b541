// Package dist is the distance substrate shared by every query class of
// the paper (Section 4): the per-color all-pairs distance matrix, the LRU
// distance cache backed by bi-directional search, and the bounded
// multi-source BFS closures used by the runtime evaluation methods.
//
// All distances follow the paper's path semantics: paths are non-empty,
// so the distance from a node to itself is the length of its shortest
// non-empty cycle (or Unreachable). Every operation is parameterized by a
// color layer: a concrete graph.ColorID restricts paths to edges of that
// color, graph.AnyColor (the wildcard "_") allows every edge.
//
// A subclass-F expression is compiled into a chain of CAtom values, one
// per atom; an atom is satisfied by a pair (v1, v2) when the shortest
// non-empty path from v1 to v2 over the atom's color layer has length
// within the atom's bound. See DESIGN.md for the layer layout and the
// concurrency model of the matrix build.
package dist

import (
	"regraph/internal/graph"
	"regraph/internal/rex"
)

// cancelMask strides the cancellation checkpoints of the innermost BFS
// loops: a bound context is polled once per cancelMask+1 node
// expansions, keeping the checkpoint a mask-and-branch on the hot path
// while an abandoned query still stops within microseconds.
const cancelMask = 1<<10 - 1

// CAtom is a compiled subclass-F atom: the interned color layer it runs
// on and its occurrence bound (rex.Unbounded for "c+").
type CAtom struct {
	Color graph.ColorID
	Max   int
}

// Sat reports whether a shortest non-empty distance d satisfies the
// atom's bound: 1 <= d <= Max (any d >= 1 when unbounded). Unreachable
// distances (negative) never satisfy.
func (a CAtom) Sat(d int32) bool {
	if d < 1 {
		return false
	}
	// Compare in int: bounds above MaxInt32 parse fine on 64-bit and must
	// not truncate negative.
	return a.Max == rex.Unbounded || int(d) <= a.Max
}

// Compile resolves an expression's atoms against a graph's interned
// colors. ok is false when the expression mentions a concrete color the
// graph does not have (its language is then empty over this graph) or
// when the expression is the invalid zero value.
func Compile(g *graph.Graph, e rex.Expr) ([]CAtom, bool) {
	atoms := e.Atoms()
	if len(atoms) == 0 {
		return nil, false
	}
	out := make([]CAtom, len(atoms))
	for i, a := range atoms {
		c, ok := g.ColorID(a.Color)
		if !ok {
			return nil, false
		}
		out[i] = CAtom{Color: c, Max: a.Max}
	}
	return out, true
}

// searchBound is the atom's bound as a search cutoff over a graph of n
// nodes: -1 (search exactly) when the atom is unbounded or its bound
// reaches n, since no shortest non-empty path is longer than n.
func (a CAtom) searchBound(n int) int32 {
	if a.Max == rex.Unbounded || a.Max >= n {
		return -1
	}
	return int32(a.Max)
}

// boundedImage computes one atom step of a closure: it sets in out, and
// appends to outIDs, every node w with a non-empty path from some member
// of src to w, over the atom's color layer, of length within the atom's
// bound. With forward=false, paths run from w into src instead (the
// backward image). src holds distinct nodes; out must be all false on
// entry and must not be the bitset src was read from. BFS buffers come
// from s, and the work is proportional to the nodes and edges visited.
// A cancelled search leaves out untouched.
//
// Both loops scan only the atom's color layer, in the graph's immutable
// CSR, and are written inline rather than through visitor callbacks:
// the escaping closures were the dominant per-query allocation (one
// closure plus capture cells per BFS), and this is the innermost loop of
// every runtime-search evaluation.
func boundedImage(g *graph.Graph, src []graph.NodeID, a CAtom, forward bool, out []bool, outIDs []graph.NodeID, s *Scratch) []graph.NodeID {
	n := g.NumNodes()
	limit := int32(n) // paths beyond |V| hops revisit a node
	if a.Max != rex.Unbounded && a.Max < n {
		limit = int32(a.Max)
	}
	adj := g.Layer(a.Color, forward)
	// Multi-source BFS from src; d holds the shortest distance from the
	// set (0 on the sources themselves), and queue lists every node d
	// has set, sources first.
	d := restingBuf(&s.d, n)
	queue := s.queue[:0]
	for _, v := range src {
		d[v] = 0
		queue = append(queue, v)
	}
	for head := 0; head < len(queue); head++ {
		if head&cancelMask == cancelMask && s.Canceled() {
			// Abandoned query: stop expanding. The evaluator that bound
			// the context discards the result.
			unvisit(d, queue)
			s.queue = queue
			return outIDs
		}
		v := queue[head]
		dv := d[v]
		if dv >= limit {
			continue
		}
		for _, w := range adj.Row(v) {
			if d[w] == graph.Unreachable {
				d[w] = dv + 1
				queue = append(queue, graph.NodeID(w))
			}
		}
	}
	// Every node the BFS reached was reached within the bound.
	for _, v := range queue[len(src):] {
		out[v] = true
		outIDs = append(outIDs, v)
	}
	// Source nodes have d = 0, but the atom requires a non-empty path:
	// the shortest one ends with an edge from some reached node, so it is
	// 1 + min over the node's in-neighbors (over this layer) of d.
	back := g.Layer(a.Color, !forward)
	for _, v := range src {
		best := graph.Unreachable
		for _, w := range back.Row(v) {
			if dp := d[w]; dp != graph.Unreachable && (best == graph.Unreachable || dp+1 < best) {
				best = dp + 1
			}
		}
		if best >= 1 && best <= limit {
			out[v] = true
			outIDs = append(outIDs, v)
		}
	}
	unvisit(d, queue)
	s.queue = queue // keep the grown buffer
	return outIDs
}

// ForwardClosure pushes an atom chain forward from a source set: the
// result (always g.NumNodes() long) marks every node reachable from
// some source via a path whose color string matches the chain. An empty
// chain returns the sources themselves (the empty path). The returned
// slice is freshly allocated; hot paths should use
// ForwardClosureScratch instead.
func ForwardClosure(g *graph.Graph, src []bool, atoms []CAtom) []bool {
	s := GetScratch()
	defer PutScratch(s)
	res := ForwardClosureScratch(g, src, atoms, s)
	out := make([]bool, len(res))
	copy(out, res)
	return out
}

// BackwardClosure pushes an atom chain backward from a destination set:
// the result (always g.NumNodes() long) marks every node from which
// some destination is reachable via a path matching the chain. See
// ForwardClosure about allocation.
func BackwardClosure(g *graph.Graph, dst []bool, atoms []CAtom) []bool {
	s := GetScratch()
	defer PutScratch(s)
	res := BackwardClosureScratch(g, dst, atoms, s)
	out := make([]bool, len(res))
	copy(out, res)
	return out
}

// BiDist computes the shortest non-empty distance from v1 to v2 over one
// color layer with bi-directional BFS: the two frontiers are expanded
// level by level (smaller side first) and every scanned edge that bridges
// them proposes a path length. This is the runtime search the LRU cache
// falls back to on a miss. Buffers come from the package scratch pool;
// hot paths with a worker arena should call BiDistScratch directly.
func BiDist(g *graph.Graph, c graph.ColorID, v1, v2 graph.NodeID) int32 {
	s := GetScratch()
	defer PutScratch(s)
	return BiDistScratch(g, c, v1, v2, s)
}

// BiReach reports whether some path from v1 to v2 matches the whole atom
// chain, by runtime search only: the chain is split in the middle, the
// prefix is pushed forward from v1, the suffix backward from v2, and the
// two node sets are intersected. A single atom is one bounded BiSat.
func BiReach(g *graph.Graph, atoms []CAtom, v1, v2 graph.NodeID) bool {
	if len(atoms) == 0 {
		return v1 == v2
	}
	s := GetScratch()
	defer PutScratch(s)
	if len(atoms) == 1 {
		return BiSat(g, atoms[0], v1, v2, s)
	}
	mid := len(atoms) / 2
	// The forward prefix closure's members must survive the backward
	// suffix closure (both run through the same ping-pong bitsets).
	_, fwd := ForwardClosureOf(g, []graph.NodeID{v1}, atoms[:mid], s)
	keep := append(s.NodeList(), fwd...)
	defer s.RecycleNodeList(keep)
	bwd, _ := BackwardClosureOf(g, []graph.NodeID{v2}, atoms[mid:], s)
	for _, v := range keep {
		if bwd[v] {
			return true
		}
	}
	return false
}
