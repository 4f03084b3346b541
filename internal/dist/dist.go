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

// SatMatrix is Sat against the precomputed distance matrix, decided by a
// single O(1) cell load: a saturated cell still proves "reachable" and
// "beyond any bound below 255". Only a bound of 255 or more over a
// saturated cell needs the exact distance.
func (a CAtom) SatMatrix(mx *Matrix, v1, v2 graph.NodeID) bool {
	d := mx.cell(a.Color, v1, v2)
	if d == satCell && a.Max != rex.Unbounded && a.Max >= satCell {
		return a.Sat(mx.Dist(a.Color, v1, v2))
	}
	return a.Sat(cellDist(d))
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

// boundedImageInto computes one atom step of a closure: out is filled
// with the set of nodes w with a non-empty path from some node of src to
// w, over the atom's color layer, of length within the atom's bound.
// With forward=false, paths run from w into src instead (the backward
// image). out must not alias src; BFS buffers come from s.
//
// The adjacency loops scan g.Out/g.In directly — never the graph's lazy
// per-color index, so concurrent readers stay race-free — and are
// written inline rather than through visitor callbacks: the escaping
// closures were the dominant per-query allocation (one closure plus
// capture cells per BFS), and this is the innermost loop of every
// runtime-search evaluation.
func boundedImageInto(g *graph.Graph, src []bool, a CAtom, forward bool, out []bool, s *Scratch) {
	n := g.NumNodes()
	limit := int32(n) // paths beyond |V| hops revisit a node
	if a.Max != rex.Unbounded && a.Max < n {
		limit = int32(a.Max)
	}
	c := a.Color
	// Multi-source BFS from src; d holds the shortest distance from the
	// set (0 on the sources themselves).
	d := int32Buf(&s.d, n)
	for i := range d {
		d[i] = graph.Unreachable
	}
	queue := s.queue[:0]
	for v := range src {
		if src[v] {
			d[v] = 0
			queue = append(queue, graph.NodeID(v))
		}
	}
	for head := 0; head < len(queue); head++ {
		if head&cancelMask == cancelMask && s.Canceled() {
			// Abandoned query: stop expanding. out is garbage from here on;
			// the evaluator that bound the context discards it.
			s.queue = queue
			return
		}
		v := queue[head]
		dv := d[v]
		if dv >= limit {
			continue
		}
		var edges []graph.Edge
		if forward {
			edges = g.Out(v)
		} else {
			edges = g.In(v)
		}
		for _, e := range edges {
			if c != graph.AnyColor && e.Color != c {
				continue
			}
			if w := e.To; d[w] == graph.Unreachable {
				d[w] = dv + 1
				queue = append(queue, w)
			}
		}
	}
	s.queue = queue // keep the grown buffer
	for v := range out {
		out[v] = d[v] >= 1 && d[v] <= limit
	}
	// Source nodes have d = 0, but the atom requires a non-empty path:
	// the shortest one ends with an edge from some reached node, so it is
	// 1 + min over the node's in-neighbors (over this layer) of d.
	for v := range src {
		if !src[v] || out[v] {
			continue
		}
		best := graph.Unreachable
		var edges []graph.Edge
		if forward {
			edges = g.In(graph.NodeID(v))
		} else {
			edges = g.Out(graph.NodeID(v))
		}
		for _, e := range edges {
			if c != graph.AnyColor && e.Color != c {
				continue
			}
			if dp := d[e.To]; dp != graph.Unreachable && (best == graph.Unreachable || dp+1 < best) {
				best = dp + 1
			}
		}
		if best >= 1 && best <= limit {
			out[v] = true
		}
	}
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
// two node sets are intersected.
func BiReach(g *graph.Graph, atoms []CAtom, v1, v2 graph.NodeID) bool {
	if len(atoms) == 0 {
		return v1 == v2
	}
	s := GetScratch()
	defer PutScratch(s)
	if len(atoms) == 1 {
		return atoms[0].Sat(BiDistScratch(g, atoms[0].Color, v1, v2, s))
	}
	n := g.NumNodes()
	mid := len(atoms) / 2
	seed := s.Seed(n)
	seed[v1] = true
	// The forward prefix closure must survive the backward suffix closure
	// (both ping-pong through s.cur/s.next), so park it in a retained
	// bitset for the intersection.
	fwd := s.Bitset(n)
	copy(fwd, ForwardClosureScratch(g, seed, atoms[:mid], s))
	defer s.Recycle(fwd)
	seed[v1] = false
	seed[v2] = true
	bwd := BackwardClosureScratch(g, seed, atoms[mid:], s)
	for i := range fwd {
		if fwd[i] && bwd[i] {
			return true
		}
	}
	return false
}

// ReachMatrix is BiReach against the precomputed matrix: the reachable
// set is advanced one atom at a time with O(1) pair lookups, finishing
// with a membership test against v2.
func ReachMatrix(g *graph.Graph, mx *Matrix, atoms []CAtom, v1, v2 graph.NodeID) bool {
	if len(atoms) == 0 {
		return v1 == v2
	}
	if len(atoms) == 1 {
		return atoms[0].SatMatrix(mx, v1, v2)
	}
	n := g.NumNodes()
	cur := []graph.NodeID{v1}
	for i, a := range atoms {
		if i == len(atoms)-1 {
			for _, v := range cur {
				if a.SatMatrix(mx, v, v2) {
					return true
				}
			}
			return false
		}
		var next []graph.NodeID
		for w := 0; w < n; w++ {
			for _, v := range cur {
				if a.SatMatrix(mx, v, graph.NodeID(w)) {
					next = append(next, graph.NodeID(w))
					break
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = next
	}
	return false
}
