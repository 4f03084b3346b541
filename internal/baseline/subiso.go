// Package baseline implements the two comparison systems of the paper's
// experimental study (Section 6, Exp-1):
//
//   - SubIso: subgraph isomorphism in the style of Ullmann's algorithm,
//     the traditional notion of graph pattern matching. Pattern edges map
//     to single data edges of the required color, and the node mapping is
//     injective.
//   - Match: bounded simulation (Fan et al., "Graph pattern matching:
//     from intractable to polynomial time", 2010) — the paper's PQ
//     semantics restricted to a single wildcard bound per edge, i.e. edge
//     colors are ignored.
//
// Both consume the same pattern.Query type the main algorithms use, which
// is how the paper sets up its fairness comparison (queries restricted to
// one color per edge to favor SubIso). Evaluate scores their NodeMatch
// sets against the PQ answer with the Exp-1 precision, recall and
// F-measure.
package baseline

import (
	"regraph/internal/graph"
	"regraph/internal/pattern"
	"regraph/internal/rex"
)

// Mapping is one subgraph-isomorphism embedding: Mapping[u] is the data
// node matched to pattern node u.
type Mapping []graph.NodeID

// SubIsoOptions bounds the search.
type SubIsoOptions struct {
	// MaxMappings stops enumeration after this many embeddings
	// (0 = unlimited).
	MaxMappings int
	// MaxSteps aborts the backtracking search after this many recursive
	// steps (0 = unlimited); the paper's Exp uses small graphs for SubIso
	// because of exactly this blow-up.
	MaxSteps int
}

// SubIso enumerates subgraph-isomorphism embeddings of the pattern in the
// data graph: an injective node mapping under which every pattern edge
// (u, u') becomes a data edge (f(u), f(u')) whose color matches the
// pattern edge's first atom (edge-to-edge semantics — regex bounds and
// multi-atom expressions are beyond subgraph isomorphism, which is the
// point of the comparison). Node predicates must hold. The second result
// reports whether the search ran to completion.
func SubIso(g *graph.Graph, q *pattern.Query, opts SubIsoOptions) ([]Mapping, bool) {
	n := q.NumNodes()
	// Candidate sets per pattern node (Ullmann's candidate matrix).
	cands := make([][]graph.NodeID, n)
	for u := 0; u < n; u++ {
		pred := q.Node(u).Pred
		for v := 0; v < g.NumNodes(); v++ {
			id := graph.NodeID(v)
			if pred.Eval(g.Attrs(id)) && degreeOK(g, q, u, id) {
				cands[u] = append(cands[u], id)
			}
		}
		if len(cands[u]) == 0 {
			return nil, true
		}
	}
	// Order pattern nodes by ascending candidate count (most constrained
	// first), a standard Ullmann refinement.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && len(cands[order[j]]) < len(cands[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	var (
		out      []Mapping
		assigned = make(Mapping, n)
		used     = map[graph.NodeID]bool{}
		steps    int
		complete = true
	)
	for i := range assigned {
		assigned[i] = -1
	}
	var rec func(k int) bool // returns false to abort the whole search
	rec = func(k int) bool {
		if opts.MaxSteps > 0 && steps >= opts.MaxSteps {
			complete = false
			return false
		}
		steps++
		if k == n {
			m := make(Mapping, n)
			copy(m, assigned)
			out = append(out, m)
			return opts.MaxMappings == 0 || len(out) < opts.MaxMappings
		}
		u := order[k]
		for _, v := range cands[u] {
			if used[v] {
				continue
			}
			if !edgesConsistent(g, q, u, v, assigned) {
				continue
			}
			assigned[u] = v
			used[v] = true
			ok := rec(k + 1)
			used[v] = false
			assigned[u] = -1
			if !ok {
				return false
			}
		}
		return true
	}
	if !rec(0) && opts.MaxMappings > 0 && len(out) >= opts.MaxMappings {
		complete = false
	}
	return out, complete
}

// degreeOK prunes candidates whose degree cannot support the pattern
// node's adjacency.
func degreeOK(g *graph.Graph, q *pattern.Query, u int, v graph.NodeID) bool {
	return len(g.Out(v)) >= len(q.Out(u)) && len(g.In(v)) >= len(q.In(u))
}

// edgesConsistent checks every pattern edge between u and already-assigned
// nodes.
func edgesConsistent(g *graph.Graph, q *pattern.Query, u int, v graph.NodeID, assigned Mapping) bool {
	for _, ei := range q.Out(u) {
		e := q.Edge(ei)
		if w := assigned[e.To]; w != -1 || e.To == u {
			target := w
			if e.To == u {
				target = v
			}
			if !hasEdge(g, v, target, e.Expr) {
				return false
			}
		}
	}
	for _, ei := range q.In(u) {
		e := q.Edge(ei)
		if e.From == u {
			continue // self-loop handled above
		}
		if w := assigned[e.From]; w != -1 {
			if !hasEdge(g, w, v, e.Expr) {
				return false
			}
		}
	}
	return true
}

// hasEdge reports whether the data graph has a single edge from x to y
// whose color satisfies the pattern expression's first atom (edge-to-edge
// semantics).
func hasEdge(g *graph.Graph, x, y graph.NodeID, expr rex.Expr) bool {
	atom := expr.Atoms()[0]
	for _, e := range g.Out(x) {
		if e.To == y && atom.Matches(g.ColorName(e.Color)) {
			return true
		}
	}
	return false
}

// NodePairs flattens embeddings into the paper's #matches unit: distinct
// (pattern node, data node) pairs.
func NodePairs(q *pattern.Query, ms []Mapping) map[NodeMatch]bool {
	out := map[NodeMatch]bool{}
	for _, m := range ms {
		for u, v := range m {
			out[NodeMatch{U: u, V: v}] = true
		}
	}
	return out
}

// NodeMatch is a (pattern node, data node) match pair.
type NodeMatch struct {
	U int
	V graph.NodeID
}

// ---- bounded simulation (Match) ---------------------------------------------

// Relax converts a PQ into its bounded-simulation counterpart: every edge
// expression is replaced by a single wildcard atom whose bound is the sum
// of the original bounds (unbounded if any atom is unbounded). This is
// exactly the query class of Fan et al. 2010 — connectivity within k hops,
// colors ignored — which the paper identifies as the special case of PQs
// with a single edge type (Section 2, Remark).
func Relax(q *pattern.Query) *pattern.Query {
	out := pattern.New()
	for i := 0; i < q.NumNodes(); i++ {
		n := q.Node(i)
		out.AddNode(n.Name, n.Pred)
	}
	for ei := 0; ei < q.NumEdges(); ei++ {
		e := q.Edge(ei)
		total := 0
		for _, a := range e.Expr.Atoms() {
			if a.Max == rex.Unbounded {
				total = rex.Unbounded
				break
			}
			total += a.Max
		}
		out.AddEdge(e.From, e.To, rex.MustNew(rex.Atom{Color: rex.Wildcard, Max: total}))
	}
	return out
}

// Match evaluates the bounded-simulation baseline: the relaxed query under
// the same simulation machinery (JoinMatch). With opts carrying a distance
// matrix as its Backend this is the paper's MatchM configuration.
func Match(g *graph.Graph, q *pattern.Query, opts pattern.Options) *pattern.Result {
	return pattern.JoinMatch(g, Relax(q), opts)
}

// ResultNodePairs flattens a simulation result into distinct
// (pattern node, data node) pairs, the paper's #matches unit.
func ResultNodePairs(q *pattern.Query, res *pattern.Result) map[NodeMatch]bool {
	out := map[NodeMatch]bool{}
	if res.Empty() {
		return out
	}
	for ei := 0; ei < q.NumEdges(); ei++ {
		e := q.Edge(ei)
		for _, p := range res.EdgePairs(ei) {
			out[NodeMatch{U: e.From, V: p.From}] = true
			out[NodeMatch{U: e.To, V: p.To}] = true
		}
	}
	return out
}
