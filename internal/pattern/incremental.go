package pattern

import (
	"fmt"

	"regraph/internal/dist"
	"regraph/internal/graph"
	"regraph/internal/rex"
)

// Incremental maintains the answer of one pattern query over a mutable
// data graph — the paper's main future-work item ("in practice data
// graphs are frequently modified, and it is too costly to re-evaluate PQs
// in cubic time ... every time the graphs are updated", Section 7).
//
// The engine exploits the monotonicity of the revised simulation:
//
//   - Deleting an edge can only *shrink* match sets, and the previous
//     answer is a valid starting point: re-running the refinement loop
//     from the current match sets computes the exact new fixpoint without
//     rebuilding candidates (semi-naive maintenance).
//   - Inserting an edge can only *grow* match sets. Edges whose color
//     appears in no pattern expression (and with no wildcard atoms) are
//     no-ops. Otherwise, for DAG patterns whose atoms are all bounded,
//     only nodes that can reach the new edge's source within
//     |Vp| × maxBound hops can change status, so candidates are re-seeded
//     only inside that region (merged with the old answer, which remains
//     a post-fixpoint). Cyclic patterns or unbounded atoms fall back to
//     full re-refinement from fresh candidates.
//   - Inserting an isolated node can only introduce matches at pattern
//     nodes without outgoing edges; no propagation is needed until edges
//     attach it.
//
// The engine evaluates in runtime-search mode (no distance matrix or
// cache, which graph mutations would invalidate).
type Incremental struct {
	g      *graph.Graph
	q      *Query
	chains [][]dist.CAtom
	ck     *searchChecker
	mats   []nodeSet // nil when the current answer is empty
	// relevantColors[c] reports whether color c occurs in some chain;
	// anyWildcard is set when some atom is the wildcard.
	relevantColors map[graph.ColorID]bool
	anyWildcard    bool
	dagBounded     bool
	radius         int // insertion locality radius when dagBounded
}

// NewIncremental evaluates the query once and returns a maintenance
// engine. The graph must only be mutated through the engine's methods
// (or re-synced with Refresh).
func NewIncremental(g *graph.Graph, q *Query) (*Incremental, error) {
	if q.NumEdges() == 0 {
		return nil, fmt.Errorf("pattern: incremental maintenance needs a pattern with edges")
	}
	chains, ok := compile(g, q)
	if !ok {
		return nil, fmt.Errorf("pattern: expression mentions a color absent from the graph")
	}
	inc := &Incremental{
		g:      g,
		q:      q,
		chains: chains,
		// The engine is single-owner, so it keeps a private arena alive
		// for all its re-refinements instead of borrowing per call.
		ck: &searchChecker{g: g, chains: chains, scratch: dist.NewScratch()},
	}
	inc.analyze()
	inc.full()
	return inc, nil
}

// analyze precomputes color relevance and the insertion locality radius.
func (inc *Incremental) analyze() {
	inc.relevantColors = map[graph.ColorID]bool{}
	maxBound := 0
	allBounded := true
	for _, chain := range inc.chains {
		for _, a := range chain {
			if a.Color == graph.AnyColor {
				inc.anyWildcard = true
			} else {
				inc.relevantColors[a.Color] = true
			}
			if a.Max == rex.Unbounded {
				allBounded = false
			} else if a.Max > maxBound {
				maxBound = a.Max
			}
		}
	}
	// DAG check on the pattern (a cycle lets new matches propagate
	// through unboundedly long dependency chains).
	comps := graph.SCC(inc.q.NumNodes(), func(u int) []int {
		var ss []int
		for _, ei := range inc.q.Out(u) {
			ss = append(ss, inc.q.Edge(ei).To)
		}
		return ss
	})
	isDAG := true
	for _, c := range comps {
		if len(c) > 1 {
			isDAG = false
			break
		}
	}
	for u := 0; u < inc.q.NumNodes(); u++ { // self-loops are cycles too
		for _, ei := range inc.q.Out(u) {
			if inc.q.Edge(ei).To == u {
				isDAG = false
			}
		}
	}
	inc.dagBounded = isDAG && allBounded
	// Longest chain of edges in the pattern is at most |Vp|; each
	// dependency step covers at most the longest expression, which is
	// bounded by len(chain) * maxBound per edge.
	longest := 0
	for _, chain := range inc.chains {
		if l := len(chain) * maxBound; l > longest {
			longest = l
		}
	}
	inc.radius = inc.q.NumNodes() * longest
}

// full recomputes the answer from fresh candidates, by linear scan
// deliberately: every full() here follows a mutation, and a mutation
// invalidates the attribute inverted index, so seeding through a
// candidx.Memo would rebuild the whole index per mutation — the
// mutate-between-every-query regime is exactly where DESIGN.md §7.3
// says the scan wins. Callers wanting indexed seeding on a *static*
// graph evaluate through JoinMatch with Options.Cands instead.
func (inc *Incremental) full() {
	s := inc.ck.scratch
	if inc.mats != nil {
		releaseMats(inc.mats, s)
		inc.mats = nil
	}
	mats := initialMats(inc.g, inc.q, nil, s)
	if mats == nil {
		return
	}
	if !refine(inc.q, inc.ck, mats, false, s) {
		releaseMats(mats, s)
		return
	}
	inc.mats = mats
}

// Result returns the current answer (pairs are collected on each call;
// match-set maintenance is the incremental part).
func (inc *Incremental) Result() *Result {
	if inc.mats == nil {
		return &Result{}
	}
	// collect may discover an edge with no pairs (global emptiness).
	s := dist.GetScratch()
	defer dist.PutScratch(s)
	return collect(inc.g, inc.q, inc.chains, inc.mats, nil, s)
}

// MatchSet returns the current match set of a pattern node as node IDs.
func (inc *Incremental) MatchSet(u int) []graph.NodeID {
	if inc.mats == nil {
		return nil
	}
	var out []graph.NodeID
	return append(out, inc.mats[u].members()...)
}

// relevant reports whether an edge of this color can influence the
// answer at all.
func (inc *Incremental) relevant(color string) bool {
	if inc.anyWildcard {
		return true
	}
	c, ok := inc.g.ColorID(color)
	if !ok || c == graph.AnyColor {
		return inc.anyWildcard
	}
	return inc.relevantColors[c]
}

// InsertEdge adds a data edge and updates the answer.
func (inc *Incremental) InsertEdge(from, to graph.NodeID, color string) {
	known := false
	if _, ok := inc.g.ColorID(color); ok {
		known = true
	}
	inc.g.AddEdge(from, to, color)
	if known && !inc.relevant(color) {
		return // the new edge cannot appear on any witness path
	}
	if !known {
		// A brand-new color: only wildcard atoms can use it.
		if !inc.anyWildcard {
			return
		}
	}
	if inc.mats == nil || !inc.dagBounded {
		// Empty previous answer (anything may now match) or unbounded
		// propagation: recompute from fresh candidates.
		inc.full()
		return
	}
	// Locality: only nodes that can reach the new edge's source within
	// the dependency radius may change status. Merge the affected
	// candidates into the current (post-fixpoint) match sets and refine.
	region := inc.backwardBall(from)
	region[int(from)] = true
	changedAny := false
	for u := range inc.mats {
		pred := inc.q.Node(u).Pred
		m := &inc.mats[u]
		for v := range region {
			if !region[v] || m.has[v] {
				continue
			}
			if pred.IsTrue() || pred.Eval(inc.g.Attrs(graph.NodeID(v))) {
				m.add(graph.NodeID(v))
				changedAny = true
			}
		}
	}
	if !changedAny {
		return
	}
	inc.refine()
}

// backwardBall returns the set of nodes with a path *to* src of length at
// most the dependency radius (any colors).
func (inc *Incremental) backwardBall(src graph.NodeID) []bool {
	n := inc.g.NumNodes()
	seen := make([]bool, n)
	seen[src] = true
	frontier := []graph.NodeID{src}
	pred := inc.g.Layer(graph.AnyColor, false)
	for d := 0; d < inc.radius && len(frontier) > 0; d++ {
		var next []graph.NodeID
		for _, v := range frontier {
			for _, w := range pred.Row(v) {
				if !seen[w] {
					seen[w] = true
					next = append(next, graph.NodeID(w))
				}
			}
		}
		frontier = next
	}
	return seen
}

// DeleteEdge removes a data edge and updates the answer. Deletion only
// shrinks match sets, so the previous answer seeds the refinement
// (semi-naive maintenance — no candidate rebuild).
func (inc *Incremental) DeleteEdge(from, to graph.NodeID, color string) error {
	if !inc.g.RemoveEdge(from, to, color) {
		return fmt.Errorf("pattern: no %s edge from %d to %d", color, from, to)
	}
	if inc.mats == nil || !inc.relevant(color) {
		return nil
	}
	inc.refine()
	return nil
}

// InsertNode adds an isolated data node. It can only match pattern nodes
// without outgoing edges (it has no paths yet); attaching edges later
// through InsertEdge propagates further effects.
func (inc *Incremental) InsertNode(name string, attrs map[string]string) graph.NodeID {
	id := inc.g.AddNode(name, attrs)
	if inc.mats == nil {
		// The answer was empty; the new node may unblock a pattern node
		// with no candidates.
		inc.full()
		return id
	}
	for u := range inc.mats {
		m := &inc.mats[u]
		m.grow(int(id) + 1)
		if p := inc.q.Node(u).Pred; len(inc.q.Out(u)) == 0 && (p.IsTrue() || p.Eval(inc.g.Attrs(id))) {
			m.add(id)
		}
	}
	return id
}

// refine re-runs the fixpoint from the current match sets, dropping them
// when the answer empties.
func (inc *Incremental) refine() {
	if !refine(inc.q, inc.ck, inc.mats, false, inc.ck.scratch) {
		releaseMats(inc.mats, inc.ck.scratch)
		inc.mats = nil
	}
}

// Refresh recomputes the answer from scratch; call it if the graph was
// mutated outside the engine.
func (inc *Incremental) Refresh() { inc.full() }
