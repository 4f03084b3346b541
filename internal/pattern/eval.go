package pattern

import (
	"context"
	"slices"

	"regraph/internal/dist"
	"regraph/internal/graph"
	"regraph/internal/reach"
)

// Options selects how edge constraints are checked, mirroring the "flag"
// argument of the paper's algorithms.
//
// Backend supplies the distance backend (Matrix, Cache or TwoHop — see
// dist.Backend): every single-atom edge is then checked pair by pair
// through Backend.Sat — an O(1) cell load on the matrix, the paper's
// JoinMatchM / SplitMatchM configurations, or a bounded bi-directional
// search on a cache miss, JoinMatchC / SplitMatchC. A multi-atom edge
// is checked by closure search on every backend, and a nil Backend uses
// closure search for single-atom edges too. The greatest fixpoint does
// not depend on how each edge check is answered, so answers are
// identical across backends.
type Options struct {
	Backend dist.Backend

	// Scratch optionally supplies a reusable search arena; nil borrows
	// one from the dist package pool per evaluation. Engine workers pass
	// their own so back-to-back pattern queries reuse one set of
	// buffers.
	Scratch *dist.Scratch

	// Cands optionally supplies indexed/memoized predicate candidate
	// sets (internal/candidx) for seeding the match sets; nil scans all
	// nodes per pattern-node predicate. The engine passes its shared
	// memo here.
	Cands reach.CandidateSource

	// DisableTopoOrder makes JoinMatch run a plain global fixpoint instead
	// of processing SCCs in reverse topological order. The answers are
	// identical (the fixpoint is unique); exposed for the ablation
	// benchmark quantifying what the ordering buys.
	DisableTopoOrder bool
}

// scratch returns the arena evaluation should run on plus a put function
// for when it was borrowed from the pool.
func (o Options) scratch() (*dist.Scratch, func()) {
	if o.Scratch != nil {
		return o.Scratch, func() {}
	}
	s := dist.GetScratch()
	return s, func() { dist.PutScratch(s) }
}

// compile resolves every pattern edge's expression into its atom
// chain, indexed by edge. ok is false when some edge mentions a color
// absent from the graph, in which case the answer is empty.
func compile(g *graph.Graph, q *Query) ([][]dist.CAtom, bool) {
	chains := make([][]dist.CAtom, q.NumEdges())
	for ei := range chains {
		atoms, ok := dist.Compile(g, q.Edge(ei).Expr)
		if !ok {
			return nil, false
		}
		chains[ei] = atoms
	}
	return chains, true
}

// nodeSet is a match set: a bitset of length |V| for membership tests,
// plus a list of the members in ascending order so that iterating the
// set costs its size, not |V|. Removal clears the bit only; members
// drops removed nodes from the list lazily, and sorts it again after
// adds. Bitset and list come from a dist.Scratch (see newNodeSet).
type nodeSet struct {
	has      []bool
	ids      []graph.NodeID // a superset of the members
	unsorted bool           // ids may be out of order or repeat a node
}

func newNodeSet(n int, s *dist.Scratch) nodeSet {
	return nodeSet{has: s.Bitset(n), ids: s.NodeList()}
}

// release hands the set's buffers back to the arena they came from.
func (m *nodeSet) release(s *dist.Scratch) {
	s.Recycle(m.has)
	s.RecycleNodeList(m.ids)
	*m = nodeSet{}
}

// add inserts v.
func (m *nodeSet) add(v graph.NodeID) {
	if m.has[v] {
		return
	}
	m.has[v] = true
	if k := len(m.ids); k > 0 && m.ids[k-1] >= v {
		m.unsorted = true
	}
	m.ids = append(m.ids, v)
}

// remove deletes v.
func (m *nodeSet) remove(v graph.NodeID) { m.has[v] = false }

// grow extends the universe to n nodes (new nodes are not members).
func (m *nodeSet) grow(n int) {
	if len(m.has) < n {
		m.has = append(m.has, make([]bool, n-len(m.has))...)
	}
}

// members returns the members in ascending order. The slice is the
// set's own: it stays valid until the next add or members call, and
// removals after this call leave their nodes in it.
func (m *nodeSet) members() []graph.NodeID {
	if m.unsorted {
		slices.Sort(m.ids)
		m.ids = slices.Compact(m.ids)
		m.unsorted = false
	}
	k := 0
	for _, v := range m.ids {
		if m.has[v] {
			m.ids[k] = v
			k++
		}
	}
	m.ids = m.ids[:k]
	return m.ids
}

// searchChecker is the Join procedure of Fig. 7: prune from src every
// node with no edge-satisfying successor in tgt, reporting whether src
// changed and whether it stayed non-empty. Single-atom edges are checked
// pair by pair through Backend.Sat when a backend is configured.
// Multi-atom edges use the paper's multi-color runtime evaluation: the
// whole target set's backward image under the expression, by
// multi-source bounded BFS, intersected with the source set. Both
// iterate set members, never |V| slots.
type searchChecker struct {
	g       *graph.Graph
	be      dist.Backend
	chains  [][]dist.CAtom // per pattern edge
	scratch *dist.Scratch
}

func (c *searchChecker) refineSrc(ei int, src, tgt *nodeSet) (changed, nonEmpty bool) {
	atoms := c.chains[ei]
	if len(atoms) == 1 && c.be != nil {
		a := atoms[0]
		// src and tgt may be one set (a self-loop edge): membership is
		// read live from the bitset, as removals happen.
		targets := tgt.members()
		for _, x := range src.members() {
			if c.scratch.Canceled() {
				return changed, true
			}
			keep := false
			for _, y := range targets {
				if tgt.has[y] && c.be.Sat(a, x, y, c.scratch) {
					keep = true
					break
				}
			}
			if keep {
				nonEmpty = true
			} else {
				src.remove(x)
				changed = true
			}
		}
		return changed, nonEmpty
	}
	img, _ := dist.BackwardClosureOf(c.g, tgt.members(), atoms, c.scratch)
	if c.scratch.Canceled() {
		// img is garbage from an abandoned closure; refining against it
		// would prune wrongly. Report "no change" and let the fixpoint
		// loop observe the cancellation.
		return false, true
	}
	for _, x := range src.members() {
		if img[x] {
			nonEmpty = true
		} else {
			src.remove(x)
			changed = true
		}
	}
	return changed, nonEmpty
}

// ---- JoinMatch --------------------------------------------------------------

// JoinMatch evaluates the pattern with the join-based algorithm of
// Section 5.1 (Fig. 7): initial match sets are refined edge by edge, the
// strongly connected components of the pattern are processed in reverse
// topological order, and within each component refinement iterates to
// a fixpoint. With a Matrix backend a single-atom edge check is
// O(|mat(u')|·|mat(u)|) cell loads; a multi-atom edge check is one
// backward closure of the target set on every backend.
func JoinMatch(g *graph.Graph, q *Query, opts Options) *Result {
	res, _ := JoinMatchCtx(nil, g, q, opts)
	return res
}

// JoinMatchCtx is JoinMatch with cancellation: the context is bound to
// the evaluation's scratch arena, so the fixpoint loop, every per-edge
// refinement sweep and every runtime-search closure under it observe
// cancellation at periodic checkpoints. On cancellation the result is
// nil and ctx's error is returned; a nil or non-cancellable ctx makes
// the checkpoints free and the error always nil.
func JoinMatchCtx(ctx context.Context, g *graph.Graph, q *Query, opts Options) (*Result, error) {
	if q.NumEdges() == 0 {
		// Degenerate pattern: only node conditions; the answer has no edge
		// sets, so it is empty unless we report node matches — the paper
		// defines answers per edge, so an edgeless pattern yields the
		// empty answer.
		return &Result{}, nil
	}
	chains, ok := compile(g, q)
	if !ok {
		return &Result{}, nil
	}
	s, release := opts.scratch()
	defer release()
	unbind := s.BindContext(ctx)
	defer unbind()
	ck := &searchChecker{g: g, be: opts.Backend, chains: chains, scratch: s}
	mats := initialMats(g, q, opts.Cands, s)
	if mats == nil {
		return &Result{}, nil
	}
	defer releaseMats(mats, s)
	if !refine(q, ck, mats, opts.DisableTopoOrder, s) {
		if s.Canceled() {
			return nil, ctx.Err()
		}
		return &Result{}, nil
	}
	res := collect(g, q, chains, mats, opts.Backend, s)
	if s.Canceled() {
		return nil, ctx.Err()
	}
	return res, nil
}

// initialMats computes mat(u) = {x | x matches fv(u)} as node sets drawn
// from s; nil if some edge-incident pattern node has no candidates at
// all. Isolated pattern nodes do not influence the answer (the answer is
// defined per edge; the paper assumes connected patterns and its
// minimization drops isolated nodes), so their emptiness is not fatal.
// Non-trivial predicates seed through cs when non-nil instead of the
// per-node scan.
func initialMats(g *graph.Graph, q *Query, cs reach.CandidateSource, s *dist.Scratch) []nodeSet {
	n := g.NumNodes()
	mats := make([]nodeSet, q.NumNodes())
	for u := range mats {
		p := q.Node(u).Pred
		m := newNodeSet(n, s)
		switch {
		case p.IsTrue():
			for v := 0; v < n; v++ {
				m.add(graph.NodeID(v))
			}
		case cs != nil:
			for _, v := range cs.Candidates(p) {
				m.add(v)
			}
		default:
			for v := 0; v < n; v++ {
				if p.Eval(g.Attrs(graph.NodeID(v))) {
					m.add(graph.NodeID(v))
				}
			}
		}
		mats[u] = m
		if len(m.ids) == 0 && (len(q.Out(u)) > 0 || len(q.In(u)) > 0) {
			releaseMats(mats[:u+1], s)
			return nil
		}
	}
	return mats
}

// releaseMats hands every match set's buffers back to s.
func releaseMats(mats []nodeSet, s *dist.Scratch) {
	for u := range mats {
		mats[u].release(s)
	}
}

// refine runs the fixpoint of Fig. 7 (lines 6-14): components of the
// pattern in reverse topological order; within each component, every edge
// whose target lost matches re-triggers its sources. Returns false when
// some match set empties — or when the context bound to s is cancelled,
// which callers distinguish via s.Canceled().
func refine(q *Query, ck *searchChecker, mats []nodeSet, noOrder bool, s *dist.Scratch) bool {
	var comps [][]int
	if noOrder {
		// Ablation mode: one flat "component" holding every node, i.e. a
		// plain chaotic fixpoint without the reverse topological sweep.
		all := make([]int, q.NumNodes())
		for i := range all {
			all[i] = i
		}
		comps = [][]int{all}
	} else {
		comps = graph.SCC(q.NumNodes(), func(u int) []int {
			succs := make([]int, 0, len(q.Out(u)))
			for _, ei := range q.Out(u) {
				succs = append(succs, q.Edge(ei).To)
			}
			return succs
		})
	}
	// Process components in the order SCC returned them (reverse
	// topological: every successor of a component comes earlier, so its
	// match sets are already final when the component is processed — the
	// DAG part of the pattern needs a single bottom-up sweep, and only
	// cyclic components iterate). Refinement in any order converges to the
	// same maximum fixpoint; the order matters for work, not correctness.
	queued := make([]bool, q.NumEdges())
	for _, comp := range comps {
		var queue []int
		for _, u := range comp {
			for _, ei := range q.In(u) {
				if !queued[ei] {
					queue = append(queue, ei)
					queued[ei] = true
				}
			}
		}
		for len(queue) > 0 {
			if s.Canceled() {
				return false
			}
			ei := queue[0]
			queue = queue[1:]
			queued[ei] = false
			e := q.Edge(ei)
			changed, nonEmpty := ck.refineSrc(ei, &mats[e.From], &mats[e.To])
			if changed && !nonEmpty {
				return false
			}
			if changed {
				// The source node shrank; its own incoming edges must be
				// re-checked (their sources may lose matches in turn).
				for _, ei2 := range q.In(e.From) {
					if !queued[ei2] {
						queue = append(queue, ei2)
						queued[ei2] = true
					}
				}
			}
		}
	}
	return true
}

// collect builds the final Se sets (Fig. 7 lines 15-17) from the match
// sets, iterating their members in ascending order; single-atom edges
// ask be (nil: a bounded bi-directional search per pair). On
// cancellation (observed through s's binding) the partial result is
// meaningless; callers must check s.Canceled() before using it.
func collect(g *graph.Graph, q *Query, chains [][]dist.CAtom, mats []nodeSet, be dist.Backend, s *dist.Scratch) *Result {
	res := &Result{q: q, Sets: make([][]reach.Pair, q.NumEdges())}
	for ei := 0; ei < q.NumEdges(); ei++ {
		e := q.Edge(ei)
		from := mats[e.From].members()
		to := mats[e.To].members()
		atoms := chains[ei]
		var pairs []reach.Pair
		if len(atoms) == 1 {
			a := atoms[0]
			for i, x := range from {
				if i&255 == 255 && s.Canceled() {
					return &Result{}
				}
				for _, y := range to {
					var sat bool
					if be != nil {
						sat = be.Sat(a, x, y, s)
					} else {
						sat = dist.BiSat(g, a, x, y, s)
					}
					if sat {
						pairs = append(pairs, reach.Pair{From: x, To: y})
					}
				}
			}
		} else {
			// Multi-atom edge: one backward closure from the target set
			// per source candidate would be wasteful; instead compute the
			// forward closure per source and intersect with targets.
			for _, x := range from {
				fc, _ := dist.ForwardClosureOf(g, []graph.NodeID{x}, atoms, s)
				if s.Canceled() {
					return &Result{}
				}
				for _, y := range to {
					if fc[y] {
						pairs = append(pairs, reach.Pair{From: x, To: y})
					}
				}
			}
		}
		if len(pairs) == 0 {
			return &Result{}
		}
		res.Sets[ei] = pairs
	}
	return res
}
