package pattern

import (
	"context"
	"slices"

	"regraph/internal/dist"
	"regraph/internal/graph"
	"regraph/internal/predicate"
	"regraph/internal/reach"
)

// Options selects how edge constraints are checked, mirroring the "flag"
// argument of the paper's algorithms.
//
// With a Matrix, the query is normalized (every multi-atom edge is split
// into single-atom edges through dummy nodes) and each pair check is an
// O(1) matrix lookup — the JoinMatchM / SplitMatchM configurations of the
// experiments. Without a Matrix the algorithms run the bi-directional
// runtime search, optionally through an LRU distance Cache — the
// JoinMatchC / SplitMatchC configurations.
type Options struct {
	Matrix *dist.Matrix
	Cache  *dist.Cache

	// Backend optionally supplies a general distance backend (Matrix,
	// TwoHop, Cache — see dist.Backend) for the runtime-search mode's
	// single-atom pair checks, taking precedence over Cache. It does
	// not switch on the normalized matrix algorithm — that needs the
	// concrete Matrix field — but any backend makes single-atom edges a
	// pairwise lookup instead of a closure search. Answers are
	// identical across backends by the Backend contract.
	Backend dist.Backend

	// Scratch optionally supplies a reusable search arena for the
	// runtime-search configurations; nil borrows one from the dist
	// package pool per evaluation. Engine workers pass their own so
	// back-to-back pattern queries reuse one set of buffers.
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

// distBackend resolves the pairwise distance oracle for the
// runtime-search mode: the explicit Backend when set, else the Cache
// (lifted into the interface only when non-nil — a nil *Cache must
// become a nil interface), else nil, which means closure search only.
func (o Options) distBackend() dist.Backend {
	if o.Backend != nil {
		return o.Backend
	}
	if o.Cache != nil {
		return o.Cache
	}
	return nil
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

// ---- normalized form -------------------------------------------------------

// normEdge is a single-atom edge of the normalized pattern.
type normEdge struct {
	from, to int
	atom     dist.CAtom
}

// normQuery is the paper's Normalize(Qp): every edge of the original
// pattern is decomposed into a chain of single-atom edges through fresh
// dummy nodes that carry no condition.
type normQuery struct {
	preds   []predicate.Pred // per normalized node; dummies are empty
	orig    []int            // original node index, -1 for dummies
	ofNode  []int            // original node -> normalized node
	edges   []normEdge
	out, in [][]int // edge indices per normalized node

	// For dummy nodes, the colors of the chain atoms ending and starting
	// at them. A data node can only stand at that chain position if it
	// has an incoming edge of inColor and an outgoing edge of outColor
	// (AnyColor matches every edge), which initialMats uses to seed dummy
	// match sets far below |V|.
	dummyIn, dummyOut []graph.ColorID
}

// normalize builds the normalized pattern. ok is false when some edge
// mentions a color absent from the graph, in which case the answer is
// empty. When split is false, edges are kept whole (one normEdge carries
// the full atom chain via atoms table) — used by the runtime-search mode,
// which can evaluate whole expressions directly.
func normalize(g *graph.Graph, q *Query, split bool) (*normQuery, [][]dist.CAtom, bool) {
	nq := &normQuery{}
	addNode := func(p predicate.Pred, orig int) int {
		id := len(nq.preds)
		nq.preds = append(nq.preds, p)
		nq.orig = append(nq.orig, orig)
		nq.out = append(nq.out, nil)
		nq.in = append(nq.in, nil)
		nq.dummyIn = append(nq.dummyIn, graph.AnyColor)
		nq.dummyOut = append(nq.dummyOut, graph.AnyColor)
		return id
	}
	nq.ofNode = make([]int, q.NumNodes())
	for i := 0; i < q.NumNodes(); i++ {
		nq.ofNode[i] = addNode(q.Node(i).Pred, i)
	}
	addEdge := func(from, to int, a dist.CAtom) {
		id := len(nq.edges)
		nq.edges = append(nq.edges, normEdge{from, to, a})
		nq.out[from] = append(nq.out[from], id)
		nq.in[to] = append(nq.in[to], id)
	}
	chains := make([][]dist.CAtom, q.NumEdges())
	for ei := 0; ei < q.NumEdges(); ei++ {
		e := q.Edge(ei)
		atoms, ok := dist.Compile(g, e.Expr)
		if !ok {
			return nil, nil, false
		}
		chains[ei] = atoms
		if !split || len(atoms) == 1 {
			// Single edge; in unsplit mode the atom field is unused when
			// the chain has several atoms (the chain table is consulted).
			addEdge(nq.ofNode[e.From], nq.ofNode[e.To], atoms[0])
			continue
		}
		prev := nq.ofNode[e.From]
		for i := 0; i < len(atoms)-1; i++ {
			d := addNode(predicate.Pred{}, -1)
			nq.dummyIn[d] = atoms[i].Color
			nq.dummyOut[d] = atoms[i+1].Color
			addEdge(prev, d, atoms[i])
			prev = d
		}
		addEdge(prev, nq.ofNode[e.To], atoms[len(atoms)-1])
	}
	return nq, chains, true
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

// checker abstracts the Join procedure of Fig. 7: prune from src every
// node with no edge-satisfying successor in tgt. Implementations differ
// between matrix mode (O(1) pair lookups) and runtime-search mode
// (multi-source bounded BFS). Both report whether src changed and whether
// it stayed non-empty.
type checker interface {
	refineSrc(ei int, src, tgt *nodeSet) (changed, nonEmpty bool)
}

// matrixChecker: every normalized edge is a single atom; each pair check
// is an O(1) matrix lookup, so the Join is O(|mat(u')|·|mat(u)|). The
// scratch is carried only for its cancellation binding: one refineSrc
// sweep can be |V|·|V| lookups, the fixpoint's longest uninterruptible
// stretch in matrix mode.
type matrixChecker struct {
	mx    *dist.Matrix
	edges []normEdge
	s     *dist.Scratch
}

func (c *matrixChecker) refineSrc(ei int, srcSet, tgtSet *nodeSet) (changed, nonEmpty bool) {
	src, tgt := srcSet.has, tgtSet.has
	a := c.edges[ei].atom
	seen := 0
	for x := range src {
		if !src[x] {
			continue
		}
		seen++
		if seen&255 == 0 && c.s.Canceled() {
			// Abandoned evaluation: stop refining. The fixpoint loop
			// re-checks the binding before using this partial answer.
			return changed, true
		}
		keep := false
		for y := range tgt {
			if tgt[y] && a.SatMatrix(c.mx, graph.NodeID(x), graph.NodeID(y)) {
				keep = true
				break
			}
		}
		if keep {
			nonEmpty = true
		} else {
			src[x] = false
			changed = true
		}
	}
	return changed, nonEmpty
}

// searchChecker: edges keep their whole atom chains. Single-atom edges
// are checked pair by pair through Backend.Sat when a backend is
// configured — the LRU cache is the paper's configuration (a miss runs a
// bi-directional BFS bounded by the atom), but any dist.Backend (TwoHop
// labels, a Matrix used without normalized splitting) slots in
// identically. Multi-atom edges use the paper's multi-color runtime
// evaluation: the whole target set's backward image under the
// expression, by multi-source bounded BFS, intersected with the source
// set. Both iterate set members, never |V| slots.
type searchChecker struct {
	g       *graph.Graph
	be      dist.Backend
	chains  [][]dist.CAtom // per normalized edge (== original edge here)
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
// strongly connected components of the (normalized) pattern are processed
// in reverse topological order, and within each component refinement
// iterates to a fixpoint. Runs in O(|E'p| |V|^2) after preprocessing when
// a distance matrix is used.
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
	useMatrix := opts.Matrix != nil
	nq, chains, ok := normalize(g, q, useMatrix)
	if !ok {
		return &Result{}, nil
	}
	s, release := opts.scratch()
	defer release()
	unbind := s.BindContext(ctx)
	defer unbind()
	var ck checker
	if useMatrix {
		ck = &matrixChecker{mx: opts.Matrix, edges: nq.edges, s: s}
	} else {
		ck = &searchChecker{g: g, be: opts.distBackend(), chains: chains, scratch: s}
	}
	mats := initialMats(g, nq, opts.Cands, s)
	if mats == nil {
		return &Result{}, nil
	}
	defer releaseMats(mats, s)
	if !refine(g, nq, ck, mats, opts.DisableTopoOrder, s) {
		if s.Canceled() {
			return nil, ctx.Err()
		}
		return &Result{}, nil
	}
	res := collect(g, q, nq, chains, mats, opts, s)
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
func initialMats(g *graph.Graph, nq *normQuery, cs reach.CandidateSource, s *dist.Scratch) []nodeSet {
	n := g.NumNodes()
	mats := make([]nodeSet, len(nq.preds))
	for u, p := range nq.preds {
		m := newNodeSet(n, s)
		if nq.orig[u] < 0 {
			// Dummy node: no predicate, but a witness at this chain
			// position must have an incoming edge of the preceding atom's
			// color and an outgoing edge of the following atom's color.
			hasIn := func(v graph.NodeID) bool {
				if c := nq.dummyIn[u]; c != graph.AnyColor {
					return len(g.Pred(v, c)) > 0
				}
				return len(g.In(v)) > 0
			}
			hasOut := func(v graph.NodeID) bool {
				if c := nq.dummyOut[u]; c != graph.AnyColor {
					return len(g.Succ(v, c)) > 0
				}
				return len(g.Out(v)) > 0
			}
			for v := 0; v < n; v++ {
				if hasIn(graph.NodeID(v)) && hasOut(graph.NodeID(v)) {
					m.add(graph.NodeID(v))
				}
			}
		} else if p.IsTrue() {
			for v := 0; v < n; v++ {
				m.add(graph.NodeID(v))
			}
		} else if cs != nil {
			for _, v := range cs.Candidates(p) {
				m.add(v)
			}
		} else {
			for v := 0; v < n; v++ {
				if p.Eval(g.Attrs(graph.NodeID(v))) {
					m.add(graph.NodeID(v))
				}
			}
		}
		mats[u] = m
		if len(m.ids) == 0 && (len(nq.out[u]) > 0 || len(nq.in[u]) > 0) {
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
func refine(g *graph.Graph, nq *normQuery, ck checker, mats []nodeSet, noOrder bool, s *dist.Scratch) bool {
	var comps [][]int
	if noOrder {
		// Ablation mode: one flat "component" holding every node, i.e. a
		// plain chaotic fixpoint without the reverse topological sweep.
		all := make([]int, len(nq.preds))
		for i := range all {
			all[i] = i
		}
		comps = [][]int{all}
	} else {
		comps = graph.SCC(len(nq.preds), func(u int) []int {
			succs := make([]int, 0, len(nq.out[u]))
			for _, ei := range nq.out[u] {
				succs = append(succs, nq.edges[ei].to)
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
	queued := make([]bool, len(nq.edges))
	for _, comp := range comps {
		var queue []int
		for _, u := range comp {
			for _, ei := range nq.in[u] {
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
			e := nq.edges[ei]
			changed, nonEmpty := ck.refineSrc(ei, &mats[e.from], &mats[e.to])
			if changed && !nonEmpty {
				return false
			}
			if changed {
				// The source node shrank; its own incoming edges must be
				// re-checked (their sources may lose matches in turn).
				for _, ei2 := range nq.in[e.from] {
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
// sets of the original nodes, iterating their members in ascending
// order. On cancellation (observed through s's binding) the partial
// result is meaningless; callers must check s.Canceled() before using
// it.
func collect(g *graph.Graph, q *Query, nq *normQuery, chains [][]dist.CAtom, mats []nodeSet, opts Options, s *dist.Scratch) *Result {
	res := &Result{q: q, Sets: make([][]reach.Pair, q.NumEdges())}
	be := opts.distBackend()
	for ei := 0; ei < q.NumEdges(); ei++ {
		e := q.Edge(ei)
		from := mats[nq.ofNode[e.From]].members()
		to := mats[nq.ofNode[e.To]].members()
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
					switch {
					case opts.Matrix != nil:
						sat = a.SatMatrix(opts.Matrix, x, y)
					case be != nil:
						sat = be.Sat(a, x, y, s)
					default:
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
