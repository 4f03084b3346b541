package pattern

import (
	"context"

	"regraph/internal/graph"
)

// SplitMatch evaluates the pattern with the split-based algorithm of
// Section 5.2 (Fig. 8), the partition-refinement approach borrowed from
// labeled-transition-system verification. Data nodes are grouped into
// blocks; a partition-relation pair <par, rel> maps every pattern node to
// the set of blocks whose union is its current match set. Each iteration
// picks an edge whose rmv set (sources that lost all valid successors) is
// non-empty, splits every block of par against that set, drops the removed
// blocks from the source's rel, and propagates new rmv sets to incoming
// edges. The fixpoint is the same maximum match relation JoinMatch
// computes; the block structure shares refinement work between pattern
// nodes with overlapping match sets.
func SplitMatch(g *graph.Graph, q *Query, opts Options) *Result {
	res, _ := SplitMatchCtx(nil, g, q, opts)
	return res
}

// SplitMatchCtx is SplitMatch with cancellation, under the same contract
// as JoinMatchCtx: checkpoints in the partition-refinement worklist loop
// and in every search primitive below it; nil result and ctx's error on
// cancellation.
func SplitMatchCtx(ctx context.Context, g *graph.Graph, q *Query, opts Options) (*Result, error) {
	if q.NumEdges() == 0 {
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
	st := newSplitState(g.NumNodes(), mats)

	// Seed the worklist with every edge (Fig. 8 line 7 computes rmv for
	// all edges up front).
	queue := make([]int, 0, q.NumEdges())
	queued := make([]bool, q.NumEdges())
	for ei := range queued {
		queue = append(queue, ei)
		queued[ei] = true
	}
	for len(queue) > 0 {
		if s.Canceled() {
			return nil, ctx.Err()
		}
		ei := queue[0]
		queue = queue[1:]
		queued[ei] = false
		e := q.Edge(ei)
		// rmv(e): sources in mat(u') with no satisfying successor in
		// mat(u). Computed against a scratch copy so the split machinery
		// owns the actual removal.
		src := &mats[e.From]
		work := newNodeSet(len(src.has), s)
		for _, v := range src.members() {
			work.add(v)
		}
		changed, nonEmpty := ck.refineSrc(ei, &work, &mats[e.To])
		if !changed {
			work.release(s)
			continue
		}
		if !nonEmpty {
			work.release(s)
			if s.Canceled() {
				return nil, ctx.Err()
			}
			return &Result{}, nil
		}
		rmv := s.Bitset(len(src.has))
		for _, v := range src.members() {
			rmv[v] = !work.has[v]
		}
		// Split every block of par against rmv, then drop the rmv-side
		// blocks from rel(u') — which updates mat(u') (Fig. 8 lines 10-11).
		st.split(rmv)
		st.dropFromRel(e.From, rmv, mats)
		work.release(s)
		s.Recycle(rmv)
		// Propagate: edges into u' must recompute their rmv sets
		// (Fig. 8 lines 12-14).
		for _, ei2 := range q.In(e.From) {
			if !queued[ei2] {
				queue = append(queue, ei2)
				queued[ei2] = true
			}
		}
	}
	res := collect(g, q, chains, mats, opts.Backend, s)
	if s.Canceled() {
		return nil, ctx.Err()
	}
	return res, nil
}

// splitState is the partition-relation pair <par, rel>: a partition of the
// data nodes into blocks, plus, per pattern node, the set of block IDs
// whose union is its match set.
type splitState struct {
	blockOf []int   // data node -> current block id
	members [][]int // block id -> member data nodes
	rel     []map[int]bool
}

// newSplitState builds the initial partition. Blocks group data nodes by
// their signature — the set of pattern nodes whose initial match set
// contains them — which generalizes the paper's B(u) initialization to
// overlapping match sets while keeping par a true partition.
func newSplitState(n int, mats []nodeSet) *splitState {
	st := &splitState{
		blockOf: make([]int, n),
		rel:     make([]map[int]bool, len(mats)),
	}
	sigBlock := map[string]int{}
	sig := make([]byte, len(mats))
	for v := 0; v < n; v++ {
		for u := range mats {
			if mats[u].has[v] {
				sig[u] = '1'
			} else {
				sig[u] = '0'
			}
		}
		key := string(sig)
		b, ok := sigBlock[key]
		if !ok {
			b = len(st.members)
			sigBlock[key] = b
			st.members = append(st.members, nil)
		}
		st.blockOf[v] = b
		st.members[b] = append(st.members[b], v)
	}
	for u := range mats {
		st.rel[u] = map[int]bool{}
		for _, v := range mats[u].members() {
			st.rel[u][st.blockOf[v]] = true
		}
	}
	return st
}

// split refines the partition against a node set: every block B becomes
// B ∩ set and B \ set (the Split procedure of Fig. 8). New blocks inherit
// the rel memberships of their parent.
func (st *splitState) split(set []bool) {
	touched := map[int]bool{}
	for v, in := range set {
		if in {
			touched[st.blockOf[v]] = true
		}
	}
	for b := range touched {
		var inside, outside []int
		for _, v := range st.members[b] {
			if set[v] {
				inside = append(inside, v)
			} else {
				outside = append(outside, v)
			}
		}
		if len(inside) == 0 || len(outside) == 0 {
			continue // block not actually split
		}
		nb := len(st.members)
		st.members = append(st.members, inside)
		st.members[b] = outside
		for _, v := range inside {
			st.blockOf[v] = nb
		}
		for u := range st.rel {
			if st.rel[u][b] {
				st.rel[u][nb] = true
			}
		}
	}
}

// dropFromRel removes from pattern node u's rel every block contained in
// set (after split, blocks are either inside or outside set), and clears
// the corresponding bits of u's match set.
func (st *splitState) dropFromRel(u int, set []bool, mats []nodeSet) {
	for b := range st.rel[u] {
		m := st.members[b]
		if len(m) > 0 && set[m[0]] {
			delete(st.rel[u], b)
			for _, v := range m {
				mats[u].remove(graph.NodeID(v))
			}
		}
	}
}
