package reach

import (
	"context"
	"iter"
	"sync"

	"regraph/internal/dist"
	"regraph/internal/graph"
)

// This file holds the streaming faces of the three RQ evaluation
// methods: instead of materializing a []Pair, answers are emitted one at
// a time through a yield callback the moment they are found, and a
// context threads cancellation down into the search loops. The
// materializing evaluators (EvalMatrixWith and friends) are thin
// collect-wrappers over these, so there is exactly one evaluation code
// path per method and the answer order is identical either way.
//
// Contract shared by the Stream* methods:
//
//   - yield is called once per answer pair, in the same order the
//     materializing evaluator would append them; returning false stops
//     the enumeration early (the error is then nil).
//   - A nil or non-cancellable ctx (context.Background) disables the
//     cancellation checkpoints entirely; they cost nothing.
//   - When ctx is cancelled mid-evaluation the search is abandoned at
//     the next checkpoint and ctx's error is returned; pairs already
//     yielded remain valid answers (the stream is a correct prefix).

// ctxCheck is the polling helper for evaluator loops that have no
// Scratch to bind a context to (the matrix method): err is a
// channel-closed probe, free when the context cannot be cancelled.
type ctxCheck struct {
	ctx  context.Context
	done <-chan struct{}
}

func newCtxCheck(ctx context.Context) ctxCheck {
	if ctx == nil {
		return ctxCheck{}
	}
	return ctxCheck{ctx: ctx, done: ctx.Done()}
}

func (c ctxCheck) err() error {
	if c.done == nil {
		return nil
	}
	select {
	case <-c.done:
		return c.ctx.Err()
	default:
		return nil
	}
}

// StreamMatrix evaluates the query with the distance matrix (see
// EvalMatrix), emitting each answer pair through yield as the forward
// enumeration finds it. Cancellation checkpoints run per refinement
// layer, per candidate within a layer (strided), and per source during
// enumeration.
func (q Query) StreamMatrix(ctx context.Context, g *graph.Graph, mx *dist.Matrix, cs CandidateSource, yield func(Pair) bool) error {
	cc := newCtxCheck(ctx)
	atoms, ok := dist.Compile(g, q.Expr)
	if !ok {
		return nil
	}
	cand1, rel1 := candsFrom(cs, g, q.From)
	defer rel1()
	cand2, rel2 := candsFrom(cs, g, q.To)
	defer rel2()
	if len(cand1) == 0 || len(cand2) == 0 {
		return nil
	}
	h := len(atoms)
	// layers[i] is the match set of the i-th dummy node: nodes from which
	// atoms[i:] can reach some destination candidate. layers[h] = cand2.
	layers := make([][]graph.NodeID, h+1)
	layers[h] = cand2
	var all []graph.NodeID
	for i := h - 1; i >= 0; i-- {
		if err := cc.err(); err != nil {
			return err
		}
		var from []graph.NodeID
		if i == 0 {
			from = cand1
		} else {
			if all == nil {
				all = allNodes(g)
			}
			from = all
		}
		var err error
		layers[i], err = refineLayer(mx, atoms[i], from, layers[i+1], cc)
		if err != nil {
			return err
		}
		if len(layers[i]) == 0 {
			return nil
		}
	}
	// Forward enumeration: for each surviving source, walk the layers.
	for _, x := range layers[0] {
		if err := cc.err(); err != nil {
			return err
		}
		for _, y := range forwardImage(mx, atoms, x, layers) {
			if !yield(Pair{x, y}) {
				return nil
			}
		}
	}
	return nil
}

// StreamBFS evaluates the query by forward-only search (see EvalBFS),
// emitting answers per source candidate as its closure completes. The
// context is bound to s, so the closure BFS itself observes
// cancellation at its strided checkpoints.
func (q Query) StreamBFS(ctx context.Context, g *graph.Graph, s *dist.Scratch, cs CandidateSource, yield func(Pair) bool) error {
	atoms, ok := dist.Compile(g, q.Expr)
	if !ok {
		return nil
	}
	unbind := s.BindContext(ctx)
	defer unbind()
	cand1, rel1 := candsFrom(cs, g, q.From)
	defer rel1()
	cand2, rel2 := candsFrom(cs, g, q.To)
	defer rel2()
	if len(cand1) == 0 || len(cand2) == 0 {
		return nil
	}
	for _, x := range cand1 {
		res, _ := dist.ForwardClosureOf(g, []graph.NodeID{x}, atoms, s)
		if s.Canceled() {
			return ctx.Err()
		}
		for _, y := range cand2 {
			if res[y] {
				if !yield(Pair{x, y}) {
					return nil
				}
			}
		}
	}
	return nil
}

// StreamBiBFS evaluates the query with the bi-directional runtime search
// (see EvalBiBFS), emitting answers as each source's forward closure is
// intersected with the retained backward closures. It is StreamBackend
// with the cache as the (optional) distance backend; the indirection
// keeps the historical cache-typed API while the engine speaks Backend.
func (q Query) StreamBiBFS(ctx context.Context, g *graph.Graph, ca *dist.Cache, s *dist.Scratch, cs CandidateSource, yield func(Pair) bool) error {
	// The nil *Cache must become a nil interface, not a non-nil
	// interface holding a nil pointer — StreamBackend branches on it.
	var be dist.Backend
	if ca != nil {
		be = ca
	}
	return q.StreamBackend(ctx, g, be, s, cs, yield)
}

// StreamBackend evaluates the query against any distance backend
// (Matrix, TwoHop, Cache — see dist.Backend): single-atom expressions
// become pairwise Backend.Sat asks over the candidate sets; longer
// expressions fall back to the split closure search, which never needs
// per-pair distances. A nil backend always uses closures. The context
// is bound to s for the duration, so every closure and cache-miss
// search under this call observes cancellation; a cancelled cache-miss
// search is never stored (see dist.Cache). Index-backed backends answer
// O(1)/O(label) lookups regardless of ctx.
func (q Query) StreamBackend(ctx context.Context, g *graph.Graph, be dist.Backend, s *dist.Scratch, cs CandidateSource, yield func(Pair) bool) error {
	atoms, ok := dist.Compile(g, q.Expr)
	if !ok {
		return nil
	}
	unbind := s.BindContext(ctx)
	defer unbind()
	cand1, rel1 := candsFrom(cs, g, q.From)
	defer rel1()
	cand2, rel2 := candsFrom(cs, g, q.To)
	defer rel2()
	if len(cand1) == 0 || len(cand2) == 0 {
		return nil
	}
	if len(atoms) == 1 && be != nil {
		a := atoms[0]
		for _, x := range cand1 {
			if s.Canceled() {
				return ctx.Err()
			}
			for _, y := range cand2 {
				if be.Sat(a, x, y, s) {
					if !yield(Pair{x, y}) {
						return nil
					}
				}
			}
		}
		if s.Canceled() {
			return ctx.Err()
		}
		return nil
	}
	mid := len(atoms) / 2
	// The backward closure of the suffix from each destination is kept
	// as a member list, all of them back to back in one pooled buffer;
	// the forward closure of the prefix is then streamed one source at
	// a time, and a pair is an answer when some member of the
	// destination's list is in the source's forward bitset.
	bwd := memberListPool.Get().(*memberLists)
	defer memberListPool.Put(bwd)
	bwd.ids, bwd.end = bwd.ids[:0], bwd.end[:0]
	for _, y := range cand2 {
		_, members := dist.BackwardClosureOf(g, []graph.NodeID{y}, atoms[mid:], s)
		if s.Canceled() {
			return ctx.Err()
		}
		bwd.ids = append(bwd.ids, members...)
		bwd.end = append(bwd.end, len(bwd.ids))
	}
	for _, x := range cand1 {
		fwd, _ := dist.ForwardClosureOf(g, []graph.NodeID{x}, atoms[:mid], s)
		if s.Canceled() {
			return ctx.Err()
		}
		start := 0
		for j, y := range cand2 {
			if meets(fwd, bwd.ids[start:bwd.end[j]]) {
				if !yield(Pair{x, y}) {
					return nil
				}
			}
			start = bwd.end[j]
		}
	}
	return nil
}

// memberLists holds node sets back to back: set j is ids[end[j-1]:end[j]]
// (from 0 for j = 0).
type memberLists struct {
	ids []graph.NodeID
	end []int
}

// memberListPool recycles StreamBackend's per-destination closures.
var memberListPool = sync.Pool{New: func() any { return new(memberLists) }}

// meets reports whether some member is set in bits.
func meets(bits []bool, members []graph.NodeID) bool {
	for _, v := range members {
		if bits[v] {
			return true
		}
	}
	return false
}

// PairsMatrix adapts StreamMatrix to a range-able iterator:
//
//	for p := range q.PairsMatrix(ctx, g, mx, cs) { ... }
//
// Cancellation just ends the sequence early; when that matters, check
// ctx.Err() after the loop (or use StreamMatrix directly, which returns
// the error).
func (q Query) PairsMatrix(ctx context.Context, g *graph.Graph, mx *dist.Matrix, cs CandidateSource) iter.Seq[Pair] {
	return func(yield func(Pair) bool) {
		_ = q.StreamMatrix(ctx, g, mx, cs, yield)
	}
}

// PairsBiBFS adapts StreamBiBFS to a range-able iterator; the same
// early-end cancellation semantics as PairsMatrix apply.
func (q Query) PairsBiBFS(ctx context.Context, g *graph.Graph, ca *dist.Cache, s *dist.Scratch, cs CandidateSource) iter.Seq[Pair] {
	return func(yield func(Pair) bool) {
		_ = q.StreamBiBFS(ctx, g, ca, s, cs, yield)
	}
}
