package reach

import (
	"context"
	"sync"

	"regraph/internal/dist"
	"regraph/internal/graph"
)

// This file holds the streaming faces of the RQ evaluation methods:
// instead of materializing a []Pair, answers are emitted one at a time
// through a yield callback the moment they are found, and a context
// threads cancellation down into the search loops. The materializing
// evaluators (EvalBackendScratchWith, EvalBFSScratchWith) are thin
// collect-wrappers over these, so there is exactly one evaluation code
// path per method and the answer order is identical either way.
//
// Contract shared by the Stream* methods:
//
//   - yield is called once per answer pair, in the same order the
//     materializing evaluator would append them: sources in candidate
//     order, and per source its destinations in candidate order.
//     Returning false stops the enumeration early (the error is then
//     nil).
//   - A nil or non-cancellable ctx (context.Background) disables the
//     cancellation checkpoints entirely; they cost nothing.
//   - When ctx is cancelled mid-evaluation the search is abandoned at
//     the next checkpoint and ctx's error is returned; pairs already
//     yielded remain valid answers (the stream is a correct prefix).

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

// StreamBackend evaluates the query against any distance backend
// (Matrix, TwoHop, Cache — see dist.Backend): single-atom expressions
// become pairwise Backend.Sat asks over the candidate sets; longer
// expressions fall back to the split closure search, which never needs
// per-pair distances. A nil backend (a nil interface, not a typed nil
// pointer) always uses closures. The context is bound to s for the
// duration, so every closure and cache-miss search under this call
// observes cancellation; a cancelled cache-miss search is never stored
// (see dist.Cache). Index-backed backends answer O(1)/O(label) lookups
// regardless of ctx.
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
