package dist

import (
	"context"

	"regraph/internal/graph"
)

// This file is the context-aware face of the runtime search primitives.
// The underlying loops (boundedImageInto, BiDistScratch, the closure
// chains) poll a context bound to their Scratch at periodic checkpoints
// (every cancelMask+1 node expansions and between atoms/levels), so an
// abandoned query stops burning its worker within microseconds instead
// of finishing a possibly graph-sized BFS. These wrappers bind the
// context for one call and translate "abandoned" into the context's
// error; evaluators that make many search calls per query (internal/
// reach, internal/pattern) instead bind once with Scratch.BindContext
// and check Scratch.Canceled at their own loop boundaries.

// ForwardClosureCtx is ForwardClosureScratch with cancellation: when ctx
// is cancelled mid-search the closure is abandoned and ctx's error is
// returned; the returned slice is then garbage and must be ignored. The
// result slice is owned by s exactly as with ForwardClosureScratch.
func ForwardClosureCtx(ctx context.Context, g *graph.Graph, src []bool, atoms []CAtom, s *Scratch) ([]bool, error) {
	unbind := s.BindContext(ctx)
	defer unbind()
	res := ForwardClosureScratch(g, src, atoms, s)
	if s.Canceled() {
		return nil, ctx.Err()
	}
	return res, nil
}

// BackwardClosureCtx is BackwardClosureScratch with cancellation; same
// contract as ForwardClosureCtx.
func BackwardClosureCtx(ctx context.Context, g *graph.Graph, dst []bool, atoms []CAtom, s *Scratch) ([]bool, error) {
	unbind := s.BindContext(ctx)
	defer unbind()
	res := BackwardClosureScratch(g, dst, atoms, s)
	if s.Canceled() {
		return nil, ctx.Err()
	}
	return res, nil
}

// BiDistCtx is BiDistScratch with cancellation: the frontier expansion
// observes ctx between levels and every cancelMask+1 expansions within a
// level. On cancellation the returned distance is meaningless and ctx's
// error is non-nil.
func BiDistCtx(ctx context.Context, g *graph.Graph, c graph.ColorID, v1, v2 graph.NodeID, s *Scratch) (int32, error) {
	unbind := s.BindContext(ctx)
	defer unbind()
	d := BiDistScratch(g, c, v1, v2, s)
	if s.Canceled() {
		return graph.Unreachable, ctx.Err()
	}
	return d, nil
}

// DistCtx is Cache.DistScratch with cancellation: a hit is returned
// immediately; a miss runs the bi-directional search under ctx, and a
// search abandoned by cancellation is neither returned nor stored (the
// cache only ever holds what a search proved).
func (ca *Cache) DistCtx(ctx context.Context, c graph.ColorID, v1, v2 graph.NodeID, s *Scratch) (int32, error) {
	if s == nil {
		s = GetScratch()
		defer PutScratch(s)
	}
	unbind := s.BindContext(ctx)
	defer unbind()
	d := ca.DistScratch(c, v1, v2, s)
	if s.Canceled() {
		return graph.Unreachable, ctx.Err()
	}
	return d, nil
}
