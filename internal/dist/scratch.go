package dist

import (
	"context"
	"sync"

	"regraph/internal/graph"
)

// Scratch is a reusable per-worker arena for the runtime search
// primitives: BFS distance arrays and visit lists, the ping-pong
// bitsets the closures advance through (each with its member list), and
// free lists of retainable bitsets and node lists. Every allocation the
// closure and bi-directional search paths used to make per call is drawn
// from here instead, so a worker that evaluates queries back to back
// (internal/engine, the bench workloads) reaches a steady state of zero
// allocations per query.
//
// The arena rule: a search costs what it visits, never |V|. The distance
// arrays d and d2 rest at graph.Unreachable in every entry of their
// capacity between calls, and every search resets exactly the entries it
// set (the ones in its visit lists) before it returns, a cancelled
// search included. The closure bitsets rest with exactly the bits of
// their member lists set, and are cleared through those lists. Only
// growing a buffer touches all of it.
//
// A Scratch is NOT safe for concurrent use: it is owned by exactly one
// goroutine at a time. Give each worker its own (engine workers do), or
// borrow one from the package pool with GetScratch/PutScratch.
type Scratch struct {
	d       []int32        // BFS distances (closures, BiDist's forward side, 2-hop build)
	d2      []int32        // BiDist's backward side, 2-hop build's rank scatter
	queue   []graph.NodeID // closure BFS visit list
	q1      []graph.NodeID // BiDist forward visit list
	q2      []graph.NodeID // BiDist backward visit list
	cur     []bool         // closure ping-pong bitsets: the bits set are
	next    []bool         // exactly the members in curIDs / nextIDs
	curIDs  []graph.NodeID
	nextIDs []graph.NodeID
	srcIDs  []graph.NodeID   // members of a []bool source set
	free    [][]bool         // recycled retainable bitsets (Bitset/Recycle)
	lists   [][]graph.NodeID // recycled node lists (NodeList/RecycleNodeList)

	// Cancellation binding (BindContext): while ctx is non-nil, the
	// search primitives poll it at periodic checkpoints and bail out
	// early; ctxHit latches the first observed cancellation so later
	// checks are a plain field read.
	ctx    context.Context
	ctxHit bool
}

// NewScratch returns an empty arena; buffers grow on first use and are
// retained for the arena's lifetime.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool recycles arenas for the convenience entry points
// (ForwardClosure, BiDist, Cache.Dist) that do not take an explicit
// Scratch.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// GetScratch borrows an arena from the package pool. Return it with
// PutScratch once no slice obtained from it is referenced anymore.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns an arena to the package pool.
func PutScratch(s *Scratch) {
	// Never park a stale context in the pool: a later borrower must not
	// inherit another query's cancellation.
	s.ctx, s.ctxHit = nil, false
	scratchPool.Put(s)
}

// BindContext attaches a context to the arena: until the returned
// function restores the previous binding, the search primitives running
// on s (the boundedImage BFS loop, the BiDist frontier expansion, the
// closure chains) poll the context at periodic checkpoints and abandon
// the search when it is cancelled, leaving garbage in their result
// buffers. Callers detect that with Canceled and must discard the
// partial results. Contexts that can never be cancelled (nil,
// context.Background, context.TODO) are not bound at all, so the
// checkpoints stay free for non-cancellable evaluation. Always defer
// the unbind so a pooled or worker-resident arena is never left with a
// dead query's context.
func (s *Scratch) BindContext(ctx context.Context) (unbind func()) {
	prevCtx, prevHit := s.ctx, s.ctxHit
	if ctx != nil && ctx.Done() != nil {
		s.ctx = ctx
	} else {
		s.ctx = nil
	}
	s.ctxHit = false
	return func() { s.ctx, s.ctxHit = prevCtx, prevHit }
}

// Canceled reports whether the context bound to the arena has been
// cancelled, checking it directly (not strided) and latching the first
// observation. With no binding it is always false. Evaluators call this
// at loop boundaries and after closure calls to decide whether the
// buffers they just filled are real answers or abandoned garbage.
func (s *Scratch) Canceled() bool {
	if s.ctx == nil {
		return false
	}
	if s.ctxHit {
		return true
	}
	if s.ctx.Err() != nil {
		s.ctxHit = true
		return true
	}
	return false
}

// restingBuf returns *buf resized to n with every entry at
// graph.Unreachable. Entries rest there between calls (see Scratch), so
// only a grown buffer is filled.
func restingBuf(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		b := make([]int32, n)
		for i := range b {
			b[i] = graph.Unreachable
		}
		*buf = b
	}
	*buf = (*buf)[:n]
	return *buf
}

// unvisit returns the entries of d listed in visited to
// graph.Unreachable, restoring the resting state.
func unvisit(d []int32, visited []graph.NodeID) {
	for _, v := range visited {
		d[v] = graph.Unreachable
	}
}

// clearBits clears the bits of *bits listed in *ids, empties *ids and
// returns *bits resized to n: all false at the cost of the members.
func clearBits(bits *[]bool, ids *[]graph.NodeID, n int) []bool {
	b := (*bits)[:cap(*bits)]
	for _, v := range *ids {
		b[v] = false
	}
	*ids = (*ids)[:0]
	if cap(b) < n {
		b = make([]bool, n)
	}
	*bits = b[:n]
	return *bits
}

// Bitset checks a zeroed bitset of length n out of the arena's free
// list. Unlike closure results it remains valid across further closure
// calls; hand it back with Recycle when done.
func (s *Scratch) Bitset(n int) []bool {
	for i := len(s.free) - 1; i >= 0; i-- {
		b := s.free[i]
		if cap(b) >= n {
			s.free[i] = s.free[len(s.free)-1]
			s.free = s.free[:len(s.free)-1]
			b = b[:n]
			clear(b)
			return b
		}
	}
	return make([]bool, n)
}

// maxFreeBitsets bounds each free list (bitsets and node lists). A query
// retains a few per pattern node, but a resident worker arena must not
// park an unusual query's high-water mark forever; beyond the cap,
// Recycle and RecycleNodeList drop buffers for the GC and only the
// steady-state working set is kept.
const maxFreeBitsets = 64

// Recycle returns a bitset obtained from Bitset to the free list.
func (s *Scratch) Recycle(b []bool) {
	if len(s.free) >= maxFreeBitsets {
		return
	}
	s.free = append(s.free, b)
}

// NodeList checks an empty node list out of the arena's free list.
// Like Bitset it stays valid across closure calls; hand it back, grown
// or not, with RecycleNodeList.
func (s *Scratch) NodeList() []graph.NodeID {
	if k := len(s.lists); k > 0 {
		l := s.lists[k-1]
		s.lists = s.lists[:k-1]
		return l[:0]
	}
	return nil
}

// RecycleNodeList returns a list obtained from NodeList to the free list.
func (s *Scratch) RecycleNodeList(l []graph.NodeID) {
	if len(s.lists) >= maxFreeBitsets || cap(l) == 0 {
		return
	}
	s.lists = append(s.lists, l)
}

// ForwardClosureScratch is ForwardClosure with an explicit arena: the
// atom chain is pushed forward from the source set entirely within s's
// buffers. The result always has length g.NumNodes() — a shorter src is
// treated as false beyond its length. The returned slice is owned by
// s: it is read-only and valid only until the next closure or search
// call on s; copy it (e.g. into s.Bitset) to retain it. Finding the
// members of src scans it once; callers that hold the members should
// call ForwardClosureOf.
func ForwardClosureScratch(g *graph.Graph, src []bool, atoms []CAtom, s *Scratch) []bool {
	res, _ := closure(g, s.members(g, src), atoms, true, s)
	return res
}

// BackwardClosureScratch is BackwardClosure with an explicit arena; the
// same sizing and ownership rules as ForwardClosureScratch apply.
func BackwardClosureScratch(g *graph.Graph, dst []bool, atoms []CAtom, s *Scratch) []bool {
	res, _ := closure(g, s.members(g, dst), atoms, false, s)
	return res
}

// ForwardClosureOf pushes the atom chain forward from the source set
// given by its members (one for a single-source closure; repeats are
// ignored) and returns the result both as a bitset of length
// g.NumNodes() and as its member list, in no particular order. Its cost
// is what the searches visit: no step touches all |V| slots. Both
// slices are owned by s, read-only, and valid only until the next
// closure or search call on s; src must not be one of them.
func ForwardClosureOf(g *graph.Graph, src []graph.NodeID, atoms []CAtom, s *Scratch) ([]bool, []graph.NodeID) {
	return closure(g, src, atoms, true, s)
}

// BackwardClosureOf is ForwardClosureOf over reversed edges: the nodes
// from which some member of dst is reachable via a path matching the
// chain. The same ownership rules apply.
func BackwardClosureOf(g *graph.Graph, dst []graph.NodeID, atoms []CAtom, s *Scratch) ([]bool, []graph.NodeID) {
	return closure(g, dst, atoms, false, s)
}

// members lists the set bits of set (up to g.NumNodes()) into s.srcIDs.
func (s *Scratch) members(g *graph.Graph, set []bool) []graph.NodeID {
	ids := s.srcIDs[:0]
	for v, in := range set[:min(len(set), g.NumNodes())] {
		if in {
			ids = append(ids, graph.NodeID(v))
		}
	}
	s.srcIDs = ids
	return ids
}

// closure runs the atom chain from src through the ping-pong bitsets,
// forward in chain order or backward in reverse order, each step taking
// the previous step's member list as its sources.
func closure(g *graph.Graph, src []graph.NodeID, atoms []CAtom, forward bool, s *Scratch) ([]bool, []graph.NodeID) {
	n := g.NumNodes()
	cur := clearBits(&s.cur, &s.curIDs, n)
	clearBits(&s.next, &s.nextIDs, n)
	ids := s.curIDs
	for _, v := range src {
		if !cur[v] {
			cur[v] = true
			ids = append(ids, v)
		}
	}
	s.curIDs = ids
	for i := range atoms {
		if s.Canceled() {
			break
		}
		a := atoms[i]
		if !forward {
			a = atoms[len(atoms)-1-i]
		}
		s.nextIDs = boundedImage(g, s.curIDs, a, forward, s.next, s.nextIDs, s)
		s.cur, s.next = s.next, s.cur
		s.curIDs, s.nextIDs = s.nextIDs, s.curIDs
		clearBits(&s.next, &s.nextIDs, n)
	}
	return s.cur, s.curIDs
}

// BiDistScratch is BiDist with an explicit arena: the visit lists and
// distance arrays come from s instead of the heap.
func BiDistScratch(g *graph.Graph, c graph.ColorID, v1, v2 graph.NodeID, s *Scratch) int32 {
	d, _ := biDist(g, c, v1, v2, -1, s)
	return d
}

// expandLevel expands one side's current level in biDist: the nodes
// q[head:], over adj (out-edges for the forward side, in-edges for the
// backward one), with d this side's distances and other the opposite
// side's. Each neighbour the other side has labelled proposes a path
// length, min-ed into best; each neighbour this side has not labelled
// joins q one step further. The adjacency loop is inline (no visitor
// callbacks) for the same reason as boundedImage's: escaping closures
// were a per-call allocation on the cache-miss path.
func expandLevel(adj graph.Layer, q []graph.NodeID, head int, d, other []int32, best int32, s *Scratch) ([]graph.NodeID, int32) {
	end := len(q)
	for i := head; i < end; i++ {
		if (i-head)&cancelMask == cancelMask && s.Canceled() {
			break
		}
		v := q[i]
		for _, w := range adj.Row(v) {
			// Candidates are only proposed on edge relaxations, so the
			// v1 == v2 overlap at distance 0 (the empty path) is never
			// counted.
			if other[w] != graph.Unreachable {
				if cand := d[v] + 1 + other[w]; best == graph.Unreachable || cand < best {
					best = cand
				}
			}
			if d[w] == graph.Unreachable {
				d[w] = d[v] + 1
				q = append(q, graph.NodeID(w))
			}
		}
	}
	return q, best
}

// BiSat reports whether (v1, v2) satisfies the atom by runtime search
// alone: BiDist bounded by the atom, which stops as soon as no path
// within the bound is left to find. It is the backend-free form of
// Backend.Sat.
func BiSat(g *graph.Graph, a CAtom, v1, v2 graph.NodeID, s *Scratch) bool {
	d, exact := biDist(g, a.Color, v1, v2, a.searchBound(g.NumNodes()), s)
	return exact && a.Sat(d)
}

// biDist is the bi-directional search behind BiDist, Cache and BiSat.
// With bound < 0 it returns the exact shortest non-empty distance (or
// graph.Unreachable) and exact = true. With bound >= 0 it may instead
// stop once every path still unproposed is longer than bound, and then
// returns exact = false with d such that the distance exceeds d (d >=
// bound). A search abandoned by a cancelled context returns garbage.
//
// Each side keeps every node it has labelled in one visit list, the
// current level being its tail from the level's start, so the distance
// arrays are reset through the lists on every exit.
func biDist(g *graph.Graph, c graph.ColorID, v1, v2 graph.NodeID, bound int32, s *Scratch) (d int32, exact bool) {
	n := g.NumNodes()
	fwd, bwd := g.Layer(c, true), g.Layer(c, false)
	df := restingBuf(&s.d, n)
	db := restingBuf(&s.d2, n)
	df[v1] = 0
	db[v2] = 0
	fq := append(s.q1[:0], v1)
	bq := append(s.q2[:0], v2)
	fHead, bHead := 0, 0 // start of each side's unexpanded level
	var levF, levB int32
	best, exact := graph.Unreachable, true
	for fHead < len(fq) || bHead < len(bq) {
		// Safe cutoff: any path not yet proposed bridges two unfinished
		// levels, so its length is at least levF+levB.
		if best != graph.Unreachable && levF+levB >= best {
			break
		}
		if bound >= 0 && levF+levB > bound {
			// Every path within the bound has been proposed, and none was
			// found: the distance is at least levF+levB.
			best, exact = levF+levB-1, false
			break
		}
		if s.Canceled() {
			// Abandoned query: best may not be the shortest distance yet.
			// Callers that bound the context discard it (and the cache
			// never stores it; see Cache).
			break
		}
		if fLen, bLen := len(fq)-fHead, len(bq)-bHead; bLen == 0 || (fLen > 0 && fLen <= bLen) {
			end := len(fq)
			fq, best = expandLevel(fwd, fq, fHead, df, db, best, s)
			fHead = end
			levF++
		} else {
			end := len(bq)
			bq, best = expandLevel(bwd, bq, bHead, db, df, best, s)
			bHead = end
			levB++
		}
	}
	unvisit(df, fq)
	unvisit(db, bq)
	// Keep the (possibly grown) visit lists for the next call.
	s.q1, s.q2 = fq, bq
	return best, exact
}
