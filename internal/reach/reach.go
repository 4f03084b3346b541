// Package reach implements the paper's reachability queries (RQs,
// Section 2) and their two evaluation methods (Section 4).
//
// An RQ is Qr = (u1, u2, f_u1, f_u2, f_e): find all node pairs (v1, v2)
// such that v1 matches the predicate f_u1, v2 matches f_u2, and there is a
// non-empty path from v1 to v2 whose edge-color string belongs to L(f_e),
// with f_e drawn from the restricted subclass F of regular expressions.
//
// Evaluation methods:
//
//   - EvalBackend / StreamBackend: the paper's methods over one distance
//     backend (dist.Backend: the per-color distance Matrix, the LRU
//     distance Cache, or TwoHop labels). A single-atom expression is a
//     pairwise Backend.Sat ask over the candidate sets — one cell load
//     on the matrix, a bounded bi-directional search on a cache miss. A
//     longer expression is split in the middle: the prefix is pushed
//     forward from every source candidate, the suffix backward from
//     every destination candidate, and a pair is an answer when the two
//     node sets meet. A nil backend uses the split search throughout.
//   - EvalBFS / StreamBFS: forward-only product search per source
//     candidate — the reference every backend's answers must equal, in
//     order.
package reach

import (
	"fmt"
	"sync"

	"regraph/internal/dist"
	"regraph/internal/graph"
	"regraph/internal/predicate"
	"regraph/internal/rex"
)

// Query is a reachability query.
type Query struct {
	From predicate.Pred // f_u1: condition on the source node
	To   predicate.Pred // f_u2: condition on the destination node
	Expr rex.Expr       // f_e: path constraint from subclass F
}

// New builds an RQ.
func New(from, to predicate.Pred, expr rex.Expr) Query {
	return Query{From: from, To: to, Expr: expr}
}

// String renders the query.
func (q Query) String() string {
	return fmt.Sprintf("RQ[%s --%s--> %s]", q.From, q.Expr, q.To)
}

// Pair is one query answer: the source and destination node.
type Pair struct {
	From, To graph.NodeID
}

// CandidateSource supplies predicate candidate sets without scanning
// all nodes — internal/candidx's inverted Index and its engine-shared
// Memo both implement it. Implementations must return node IDs in
// ascending order, exactly the nodes Candidates returns; the slice is
// shared and must be treated as read-only by callers.
type CandidateSource interface {
	Candidates(p predicate.Pred) []graph.NodeID
}

// Candidates returns the IDs of nodes matching a predicate, in ID
// order, by linear scan. This is the reference evaluation every
// CandidateSource must agree with.
func Candidates(g *graph.Graph, p predicate.Pred) []graph.NodeID {
	return CandidatesAppend(nil, g, p)
}

// CandidatesAppend appends the IDs of nodes matching a predicate to dst,
// in ID order, and returns the extended slice. Passing a reused scratch
// slice (dst[:0]) avoids the per-query allocation Candidates pays.
func CandidatesAppend(dst []graph.NodeID, g *graph.Graph, p predicate.Pred) []graph.NodeID {
	for v := 0; v < g.NumNodes(); v++ {
		if p.Eval(g.Attrs(graph.NodeID(v))) {
			dst = append(dst, graph.NodeID(v))
		}
	}
	return dst
}

// candPool recycles candidate buffers across evaluations, so repeated RQ
// evaluation (the bench workloads run thousands back to back) does not
// reallocate two slices per query.
var candPool = sync.Pool{
	New: func() any {
		s := make([]graph.NodeID, 0, 64)
		return &s
	},
}

// takeCands draws a pooled buffer and fills it with p's candidates. The
// returned pointer must be handed back with putCands once the slice is no
// longer referenced.
func takeCands(g *graph.Graph, p predicate.Pred) *[]graph.NodeID {
	buf := candPool.Get().(*[]graph.NodeID)
	*buf = CandidatesAppend((*buf)[:0], g, p)
	return buf
}

func putCands(buf *[]graph.NodeID) { candPool.Put(buf) }

// candsFrom resolves a predicate's candidates through cs when non-nil
// (indexed/memoized, shared read-only slice) and by pooled linear scan
// otherwise. release must be called when the slice is dead.
func candsFrom(cs CandidateSource, g *graph.Graph, p predicate.Pred) (cands []graph.NodeID, release func()) {
	if cs != nil {
		return cs.Candidates(p), func() {}
	}
	buf := takeCands(g, p)
	return *buf, func() { putCands(buf) }
}

// EvalBFS evaluates the query by forward-only search: for every source
// candidate the whole expression is pushed through the graph with
// multi-source bounded BFS, and the resulting node set is intersected with
// the destination candidates.
func (q Query) EvalBFS(g *graph.Graph) []Pair {
	s := dist.GetScratch()
	defer dist.PutScratch(s)
	return q.EvalBFSScratch(g, s)
}

// EvalBFSScratch is EvalBFS with an explicit search arena: the per-source
// seed bitset and every closure buffer are reused from s, so repeated
// evaluation on one worker allocates only the answer slice.
func (q Query) EvalBFSScratch(g *graph.Graph, s *dist.Scratch) []Pair {
	return q.EvalBFSScratchWith(g, s, nil)
}

// EvalBFSScratchWith is EvalBFSScratch with candidate sets drawn from
// cs when non-nil (see CandidateSource) instead of the linear scan.
func (q Query) EvalBFSScratchWith(g *graph.Graph, s *dist.Scratch, cs CandidateSource) []Pair {
	var out []Pair
	_ = q.StreamBFS(nil, g, s, cs, func(p Pair) bool {
		out = append(out, p)
		return true
	})
	return out
}

// EvalBackend evaluates the query against any distance backend (see
// dist.Backend and StreamBackend) with a pooled search arena.
func (q Query) EvalBackend(g *graph.Graph, be dist.Backend) []Pair {
	s := dist.GetScratch()
	defer dist.PutScratch(s)
	return q.EvalBackendScratchWith(g, be, s, nil)
}

// EvalBackendScratchWith is EvalBackend with an explicit arena and
// candidate source (nil scans; see CandidateSource). In steady state a
// repeated query allocates nothing but its answer slice.
func (q Query) EvalBackendScratchWith(g *graph.Graph, be dist.Backend, s *dist.Scratch, cs CandidateSource) []Pair {
	var out []Pair
	_ = q.StreamBackend(nil, g, be, s, cs, func(p Pair) bool {
		out = append(out, p)
		return true
	})
	return out
}
