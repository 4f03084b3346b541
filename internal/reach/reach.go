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
//   - EvalMatrix: the quadratic-time method using the per-color distance
//     matrix. The query is decomposed into single-atom RQs linked by dummy
//     nodes, candidate sets are refined right-to-left, and pairs are then
//     enumerated left-to-right through the refined layers.
//   - EvalBFS: forward-only product search per source candidate.
//   - EvalBiBFS: the bi-directional runtime search with an optional LRU
//     distance cache, for graphs too large to hold a matrix.
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

// EvalMatrix evaluates the query with the distance matrix (Section 4,
// "matrix-based method"). The expression is decomposed into its atoms
// (each a single-color RQ over dummy nodes); candidate layers are refined
// from the destination side back to the source side, then answer pairs are
// enumerated forward through the refined layers.
func (q Query) EvalMatrix(g *graph.Graph, mx *dist.Matrix) []Pair {
	return q.EvalMatrixWith(g, mx, nil)
}

// EvalMatrixWith is EvalMatrix with candidate sets drawn from cs (an
// inverted index or engine memo) instead of the linear node scan; nil
// cs falls back to the scan. Answers are identical by the
// CandidateSource contract.
func (q Query) EvalMatrixWith(g *graph.Graph, mx *dist.Matrix, cs CandidateSource) []Pair {
	var out []Pair
	// A nil context disables every checkpoint, so the materializing path
	// pays nothing for the shared streaming implementation.
	_ = q.StreamMatrix(nil, g, mx, cs, func(p Pair) bool {
		out = append(out, p)
		return true
	})
	return out
}

// refineLayer returns the nodes in from that satisfy the atom towards some
// node in to, using O(1) matrix lookups. The context probe runs every 256
// sources — a refinement layer over all nodes is the matrix method's
// longest uninterruptible stretch.
func refineLayer(mx *dist.Matrix, a dist.CAtom, from, to []graph.NodeID, cc ctxCheck) ([]graph.NodeID, error) {
	var out []graph.NodeID
	for i, x := range from {
		if i&255 == 255 {
			if err := cc.err(); err != nil {
				return nil, err
			}
		}
		for _, y := range to {
			if a.SatMatrix(mx, x, y) {
				out = append(out, x)
				break
			}
		}
	}
	return out, nil
}

// forwardImage walks the refined layers from a single source, returning
// the destination-layer nodes reachable through every atom.
func forwardImage(mx *dist.Matrix, atoms []dist.CAtom, x graph.NodeID, layers [][]graph.NodeID) []graph.NodeID {
	frontier := []graph.NodeID{x}
	for i, a := range atoms {
		next := make([]graph.NodeID, 0, len(layers[i+1]))
		for _, y := range layers[i+1] {
			for _, z := range frontier {
				if a.SatMatrix(mx, z, y) {
					next = append(next, y)
					break
				}
			}
		}
		if len(next) == 0 {
			return nil
		}
		frontier = next
	}
	return frontier
}

func allNodes(g *graph.Graph) []graph.NodeID {
	out := make([]graph.NodeID, g.NumNodes())
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
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

// EvalBiBFS evaluates the query with the bi-directional runtime search of
// Section 4: the expression is split in the middle; the prefix is
// evaluated forward from every source candidate and the suffix backward
// from every destination candidate; a pair is an answer when its two node
// sets intersect. When the expression is a single atom and a cache is
// provided, distances come from the LRU cache instead.
func (q Query) EvalBiBFS(g *graph.Graph, ca *dist.Cache) []Pair {
	s := dist.GetScratch()
	defer dist.PutScratch(s)
	return q.EvalBiBFSScratch(g, ca, s)
}

// EvalBiBFSScratch is EvalBiBFS with an explicit search arena (the form
// internal/engine workers call). Seeds, closure buffers and the retained
// per-destination backward closures all come from s; in steady state a
// repeated query allocates nothing but its answer slice.
func (q Query) EvalBiBFSScratch(g *graph.Graph, ca *dist.Cache, s *dist.Scratch) []Pair {
	return q.EvalBiBFSScratchWith(g, ca, s, nil)
}

// EvalBiBFSScratchWith is EvalBiBFSScratch with candidate sets drawn
// from cs when non-nil (see CandidateSource) instead of the linear
// scan — the form internal/engine workers call with the engine's
// shared memo.
func (q Query) EvalBiBFSScratchWith(g *graph.Graph, ca *dist.Cache, s *dist.Scratch, cs CandidateSource) []Pair {
	var out []Pair
	_ = q.StreamBiBFS(nil, g, ca, s, cs, func(p Pair) bool {
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
// candidate source — the form engine workers call once a backend other
// than the cache is selected.
func (q Query) EvalBackendScratchWith(g *graph.Graph, be dist.Backend, s *dist.Scratch, cs CandidateSource) []Pair {
	var out []Pair
	_ = q.StreamBackend(nil, g, be, s, cs, func(p Pair) bool {
		out = append(out, p)
		return true
	})
	return out
}

// Matches reports whether the single pair (v1, v2) is an answer, using
// the provided matrix when non-nil and bi-directional search otherwise.
func (q Query) Matches(g *graph.Graph, mx *dist.Matrix, v1, v2 graph.NodeID) bool {
	if !q.From.Eval(g.Attrs(v1)) || !q.To.Eval(g.Attrs(v2)) {
		return false
	}
	atoms, ok := dist.Compile(g, q.Expr)
	if !ok {
		return false
	}
	if mx != nil {
		return dist.ReachMatrix(g, mx, atoms, v1, v2)
	}
	return dist.BiReach(g, atoms, v1, v2)
}
