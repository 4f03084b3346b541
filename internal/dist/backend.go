package dist

import "regraph/internal/graph"

// Backend is the engine-facing distance oracle: the one primitive every
// evaluation method reduces to. Sat answers the evaluators' question —
// does the shortest non-empty path from v1 to v2 over the atom's color
// layer satisfy the atom's bound — and Dist the exact distance behind
// it (graph.AnyColor for any edge; graph.Unreachable when there is no
// path). Matrix, Cache and TwoHop all satisfy it, so the evaluators
// (reach.StreamBackend, pattern.Options.Backend) and the engine select
// among them without knowing which one they hold.
//
// Contract:
//
//   - Results are exact and identical across implementations: for any
//     graph, Backend.Dist must agree bit-for-bit with Matrix.Dist, and
//     Sat(a, v1, v2, s) with a.Sat(Matrix.Dist(a.Color, v1, v2)).
//   - Sat may decide without the exact distance: the cache's miss
//     search stops once no path within the bound is left to find. The
//     evaluators call Sat; Dist is for tests, oracles and probes.
//   - Implementations are safe for concurrent use by multiple
//     goroutines.
//   - s is a per-worker search arena for implementations that search on
//     demand (Cache misses, saturated Matrix cells); label-backed
//     implementations ignore it. A nil s borrows from the package pool.
//   - Cancellation flows through the arena: callers that need it bind a
//     context with Scratch.BindContext (as reach.StreamBackend does) and
//     searching implementations observe it at their checkpoints. O(1)
//     and O(label) lookups ignore it — they finish faster than a poll.
type Backend interface {
	Dist(c graph.ColorID, v1, v2 graph.NodeID) int32
	DistScratch(c graph.ColorID, v1, v2 graph.NodeID, s *Scratch) int32
	Sat(a CAtom, v1, v2 graph.NodeID, s *Scratch) bool
}

// Statically assert the three shipped backends satisfy the interface.
var (
	_ Backend = (*Matrix)(nil)
	_ Backend = (*Cache)(nil)
	_ Backend = (*TwoHop)(nil)
)

// MatrixBytes predicts the distance-matrix footprint for a graph with
// the given node and color counts: (m+1)·|V|² bytes, one per cell. This
// is the quantity the engine's automatic backend selection compares
// against its memory budget — at large |V| it crosses any real budget
// long before allocation would be attempted.
func MatrixBytes(nodes, colors int) int64 {
	n := int64(nodes)
	return int64(colors+1) * n * n
}

// PredictMatrixBytes is MatrixBytes for a concrete graph.
func PredictMatrixBytes(g *graph.Graph) int64 {
	return MatrixBytes(g.NumNodes(), g.NumColors())
}
