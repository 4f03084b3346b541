package dist

import (
	"runtime"
	"sync"

	"regraph/internal/graph"
	"regraph/internal/rex"
)

// Matrix is the per-color all-pairs distance index of Section 4: one
// layer per edge color plus a wildcard layer, (m+1)·|V|² one-byte
// cells. Each layer is a flat row-major []uint8, so Dist is a single
// bounds-checked load — the paper's O(1) lookup made literal. Cell
// (v1, v2) encodes the length of the shortest non-empty path from v1 to
// v2 over the layer's edges:
//
//   - 0 means unreachable: every non-empty path has length ≥ 1, so the
//     value is free;
//   - 1…254 are exact distances;
//   - 255 (satCell) means "at least 255". Dist answers such a cell
//     exactly with a BFS over the graph's layer it was built from,
//     which the matrix keeps for that purpose.
//
// Subclass F only asks "is the distance ≤ k" for small constant k, or
// plain reachability for c+, so Matrix.Sat decides almost every
// pair from the byte alone.
//
// A Matrix is immutable after construction and safe for concurrent use.
type Matrix struct {
	n     int
	cells [][]uint8     // one flat layer per color, wildcard layer last
	fwd   []graph.Layer // the graph's forward layers, searched for saturated cells
}

// satCell is the saturated cell value: the distance is 255 or more and
// only a search over the layer knows it exactly.
const satCell = 255

// cellOf encodes a distance (0 = no path) as a matrix cell.
func cellOf(d int) uint8 {
	if d >= satCell {
		return satCell
	}
	return uint8(d)
}

// cellDist decodes a non-saturated cell: 0 is graph.Unreachable, every
// other value is the distance itself.
func cellDist(d uint8) int32 {
	if d == 0 {
		return graph.Unreachable
	}
	return int32(d)
}

// NewMatrix precomputes every layer with one BFS per (layer, source) in
// O((m+1)·|V|·(|V|+|E|)) work, parallelized across GOMAXPROCS workers.
// Work is sharded by source-row chunks within each layer, so construction
// scales with cores even on graphs with few colors.
func NewMatrix(g *graph.Graph) *Matrix {
	return newMatrix(g, runtime.GOMAXPROCS(0))
}

// newMatrixSerial is the single-threaded build, kept as the baseline for
// the parallel-speedup benchmark and as a cross-check oracle in tests.
func newMatrixSerial(g *graph.Graph) *Matrix {
	return newMatrix(g, 1)
}

func newMatrix(g *graph.Graph, workers int) *Matrix {
	n := g.NumNodes()
	m := g.NumColors()
	mx := &Matrix{n: n, cells: make([][]uint8, m+1), fwd: make([]graph.Layer, m+1)}
	for l := 0; l <= m; l++ {
		c := graph.ColorID(l)
		if l == m {
			c = graph.AnyColor
		}
		mx.fwd[l] = g.Layer(c, true)
		mx.cells[l] = make([]uint8, n*n)
	}
	if n == 0 {
		return mx
	}

	type task struct{ layer, lo, hi int }
	const chunk = 64
	tasks := make(chan task, workers)
	var wg sync.WaitGroup
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			queue := make([]graph.NodeID, 0, n)
			for t := range tasks {
				for src := t.lo; src < t.hi; src++ {
					bfsRow(mx.fwd[t.layer], graph.NodeID(src),
						mx.cells[t.layer][src*n:(src+1)*n], queue)
				}
			}
		}()
	}
	for l := 0; l <= m; l++ {
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			tasks <- task{l, lo, hi}
		}
	}
	close(tasks)
	wg.Wait()
	return mx
}

// bfsRow fills one matrix row: shortest non-empty distances from src over
// one layer. row is the src-th slice of the flat layer and arrives
// zeroed (all unreachable); queue is a reusable scratch buffer. The BFS
// is level-synchronous, so the depth is a plain counter and never read
// back from a cell that may have saturated.
func bfsRow(adj graph.Layer, src graph.NodeID, row []uint8, queue []graph.NodeID) {
	queue = append(queue[:0], src)
	// Shortest non-empty cycle through src: src is the root and is never
	// re-enqueued, and the first level with an edge closing back on it
	// gives the cycle length.
	cycle := 0
	for head, depth := 0, 1; head < len(queue); depth++ {
		cell := cellOf(depth)
		for end := len(queue); head < end; head++ {
			for _, w := range adj.Row(queue[head]) {
				if graph.NodeID(w) == src {
					if cycle == 0 {
						cycle = depth
					}
				} else if row[w] == 0 {
					row[w] = cell
					queue = append(queue, graph.NodeID(w))
				}
			}
		}
	}
	row[src] = cellOf(cycle)
}

// satDist is the exact shortest non-empty distance from src to dst over
// layer l, by BFS from src: the answer for a saturated cell. Nodes are
// dequeued in distance order, so the first scanned edge into dst closes
// a shortest path (a cycle when src == dst). Buffers come from s, the
// package pool when s is nil, and a context bound to s is observed the
// way BiDistScratch observes it.
func (mx *Matrix) satDist(l int, src, dst graph.NodeID, s *Scratch) int32 {
	if s == nil {
		s = GetScratch()
		defer PutScratch(s)
	}
	adj := mx.fwd[l]
	d := restingBuf(&s.d, mx.n)
	d[src] = 0
	queue := append(s.q1[:0], src)
	best := graph.Unreachable
scan:
	for head := 0; head < len(queue); head++ {
		if head&cancelMask == cancelMask && s.Canceled() {
			break
		}
		v := queue[head]
		for _, w := range adj.Row(v) {
			if graph.NodeID(w) == dst {
				best = d[v] + 1
				break scan
			}
			if d[w] == graph.Unreachable {
				d[w] = d[v] + 1
				queue = append(queue, graph.NodeID(w))
			}
		}
	}
	unvisit(d, queue)
	s.q1 = queue // keep the grown buffer
	return best
}

// layer maps a color to its layer index; the wildcard layer is last.
func (mx *Matrix) layer(c graph.ColorID) int {
	if c == graph.AnyColor {
		return len(mx.cells) - 1
	}
	return int(c)
}

// cell is the raw one-byte cell for (c, v1, v2).
func (mx *Matrix) cell(c graph.ColorID, v1, v2 graph.NodeID) uint8 {
	return mx.cells[mx.layer(c)][int(v1)*mx.n+int(v2)]
}

// Dist returns the shortest non-empty distance from v1 to v2 over edges
// of color c (any edge when c is graph.AnyColor), or graph.Unreachable.
// A saturated cell borrows a search arena from the package pool; see
// DistScratch.
func (mx *Matrix) Dist(c graph.ColorID, v1, v2 graph.NodeID) int32 {
	return mx.DistScratch(c, v1, v2, nil)
}

// DistScratch satisfies Backend for the precomputed matrix: one O(1)
// cell load, plus — only for a cell saturated at 255 — an exact BFS over
// the layer's adjacency whose buffers come from s (the package pool
// when s is nil).
func (mx *Matrix) DistScratch(c graph.ColorID, v1, v2 graph.NodeID, s *Scratch) int32 {
	l := mx.layer(c)
	if d := mx.cells[l][int(v1)*mx.n+int(v2)]; d != satCell {
		return cellDist(d)
	}
	return mx.satDist(l, v1, v2, s)
}

// Sat satisfies Backend: one cell load decides, except for a bound of
// 255 or more over a saturated cell, whose exact search draws its
// buffers from s (the package pool when s is nil).
func (mx *Matrix) Sat(a CAtom, v1, v2 graph.NodeID, s *Scratch) bool {
	l := mx.layer(a.Color)
	d := mx.cells[l][int(v1)*mx.n+int(v2)]
	if d == satCell && a.Max != rex.Unbounded && a.Max >= satCell {
		return a.Sat(mx.satDist(l, v1, v2, s))
	}
	return a.Sat(cellDist(d))
}

// Size returns the cell footprint in bytes, (m+1)·|V|² — the quadratic
// space cost the cache-based method avoids. The kept layers are the
// graph's own and add nothing.
func (mx *Matrix) Size() int64 {
	var total int64
	for _, l := range mx.cells {
		total += int64(len(l))
	}
	return total
}
