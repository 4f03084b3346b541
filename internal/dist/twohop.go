package dist

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"regraph/internal/graph"
)

// TwoHop is the 2-hop-labeling distance backend (Cohen, Halperin,
// Kaplan, Zwick, SODA 2002): the middle point of the space/time
// trade-off between the (m+1)·|V|² Matrix and the search-per-miss
// Cache. For every color layer each node v carries two sorted label
// lists — Lout(v), hubs v reaches, and Lin(v), hubs that reach v —
// such that every shortest path is witnessed by a common hub:
//
//	d(u, v) = min over h ∈ Lout(u) ∩ Lin(v) of dOut(u, h) + dIn(h, v).
//
// Labels are built with pruned landmark BFS in descending-degree order
// (Akiba, Iwata, Yoshida, SIGMOD 2013): high-degree hubs cover most
// shortest paths, so later landmarks' searches are pruned against the
// labels already built and label lists stay short on real graphs. A
// query is one sorted-merge over two short arrays — no graph traversal,
// no locks, no per-query allocation.
//
// Distances agree bit-for-bit with Matrix.Dist, including the paper's
// non-empty-path diagonal: labels internally hold standard (possibly
// empty-path) distances, and a per-layer self[] array — the shortest
// non-empty cycle through each node, derived from the labels after
// construction — serves Dist(c, v, v).
//
// A TwoHop is immutable after construction and safe for concurrent use.
type TwoHop struct {
	n      int
	layers []thLayer // one per color, wildcard layer last

	filter   atomic.Pointer[Filter]
	filtered atomic.Int64
}

// thLayer stores one color layer's labels flat, matrix.go-style: node
// v's in-labels are (inHub, inDist)[inStart[v]:inStart[v+1]], sorted by
// hub rank ascending (construction appends landmarks in rank order, so
// the arrays are born sorted). Hubs are stored as landmark *ranks*, not
// node IDs — ranks are what both sides of the sorted merge share.
type thLayer struct {
	inStart  []int32 // len n+1
	outStart []int32 // len n+1
	inHub    []int32
	inDist   []int32
	outHub   []int32
	outDist  []int32
	self     []int32 // shortest non-empty cycle through v, or Unreachable
}

// ErrTwoHopBudget is returned when label construction exceeds the byte
// budget passed to NewTwoHopBudget: the graph's shortest-path structure
// does not compress into 2-hop labels within the allowance, and the
// caller (the engine's auto-selection) should fall back to the Cache.
var ErrTwoHopBudget = errors.New("dist: 2-hop label index exceeds memory budget")

// NewTwoHop builds the label index for every color layer plus the
// wildcard layer, parallelized across layers. It cannot fail: with no
// budget and no context the build always runs to completion.
func NewTwoHop(g *graph.Graph) *TwoHop {
	th, _ := NewTwoHopBudget(context.Background(), g, 0)
	return th
}

// NewTwoHopCtx is NewTwoHop under a context: cancellation mid-build
// abandons all layers and returns ctx's error.
func NewTwoHopCtx(ctx context.Context, g *graph.Graph) (*TwoHop, error) {
	return NewTwoHopBudget(ctx, g, 0)
}

// NewTwoHopBudget is NewTwoHopCtx with a byte budget (0 = unlimited)
// over the total label storage across all layers, accounted at 8 bytes
// per label entry as the entries are created. Crossing the budget
// aborts every layer's build and returns ErrTwoHopBudget — the index
// never materializes, so a failed attempt costs peak memory
// proportional to the budget, not to the hopeless full index.
func NewTwoHopBudget(ctx context.Context, g *graph.Graph, maxBytes int64) (*TwoHop, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.NumNodes()
	m := g.NumColors()
	th := &TwoHop{n: n, layers: make([]thLayer, m+1)}
	if n == 0 {
		return th, nil
	}

	// Every worker reads the graph's CSR layers: build them once, here.
	g.BuildColorIndex()

	// Layers are independent: build them in parallel, sharing one byte
	// account and one cancellable context so the first failure (budget
	// or caller cancellation) stops the others at their next landmark.
	buildCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var usedBytes atomic.Int64
	var firstErr atomic.Pointer[error]
	fail := func(err error) {
		e := err
		firstErr.CompareAndSwap(nil, &e)
		cancel()
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > m+1 {
		workers = m + 1
	}
	if workers < 1 {
		workers = 1
	}
	tasks := make(chan int, m+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := GetScratch()
			defer PutScratch(s)
			for l := range tasks {
				c := graph.ColorID(l)
				if l == m {
					c = graph.AnyColor
				}
				la, err := buildTwoHopLayer(buildCtx, g, c, s, maxBytes, &usedBytes)
				if err != nil {
					fail(err)
					continue
				}
				th.layers[l] = la
			}
		}()
	}
	for l := 0; l <= m; l++ {
		tasks <- l
	}
	close(tasks)
	wg.Wait()
	if errp := firstErr.Load(); errp != nil {
		return nil, *errp
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return th, nil
}

// buildTwoHopLayer runs pruned landmark labeling for one color layer.
// The BFS distance array, queue and the rank-indexed prune-query
// scratch all come from s, exactly like the runtime search primitives.
func buildTwoHopLayer(ctx context.Context, g *graph.Graph, c graph.ColorID, s *Scratch, maxBytes int64, usedBytes *atomic.Int64) (thLayer, error) {
	n := g.NumNodes()
	fwd, bwd := g.Layer(c, true), g.Layer(c, false)

	// Landmark order: total degree descending (ties by node ID). Hubs
	// that touch many edges witness many shortest paths, which is what
	// makes the pruning bite.
	order := make([]graph.NodeID, n)
	for v := range order {
		order[v] = graph.NodeID(v)
	}
	deg := func(v graph.NodeID) int {
		return len(fwd.Row(v)) + len(bwd.Row(v))
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := deg(order[i]), deg(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})

	// Per-node label builders: interleaved (hubRank, dist) pairs,
	// appended in landmark-rank order so each list is born sorted.
	lin := make([][]int32, n)
	lout := make([][]int32, n)

	d := restingBuf(&s.d, n)
	// tmp is indexed by landmark rank: during landmark h's forward BFS
	// it holds dOut(h, ·) scattered from Lout(h), so the prune query for
	// a visited v is one pass over Lin(v). Unreachable marks absent, and
	// unscatter restores it after every landmark.
	tmp := restingBuf(&s.d2, n)

	addEntry := func() error {
		if maxBytes > 0 && usedBytes.Add(8) > maxBytes {
			return ErrTwoHopBudget
		}
		return nil
	}

	for rk, h := range order {
		// One cancellation probe per landmark: each landmark's two
		// pruned searches are short once the early (big) hubs are done,
		// and the early ones are a small constant count.
		if err := ctx.Err(); err != nil {
			return thLayer{}, err
		}
		rank := int32(rk)

		// Forward BFS from h: visited v gains (rank, d(h,v)) in Lin(v)
		// unless the existing labels already witness a path that short.
		// The root always labels itself: its prune query goes through
		// two earlier-hub legs of length ≥ 1 each, so it can never beat
		// distance 0.
		scatter(lout[h], tmp)
		if err := prunedBFS(fwd, h, rank, d, &s.queue, tmp, lin, addEntry); err != nil {
			unscatter(lout[h], tmp)
			return thLayer{}, err
		}
		unscatter(lout[h], tmp)

		// Backward BFS from h over reversed edges: visited v gains
		// (rank, d(v,h)) in Lout(v), pruned against Lout(v)·Lin(h).
		scatter(lin[h], tmp)
		if err := prunedBFS(bwd, h, rank, d, &s.queue, tmp, lout, addEntry); err != nil {
			unscatter(lin[h], tmp)
			return thLayer{}, err
		}
		unscatter(lin[h], tmp)
	}

	la := flattenLabels(n, lin, lout)
	lin, lout = nil, nil

	// Non-empty diagonal: the labels hold standard distances (so
	// d(v,v) = 0 via the root self-label), but the paper's semantics
	// need the shortest non-empty cycle. One closing-edge pass per
	// node recovers it: a shortest cycle through v is an edge (v, w)
	// followed by a shortest w→v path (non-empty unless w == v, which
	// is the self-loop case).
	la.self = make([]int32, n)
	for v := 0; v < n; v++ {
		best := graph.Unreachable
		for _, w := range fwd.Row(graph.NodeID(v)) {
			if int(w) == v {
				best = 1
				break
			}
			if dw := la.dist(int(w), v); dw != graph.Unreachable && (best == graph.Unreachable || dw+1 < best) {
				best = dw + 1
			}
		}
		la.self[v] = best
	}
	return la, nil
}

// prunedBFS runs one landmark's pruned BFS over adj, appending
// (rank, dist) pairs to labels[v] for every non-pruned visited v. tmp
// holds the landmark's opposite-side label distances scattered by rank;
// the prune query for v is one pass over labels[v] against tmp.
func prunedBFS(adj graph.Layer, root graph.NodeID, rank int32, d []int32, queueBuf *[]graph.NodeID, tmp []int32, labels [][]int32, addEntry func() error) error {
	// d rests at Unreachable (see Scratch); every exit resets the
	// entries this search set.
	d[root] = 0
	queue := append((*queueBuf)[:0], root)
	defer func() {
		unvisit(d, queue)
		*queueBuf = queue
	}()
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := d[v]
		// Prune: if the labels built so far already answer (root, v) at
		// ≤ dv, this landmark adds nothing for v or anything behind it.
		if v != root && pruneQuery(labels[v], tmp) <= dv {
			continue
		}
		labels[v] = append(labels[v], rank, dv)
		if err := addEntry(); err != nil {
			return err
		}
		for _, w := range adj.Row(v) {
			if d[w] == graph.Unreachable {
				d[w] = dv + 1
				queue = append(queue, graph.NodeID(w))
			}
		}
	}
	return nil
}

// pruneQuery evaluates the current-label distance between the landmark
// and v: min over v's label pairs (rk, dist) of dist + tmp[rk], where
// tmp holds the landmark's own label distances by rank. Results wrap
// around int32 overflow only if both legs are near 2³¹ — impossible,
// distances are bounded by |V|.
func pruneQuery(pairs []int32, tmp []int32) int32 {
	best := int32(1<<31 - 1)
	for i := 0; i < len(pairs); i += 2 {
		if t := tmp[pairs[i]]; t != graph.Unreachable {
			if q := t + pairs[i+1]; q < best {
				best = q
			}
		}
	}
	return best
}

func scatter(pairs []int32, tmp []int32) {
	for i := 0; i < len(pairs); i += 2 {
		tmp[pairs[i]] = pairs[i+1]
	}
}

func unscatter(pairs []int32, tmp []int32) {
	for i := 0; i < len(pairs); i += 2 {
		tmp[pairs[i]] = graph.Unreachable
	}
}

// flattenLabels packs the per-node pair slices into the flat arrays the
// query path reads, freeing the builder slices for the GC.
func flattenLabels(n int, lin, lout [][]int32) thLayer {
	la := thLayer{
		inStart:  make([]int32, n+1),
		outStart: make([]int32, n+1),
	}
	for v := 0; v < n; v++ {
		la.inStart[v+1] = la.inStart[v] + int32(len(lin[v])/2)
		la.outStart[v+1] = la.outStart[v] + int32(len(lout[v])/2)
	}
	la.inHub = make([]int32, la.inStart[n])
	la.inDist = make([]int32, la.inStart[n])
	la.outHub = make([]int32, la.outStart[n])
	la.outDist = make([]int32, la.outStart[n])
	for v := 0; v < n; v++ {
		at := la.inStart[v]
		for i := 0; i < len(lin[v]); i += 2 {
			la.inHub[at] = lin[v][i]
			la.inDist[at] = lin[v][i+1]
			at++
		}
		lin[v] = nil
		at = la.outStart[v]
		for i := 0; i < len(lout[v]); i += 2 {
			la.outHub[at] = lout[v][i]
			la.outDist[at] = lout[v][i+1]
			at++
		}
		lout[v] = nil
	}
	return la
}

// dist is the standard-distance sorted-merge over Lout(u) ∩ Lin(v).
func (la *thLayer) dist(u, v int) int32 {
	i, iEnd := la.outStart[u], la.outStart[u+1]
	j, jEnd := la.inStart[v], la.inStart[v+1]
	best := graph.Unreachable
	for i < iEnd && j < jEnd {
		hu, hv := la.outHub[i], la.inHub[j]
		switch {
		case hu < hv:
			i++
		case hu > hv:
			j++
		default:
			if d := la.outDist[i] + la.inDist[j]; best == graph.Unreachable || d < best {
				best = d
			}
			i++
			j++
		}
	}
	return best
}

// Dist returns the shortest non-empty distance from v1 to v2 over edges
// of color c (any edge when c is graph.AnyColor), or graph.Unreachable.
// Results agree exactly with Matrix.Dist. With a filter installed,
// refuted pairs short-circuit before the label merge.
func (th *TwoHop) Dist(c graph.ColorID, v1, v2 graph.NodeID) int32 {
	if fp := th.filter.Load(); fp != nil && *fp != nil && !(*fp).MaybeReaches(c, v1, v2) {
		th.filtered.Add(1)
		return graph.Unreachable
	}
	la := th.layer(c)
	if v1 == v2 {
		return la.self[v1]
	}
	return la.dist(int(v1), int(v2))
}

// DistScratch satisfies Backend; the label merge allocates nothing and
// never searches, so the arena is ignored.
func (th *TwoHop) DistScratch(c graph.ColorID, v1, v2 graph.NodeID, _ *Scratch) int32 {
	return th.Dist(c, v1, v2)
}

// Sat satisfies Backend: the atom's bound checked against the label
// merge's exact distance.
func (th *TwoHop) Sat(a CAtom, v1, v2 graph.NodeID, _ *Scratch) bool {
	return a.Sat(th.Dist(a.Color, v1, v2))
}

func (th *TwoHop) layer(c graph.ColorID) *thLayer {
	if c == graph.AnyColor {
		return &th.layers[len(th.layers)-1]
	}
	return &th.layers[c]
}

// SetFilter installs a sound negative reachability filter (see Filter)
// consulted before the label merge; nil removes it. Like Cache's, the
// filter only ever suppresses merges for pairs it proves unreachable,
// so answers are unchanged — only cheaper.
func (th *TwoHop) SetFilter(f Filter) {
	if f == nil {
		th.filter.Store(nil)
		return
	}
	th.filter.Store(&f)
}

// Filtered returns how many lookups the reachability filter refuted
// without a label merge.
func (th *TwoHop) Filtered() int64 { return th.filtered.Load() }

// Entries returns the total label-entry count across all layers.
func (th *TwoHop) Entries() int64 {
	var total int64
	for i := range th.layers {
		total += int64(len(th.layers[i].inHub)) + int64(len(th.layers[i].outHub))
	}
	return total
}

// Size returns the index memory footprint in bytes: label arrays plus
// the per-node offsets and diagonal. Typically orders of magnitude
// under Matrix.Size on sparse graphs.
func (th *TwoHop) Size() int64 {
	var total int64
	for i := range th.layers {
		la := &th.layers[i]
		total += int64(len(la.inStart)+len(la.outStart)+len(la.self)) * 4
		total += (int64(len(la.inHub)) + int64(len(la.outHub))) * 8
	}
	return total
}
