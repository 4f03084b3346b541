package dist

import (
	"math"

	"regraph/internal/graph"
	"regraph/internal/rex"
)

// Pairs enumerates the answers of an atom chain over candidate sets:
// every (x, y) with x in src, y in dst and a path from x to y whose
// color string matches the chain, by runtime search only. It is the
// one pair enumerator behind reach.StreamBackend and JoinMatch's answer
// collection.
//
// The chain is split at a point k chosen by planSplit from the graph's
// layer statistics: the prefix atoms[:k] is pushed forward from each
// source, the suffix atoms[k:] backward from each destination, and a
// pair answers when the two node sets meet. The meeting point changes
// how much is searched, never what is answered: a path matches the
// chain exactly when it splits into a prefix match ending at some node
// and a suffix match starting there.
//
// yield receives the pairs in src order, each source's destinations in
// dst order (the order of reach.Query.EvalBFS), and returning false
// stops the enumeration. A cancelled context bound to s stops it too;
// callers tell the two apart with s.Canceled().
func Pairs(g *graph.Graph, atoms []CAtom, src, dst []graph.NodeID, s *Scratch, yield func(x, y graph.NodeID) bool) {
	pairsAt(g, atoms, src, dst, planSplit(g, atoms, src, dst, s), s, yield)
}

// pairsAt is Pairs split at k, 0 <= k <= len(atoms). With k = len the
// destinations' sets are just {y}, and with k = 0 the sources' are {x}.
func pairsAt(g *graph.Graph, atoms []CAtom, src, dst []graph.NodeID, k int, s *Scratch, yield func(x, y graph.NodeID) bool) {
	if len(src) == 0 || len(dst) == 0 {
		return
	}
	if k == len(atoms) {
		for _, x := range src {
			fwd, _ := closure(g, []graph.NodeID{x}, atoms, true, s)
			if s.Canceled() {
				return
			}
			for _, y := range dst {
				if fwd[y] && !yield(x, y) {
					return
				}
			}
		}
		return
	}
	// The backward closure of the suffix from each destination is kept
	// as a member list, all of them back to back in the arena: set j is
	// ids[end[j-1]:end[j]]. With k = 0 the source side is x itself, so
	// only the sources a set holds are kept, in src order.
	ids, end := s.meetIDs[:0], s.meetEnd[:0]
	defer func() {
		// Keep the grown lists for the next call, unless an unusual
		// query grew them past what a resident worker arena should hold.
		if cap(ids) > maxKeptMembers {
			ids = nil
		}
		s.meetIDs, s.meetEnd = ids, end
	}()
	for _, y := range dst {
		bwd, members := closure(g, []graph.NodeID{y}, atoms[k:], false, s)
		if s.Canceled() {
			return
		}
		if k > 0 {
			ids = append(ids, members...)
		} else {
			for _, x := range src {
				if bwd[x] {
					ids = append(ids, x)
				}
			}
		}
		end = append(end, int32(len(ids)))
	}
	if k == 0 {
		// Each kept list is a subsequence of src, so one cursor per
		// destination walks it in step with the sources.
		next := append(s.meetCur[:0], 0)
		next = append(next, end[:len(end)-1]...)
		s.meetCur = next
		for _, x := range src {
			for j, y := range dst {
				if next[j] < end[j] && ids[next[j]] == x {
					next[j]++
					if !yield(x, y) {
						return
					}
				}
			}
		}
		return
	}
	for _, x := range src {
		fwd, _ := closure(g, []graph.NodeID{x}, atoms[:k], true, s)
		if s.Canceled() {
			return
		}
		var start int32
		for j, y := range dst {
			if meets(fwd, ids[start:end[j]]) && !yield(x, y) {
				return
			}
			start = end[j]
		}
	}
}

// maxKeptMembers bounds the destinations' member lists an arena keeps
// between Pairs calls: 2^20 node IDs, 8 MB.
const maxKeptMembers = 1 << 20

// meets reports whether some member is set in bits.
func meets(bits []bool, members []graph.NodeID) bool {
	for _, v := range members {
		if bits[v] {
			return true
		}
	}
	return false
}

// Cost-model constants, in units of one node visit or edge scan: the
// fixed cost of one single-node closure call; the cost per member of
// keeping a destination's backward set as a list; and the share of a
// destination's set that a meet test scans before it decides, a bitset
// read being much cheaper than a search step and a hit ending the scan.
// They were fitted on the benchmark's pq-cache-eval pool, timing every
// multi-atom RQ at every split.
const (
	closureCall = 32
	keepMember  = 0.5
	meetShare   = 1.0 / 32
)

// planSplit chooses where Pairs splits the chain: the k in [0, len]
// with the least estimated cost
//
//	Σ_x fwd work(atoms[:k]) + Σ_y bwd work(atoms[k:]) + meet(k),
//
// from the layers' statistics (graph.Stats). A one-node closure starts
// as deg/mean-degree average nodes, the start node's degree in the
// first atom's layer over that layer's mean, and each atom multiplies
// its size by the layer's mean ball, saturating below |V| (see
// saturate). A step's work is its size times one plus the layer's mean
// degree. Keeping the backward sets costs their size, and the meet term
// is a share of each backward set per source for 0 < k < len, and one
// test per pair at either end. Planning reads one row length per
// candidate.
func planSplit(g *graph.Graph, atoms []CAtom, src, dst []graph.NodeID, s *Scratch) int {
	m := len(atoms)
	if m == 0 {
		return 0
	}
	n := float64(g.NumNodes())
	est := s.est[:0]
	for _, a := range atoms {
		f, b := g.Stats(a.Color, true), g.Stats(a.Color, false)
		est = append(est, atomEst{meanBall(f, a.Max, n), f.MeanDeg, meanBall(b, a.Max, n), b.MeanDeg})
	}
	s.est = est
	// Per k in [0, m]: the sources' forward work, the destinations'
	// backward work, and the destinations' backward set sizes.
	if cap(s.plan) < 3*(m+1) {
		s.plan = make([]float64, 3*(m+1))
	}
	buf := s.plan[:3*(m+1)]
	clear(buf)
	fwd, bwd, bsize := buf[:m+1], buf[m+1:2*(m+1)], buf[2*(m+1):]
	first, last := g.Layer(atoms[0].Color, true), g.Layer(atoms[m-1].Color, false)
	for _, x := range src {
		size, work := startSize(first.Row(x), est[0].degF), 0.0
		for j, e := range est {
			size = saturate(size*e.ballF, n)
			work += size * (1 + e.degF)
			fwd[j+1] += work
		}
	}
	for _, y := range dst {
		size, work := startSize(last.Row(y), est[m-1].degB), 0.0
		for j := m - 1; j >= 0; j-- {
			e := est[j]
			size = saturate(size*e.ballB, n)
			work += size * (1 + e.degB)
			bwd[j] += work
			bsize[j] += size
		}
	}
	ns, nd := float64(len(src)), float64(len(dst))
	best, bestCost := m, math.Inf(1)
	for k := 0; k <= m; k++ {
		cost := fwd[k] + bwd[k]
		if k > 0 {
			cost += ns * closureCall
		}
		if k < m {
			cost += nd*closureCall + keepMember*bsize[k]
		}
		if k == 0 || k == m {
			cost += ns * nd
		} else {
			cost += meetShare * ns * bsize[k]
		}
		if cost < bestCost {
			best, bestCost = k, cost
		}
	}
	return best
}

// atomEst is what planSplit reads of an atom's layer: its mean ball at
// the atom's bound and its mean degree, forward and backward.
type atomEst struct{ ballF, degF, ballB, degB float64 }

// startSize is a start node's weight in average nodes: its degree over
// the layer's mean degree.
func startSize(row []int32, meanDeg float64) float64 {
	if meanDeg == 0 {
		return 0
	}
	return float64(len(row)) / meanDeg
}

// saturate turns x node picks, repeats allowed, into the expected
// number of distinct nodes when the picks fall uniformly on n nodes,
// n·(1 − e^(−x/n)): x while x ≪ n, approaching n as x grows.
func saturate(x, n float64) float64 { return n * -math.Expm1(-x/n) }

// meanBall is the layer's mean ball size for an atom bound: sampled up
// to graph.StatBounds, extrapolated beyond it at the last sampled growth
// rate, and capped at |V|.
func meanBall(st graph.LayerStats, bound int, n float64) float64 {
	if bound != rex.Unbounded && bound <= graph.StatBounds {
		return st.Ball[max(bound, 1)-1]
	}
	last := st.Ball[graph.StatBounds-1]
	prev := st.Ball[graph.StatBounds-2]
	if prev == 0 || last <= prev {
		return last
	}
	steps := n
	if bound != rex.Unbounded {
		steps = min(float64(bound), n)
	}
	return min(n, last*math.Pow(last/prev, steps-graph.StatBounds))
}
