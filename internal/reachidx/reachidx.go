// Package reachidx implements a GRAIL-style interval-labeling
// reachability index, used as a *filter* in front of the runtime search,
// as the paper suggests for existing reachability indices ("they can be
// leveraged as filters, i.e., we invoke our methods only after those
// techniques decide that two nodes are connected", Section 4).
//
// For every edge color (plus the wildcard layer) the color-restricted
// subgraph is condensed into its strongly connected components; k
// randomized depth-first traversals of the condensation assign each
// component an interval [begin, post] such that
//
//	u reaches v  ⇒  interval(v) ⊆ interval(u)   (in every traversal).
//
// The contrapositive gives a sound negative filter: if containment fails
// in any traversal, no path exists and the bi-directional search can be
// skipped. Positive answers are "maybe" and fall through to the search.
// Index size is O(k·(m+1)·|V|) integers — tiny next to the distance
// matrix — and construction is O(k·(m+1)·(|V|+|E|)).
package reachidx

import (
	"math/rand"

	"regraph/internal/graph"
)

// Index is the per-color interval-labeling filter.
type Index struct {
	k      int
	layers []layer // one per color; wildcard layer last
}

type layer struct {
	comp     []int32 // data node -> component id
	cycle    []bool  // component id -> lies on a non-empty cycle
	interval [][]iv  // [traversal][component]
}

type iv struct {
	begin, post int32
}

// Build constructs the index with k traversals per color layer (k = 2 or
// 3 is typical; higher k filters more, costs more memory).
func Build(g *graph.Graph, k int) *Index {
	if k < 1 {
		k = 1
	}
	ix := &Index{k: k}
	m := g.NumColors()
	rng := rand.New(rand.NewSource(0x9e3779b9))
	for layerIdx := 0; layerIdx <= m; layerIdx++ {
		c := graph.ColorID(layerIdx)
		if layerIdx == m {
			c = graph.AnyColor
		}
		ix.layers = append(ix.layers, buildLayer(g, c, k, rng))
	}
	return ix
}

func buildLayer(g *graph.Graph, c graph.ColorID, k int, rng *rand.Rand) layer {
	n := g.NumNodes()
	succ := g.Layer(c, true)
	comps := graph.SCC(n, func(v int) []int {
		succs := succ.Row(graph.NodeID(v))
		out := make([]int, len(succs))
		for i, s := range succs {
			out[i] = int(s)
		}
		return out
	})
	la := layer{comp: make([]int32, n), cycle: make([]bool, len(comps))}
	for ci, members := range comps {
		multi := len(members) > 1
		for _, v := range members {
			la.comp[v] = int32(ci)
			if !multi && !la.cycle[ci] {
				// Singleton component: cyclic only with a self-loop.
				for _, w := range succ.Row(graph.NodeID(v)) {
					if int(w) == v {
						la.cycle[ci] = true
						break
					}
				}
			}
		}
		if multi {
			la.cycle[ci] = true
		}
	}
	// Condensation adjacency (component DAG).
	nc := len(comps)
	adj := make([][]int32, nc)
	seen := map[[2]int32]bool{}
	for v := 0; v < n; v++ {
		cv := la.comp[v]
		for _, w := range succ.Row(graph.NodeID(v)) {
			cw := la.comp[w]
			if cv != cw && !seen[[2]int32{cv, cw}] {
				seen[[2]int32{cv, cw}] = true
				adj[cv] = append(adj[cv], cw)
			}
		}
	}
	// k randomized post-order traversals.
	la.interval = make([][]iv, k)
	for t := 0; t < k; t++ {
		la.interval[t] = grailTraversal(adj, rng)
	}
	return la
}

// grailTraversal performs one randomized DFS over the DAG, labeling each
// component with [begin, post]: post is its post-order index, begin the
// minimum begin/post among it and its descendants.
func grailTraversal(adj [][]int32, rng *rand.Rand) []iv {
	nc := len(adj)
	labels := make([]iv, nc)
	visited := make([]bool, nc)
	order := rng.Perm(nc)
	var counter int32
	// Iterative DFS with shuffled child order.
	type frame struct {
		v    int32
		i    int
		kids []int32
	}
	for _, root := range order {
		if visited[root] {
			continue
		}
		visited[root] = true
		kids := shuffled(adj[root], rng)
		stack := []frame{{int32(root), 0, kids}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.i < len(f.kids) {
				w := f.kids[f.i]
				f.i++
				if !visited[w] {
					visited[w] = true
					stack = append(stack, frame{w, 0, shuffled(adj[w], rng)})
				}
				continue
			}
			// Post-visit.
			begin := counter
			for _, w := range adj[f.v] {
				if labels[w].begin < begin {
					begin = labels[w].begin
				}
			}
			labels[f.v] = iv{begin: begin, post: counter}
			counter++
			stack = stack[:len(stack)-1]
		}
	}
	return labels
}

func shuffled(in []int32, rng *rand.Rand) []int32 {
	out := make([]int32, len(in))
	copy(out, in)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// MaybeReaches reports whether a non-empty path of color c from v1 to v2
// might exist. A false answer is definitive (no such path); a true answer
// must be confirmed by an actual search.
func (ix *Index) MaybeReaches(c graph.ColorID, v1, v2 graph.NodeID) bool {
	la := ix.layer(c)
	c1, c2 := la.comp[v1], la.comp[v2]
	if c1 == c2 {
		if v1 == v2 {
			// Non-empty cycle needed: exact answer from the SCC structure.
			return la.cycle[c1]
		}
		return true // same component: mutually reachable
	}
	for t := 0; t < ix.k; t++ {
		a, b := la.interval[t][c1], la.interval[t][c2]
		if !(a.begin <= b.begin && b.post <= a.post) {
			return false // interval not contained: definitely unreachable
		}
	}
	return true
}

func (ix *Index) layer(c graph.ColorID) *layer {
	if c == graph.AnyColor {
		return &ix.layers[len(ix.layers)-1]
	}
	return &ix.layers[c]
}

// Bytes estimates the index memory footprint.
func (ix *Index) Bytes() int64 {
	var total int64
	for _, la := range ix.layers {
		total += int64(len(la.comp)) * 4
		total += int64(len(la.cycle))
		for _, ivs := range la.interval {
			total += int64(len(ivs)) * 8
		}
	}
	return total
}
