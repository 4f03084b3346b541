package graph

// StatBounds is the largest path bound LayerStats records a ball size
// for.
const StatBounds = 8

// Sample counts of the ball statistics. The wildcard layer's balls are
// far wider than a color layer's (on the benchmark's YouTube graph the
// bound-8 ball reaches most of the graph), so it is sampled more thinly
// and only when a plan first asks for it.
const (
	colorSamples = 64
	anySamples   = 16
)

// LayerStats summarises how fast one layer's neighbourhoods grow in one
// direction. Estimates drawn from it decide how fast an evaluation runs,
// never what it answers.
type LayerStats struct {
	// MeanDeg is the layer's mean row length: its edges over |V|.
	MeanDeg float64
	// Ball[b-1] is the mean number of nodes other than the start that a
	// sampled node reaches by a path of 1 to b edges of the layer. The
	// samples are evenly spaced node IDs.
	Ball [StatBounds]float64
}

// Stats returns the statistics of color c's layer (the wildcard layer
// for AnyColor) in one direction: successors when forward, predecessors
// otherwise. They belong to the layers, so an adjacency change drops
// them with the CSR. The color layers' statistics are built by
// BuildColorIndex or by the first Stats call; the wildcard's by the
// first Stats call for AnyColor.
func (g *Graph) Stats(c ColorID, forward bool) LayerStats {
	ls := g.layers()
	i := int(c)
	if c == AnyColor {
		i = len(ls.fwd) - 1
		ls.anyOnce.Do(func() {
			var sp sampler
			ls.fwdStats[i] = sp.stats(ls.fwd[i], anySamples)
			ls.revStats[i] = sp.stats(ls.rev[i], anySamples)
		})
	} else {
		ls.colorStats()
	}
	if forward {
		return ls.fwdStats[i]
	}
	return ls.revStats[i]
}

// colorStats builds the statistics of every color layer, once.
func (ls *layers) colorStats() {
	ls.colorOnce.Do(func() {
		var sp sampler
		for i := 0; i+1 < len(ls.fwd); i++ {
			ls.fwdStats[i] = sp.stats(ls.fwd[i], colorSamples)
			ls.revStats[i] = sp.stats(ls.rev[i], colorSamples)
		}
	})
}

// sampler holds the BFS buffers of one statistics build. seen[v] is the
// number of the last BFS that visited v, so it is never cleared.
type sampler struct {
	seen  []int32
	bfs   int32
	queue []int32
}

// stats measures one layer: its mean degree, and the mean ball sizes
// over k evenly spaced start nodes (every node when the layer has
// fewer), each a BFS of at most StatBounds levels.
func (sp *sampler) stats(l Layer, k int) LayerStats {
	n := len(l.off) - 1
	var st LayerStats
	if n == 0 {
		return st
	}
	st.MeanDeg = float64(len(l.to)) / float64(n)
	k = min(k, n)
	if len(sp.seen) < n {
		sp.seen = make([]int32, n)
	}
	for i := 0; i < k; i++ {
		sp.bfs++
		v := int32(i * n / k)
		sp.seen[v] = sp.bfs
		q := append(sp.queue[:0], v)
		start := 0
		for b := 0; b < StatBounds; b++ {
			end := len(q)
			for _, u := range q[start:end] {
				for _, w := range l.Row(NodeID(u)) {
					if sp.seen[w] != sp.bfs {
						sp.seen[w] = sp.bfs
						q = append(q, w)
					}
				}
			}
			start = end
			st.Ball[b] += float64(len(q) - 1)
		}
		sp.queue = q
	}
	for b := range st.Ball {
		st.Ball[b] /= float64(k)
	}
	return st
}
