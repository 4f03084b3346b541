package gen

import (
	"fmt"
	"math/rand"

	"regraph/internal/dist"
	"regraph/internal/graph"
)

// Synthetic builds the random data graphs of Section 6: |V| nodes, |E|
// edges with colors drawn from the given alphabet, and `attrs` integer
// attributes per node (named a0, a1, ... with values 0..9). Edge endpoints
// are drawn with a mild power-law skew so the graphs have hubs, as
// real-life networks do. Fully deterministic for a given seed.
func Synthetic(seed int64, nodes, edges, attrs int, colors []string) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	g := graph.New()
	for i := 0; i < nodes; i++ {
		a := make(map[string]string, attrs)
		for k := 0; k < attrs; k++ {
			a[fmt.Sprintf("a%d", k)] = fmt.Sprint(r.Intn(10))
		}
		g.AddNode(fmt.Sprintf("n%d", i), a)
	}
	for i := 0; i < edges; i++ {
		from := skewed(r, nodes)
		to := skewed(r, nodes)
		g.AddEdge(graph.NodeID(from), graph.NodeID(to), colors[r.Intn(len(colors))])
	}
	return g
}

// skewed draws an index in [0, n) with a power-law-ish bias toward small
// indices (the "hub" nodes).
func skewed(r *rand.Rand, n int) int {
	// Square a uniform variate: density ~ 1/(2*sqrt(x)), biasing low ids.
	x := r.Float64()
	i := int(x * x * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

// DefaultColors is the 4-color alphabet used by the synthetic experiments.
var DefaultColors = []string{"c0", "c1", "c2", "c3"}

// YouTube builds the YouTube-like video network of Section 6: `scale`
// times the paper's 8,350 nodes and 30,391 edges (scale 1 reproduces the
// paper's size). Nodes are videos with attributes uid (uploader), cat
// (category), len (minutes), com (comment count), age (days since upload)
// and view (view count); edges carry the four relationship types fc
// (friends recommendation), fr (friends reference), sc (strangers
// recommendation) and sr (strangers reference). The paper's crawl is not
// redistributable; this seeded generator preserves the size, alphabet,
// schema and hub-skewed degree structure the algorithms are sensitive to
// (see DESIGN.md).
func YouTube(seed int64, scale float64) *graph.Graph {
	if scale <= 0 {
		scale = 1
	}
	nodes := int(8350 * scale)
	edges := int(30391 * scale)
	r := rand.New(rand.NewSource(seed))
	g := graph.New()
	cats := []string{
		"Music", "Film & Animation", "Comedy", "Sports", "News & Politics",
		"Gaming", "Howto & Style", "Education", "Science & Technology",
		"Entertainment", "People & Blogs", "Travel & Events", "Autos",
		"Pets & Animals", "Nonprofits", "Shows",
	}
	uploaders := make([]string, 400)
	for i := range uploaders {
		uploaders[i] = fmt.Sprintf("user%03d", i)
	}
	uploaders[0] = "Davedays" // the uploader Exp-1's Q1 asks for
	for i := 0; i < nodes; i++ {
		g.AddNode(fmt.Sprintf("video %d", i), map[string]string{
			"uid":  uploaders[skewed(r, len(uploaders))],
			"cat":  cats[skewed(r, len(cats))],
			"len":  fmt.Sprint(1 + r.Intn(15)),
			"com":  fmt.Sprint(r.Intn(1200)),
			"age":  fmt.Sprint(r.Intn(1500)),
			"view": fmt.Sprint(r.Intn(400000)),
		})
	}
	colors := []string{"fc", "fr", "sc", "sr"}
	for i := 0; i < edges; i++ {
		from := skewed(r, nodes)
		to := skewed(r, nodes)
		g.AddEdge(graph.NodeID(from), graph.NodeID(to), colors[r.Intn(len(colors))])
	}
	return g
}

// YouTubeUnbuildable builds the smallest YouTube-shaped graph whose
// distance matrix would NOT fit in budget bytes, returning the graph
// and the scale it corresponds to. This is the bench harness's knob
// for the "matrix unbuildable" regime: instead of claiming a graph is
// too big, the driver derives one from the same byte budget the engine
// heuristic uses, so dist.PredictMatrixBytes(g) > budget holds by
// construction (verified, not assumed).
func YouTubeUnbuildable(seed int64, budget int64) (*graph.Graph, float64) {
	// The smallest offending node count for YouTube's 4 colors, found by
	// bisection on dist.MatrixBytes itself, so it stays exact whatever
	// a matrix cell costs. Invariant: lo fits the budget, hi does not.
	const colors = 4
	lo, hi := 0, 1
	for dist.MatrixBytes(hi, colors) <= budget {
		lo, hi = hi, 2*hi
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; dist.MatrixBytes(mid, colors) <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	scale := float64(hi) / 8350
	g := YouTube(seed, scale)
	for dist.PredictMatrixBytes(g) <= budget {
		// Scale quantization (nodes = int(8350·scale)) undershot; nudge up.
		scale *= 1.01
		g = YouTube(seed, scale)
	}
	return g, scale
}

// Terror builds the terrorist-organization collaboration network of
// Section 6 (derived in the paper from the Global Terrorism Database):
// 818 organizations and 1,600 collaboration edges, colored ic
// (international) and dc (domestic). Attributes are gn (group name),
// country, tt (target type) and at (attack type). Same substitution
// rationale as YouTube.
func Terror(seed int64) *graph.Graph {
	const nodes, edges = 818, 1600
	r := rand.New(rand.NewSource(seed))
	g := graph.New()
	countries := make([]string, 60)
	for i := range countries {
		countries[i] = fmt.Sprintf("country%02d", i)
	}
	targets := []string{
		"Business", "Military", "Police", "Government",
		"Private Citizens & Property", "Transportation", "Utilities",
		"Religious Figures", "Educational Institution", "Media",
	}
	attacks := []string{
		"Bombing", "Armed Assault", "Assassination", "Hostage Taking",
		"Facility Attack", "Hijacking",
	}
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("TO-%03d", i)
	}
	names[0] = "Hamas" // the organization Exp-1's Q2 centers on
	for i := 0; i < nodes; i++ {
		g.AddNode(names[i], map[string]string{
			"gn":      names[i],
			"country": countries[skewed(r, len(countries))],
			"tt":      targets[skewed(r, len(targets))],
			"at":      attacks[skewed(r, len(attacks))],
		})
	}
	colors := []string{"ic", "dc"}
	for i := 0; i < edges; i++ {
		from := skewed(r, nodes)
		to := skewed(r, nodes)
		g.AddEdge(graph.NodeID(from), graph.NodeID(to), colors[r.Intn(2)])
	}
	return g
}
