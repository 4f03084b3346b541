package dist_test

import (
	"os"
	"strconv"
	"testing"

	"regraph/internal/dist"
	"regraph/internal/gen"
	"regraph/internal/graph"
	"regraph/internal/rex"
)

// youTube is gen.YouTube at REGRAPH_BENCH_SCALE (default 0.25 of the
// paper's 8,350 nodes), with its layers built before timing starts.
func youTube(b *testing.B) *graph.Graph {
	scale := 0.25
	if v := os.Getenv("REGRAPH_BENCH_SCALE"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			b.Fatalf("REGRAPH_BENCH_SCALE=%q: %v", v, err)
		}
		scale = f
	}
	g := gen.YouTube(1, scale)
	g.BuildColorIndex()
	return g
}

// BenchmarkClosure pushes a three-atom chain forward from 16 sources:
// the runtime step behind every reach and pattern evaluation without a
// precomputed backend.
func BenchmarkClosure(b *testing.B) {
	g := youTube(b)
	atoms, ok := dist.Compile(g, rex.MustParse("fc{2} sr fr{3}"))
	if !ok {
		b.Fatal("the YouTube graph lacks a color of the chain")
	}
	src := make([]graph.NodeID, 16)
	for i := range src {
		src[i] = graph.NodeID(i * g.NumNodes() / len(src))
	}
	s := dist.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.ForwardClosureOf(g, src, atoms, s)
	}
}

// BenchmarkBiDist is the cache-miss search: the exact distance between
// fixed node pairs over one color layer.
func BenchmarkBiDist(b *testing.B) {
	g := youTube(b)
	c, _ := g.ColorID("fc")
	n := g.NumNodes()
	s := dist.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v1, v2 := graph.NodeID(i*7919%n), graph.NodeID(i*104729%n)
		dist.BiDistScratch(g, c, v1, v2, s)
	}
}

// BenchmarkPairs enumerates the answers of the same three-atom chain
// between 16 sources and 16 destinations: "planned" splits where the
// layer statistics say, "midpoint" at len/2, as every multi-atom RQ did
// before the split was planned.
func BenchmarkPairs(b *testing.B) {
	g := youTube(b)
	atoms, ok := dist.Compile(g, rex.MustParse("fc{2} sr fr{3}"))
	if !ok {
		b.Fatal("the YouTube graph lacks a color of the chain")
	}
	src := make([]graph.NodeID, 16)
	dst := make([]graph.NodeID, 16)
	for i := range src {
		src[i] = graph.NodeID(i * g.NumNodes() / len(src))
		dst[i] = graph.NodeID((2*i + 1) * g.NumNodes() / (2 * len(dst)))
	}
	s := dist.NewScratch()
	found := 0
	count := func(x, y graph.NodeID) bool {
		found++
		return true
	}
	for _, bc := range []struct {
		name string
		run  func()
	}{
		{"planned", func() { dist.Pairs(g, atoms, src, dst, s, count) }},
		{"midpoint", func() { dist.PairsAt(g, atoms, src, dst, len(atoms)/2, s, count) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bc.run() // grow the arena's buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.run()
			}
		})
	}
}
