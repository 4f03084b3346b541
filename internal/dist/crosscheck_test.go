// Black-box cross-checks of the whole evaluation stack over the dist
// substrate: every backend must return EvalBFS's RQ answer in order, and
// JoinMatch and SplitMatch must agree with JoinMatch without a backend
// on every backend, on seeded synthetic graphs with generated workloads.
package dist_test

import (
	"math/rand"
	"reflect"
	"testing"

	"regraph/internal/dist"
	"regraph/internal/gen"
	"regraph/internal/graph"
	"regraph/internal/pattern"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// backendTable is the backend input of the cross-checks, none included.
func backendTable(g *graph.Graph) []struct {
	name string
	be   dist.Backend
} {
	return []struct {
		name string
		be   dist.Backend
	}{
		{"none", nil},
		{"matrix", dist.NewMatrix(g)},
		{"cache", dist.NewCache(g, 256)},
		{"twohop", dist.NewTwoHop(g)},
	}
}

// chainGraph is a 300-node cycle whose edges take every color in turn:
// its wildcard distances pass the matrix's 255 saturation point.
func chainGraph() *graph.Graph {
	g := gen.Synthetic(1, 300, 0, 3, gen.DefaultColors)
	for i := 0; i < 300; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%300), gen.DefaultColors[i%len(gen.DefaultColors)])
	}
	return g
}

// TestRQEvaluatorsAgreeOnSynthetic: every backend returns EvalBFS's
// answer, pair for pair and in order, on generated RQ workloads over
// seeded synthetic graphs and over a chain long enough to saturate
// matrix cells.
func TestRQEvaluatorsAgreeOnSynthetic(t *testing.T) {
	for seed := int64(1); seed <= 7; seed++ {
		g := gen.Synthetic(seed, 150, 500, 3, gen.DefaultColors)
		if seed == 7 {
			g = chainGraph()
		}
		backends := backendTable(g)
		rng := newRand(seed)
		for k := 0; k < 6; k++ {
			q := gen.RQ(g, 2, 4, 1+k%3, rng)
			want := q.EvalBFS(g)
			for _, b := range backends {
				if got := q.EvalBackend(g, b.be); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d query %v: %s = %v, EvalBFS = %v", seed, q, b.name, got, want)
				}
			}
		}
	}
}

// TestJoinSplitAgreeOnSynthetic: JoinMatch and SplitMatch on every
// backend equal JoinMatch without one, on generated pattern queries.
func TestJoinSplitAgreeOnSynthetic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := gen.Synthetic(seed, 120, 400, 3, gen.DefaultColors)
		if seed == 5 {
			g = chainGraph()
		}
		backends := backendTable(g)
		rng := newRand(seed * 977)
		for k := 0; k < 4; k++ {
			q := gen.Query(g, gen.Spec{Nodes: 3 + k, Edges: 4 + k, Preds: 2, Bound: 3, Colors: 2}, rng)
			want := pattern.JoinMatch(g, q, pattern.Options{})
			for _, b := range backends {
				opts := pattern.Options{Backend: b.be}
				join := pattern.JoinMatch(g, q, opts)
				split := pattern.SplitMatch(g, q, opts)
				if !join.Equal(want) || !split.Equal(want) {
					t.Fatalf("seed %d %s: disagree\npattern %v\njoin  %s\nsplit %s\nwant  %s",
						seed, b.name, q, join.String(g), split.String(g), want.String(g))
				}
			}
		}
	}
}

// TestMatrixAgreesOnRealDatasets spot-checks the matrix against the
// runtime search on the generated Terror dataset.
func TestMatrixAgreesOnRealDatasets(t *testing.T) {
	g := gen.Terror(1)
	mx := dist.NewMatrix(g)
	ic, _ := g.ColorID("ic")
	rng := newRand(11)
	for i := 0; i < 500; i++ {
		v1 := graph.NodeID(rng.Intn(g.NumNodes()))
		v2 := graph.NodeID(rng.Intn(g.NumNodes()))
		if got, want := dist.BiDist(g, ic, v1, v2), mx.Dist(ic, v1, v2); got != want {
			t.Fatalf("BiDist(ic, %d, %d) = %d, matrix %d", v1, v2, got, want)
		}
	}
}
