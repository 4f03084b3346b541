package reach_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"regraph/internal/dist"
	"regraph/internal/gen"
	"regraph/internal/reach"
)

// TestStreamEquivalence: for random queries, the streamed pair sequence
// of every method equals EvalBFS's answer exactly (same pairs, same
// order), and an early-stopping yield sees a strict prefix.
func TestStreamEquivalence(t *testing.T) {
	g := gen.Synthetic(4, 250, 1000, 3, gen.DefaultColors)
	backends := backendTable(g)
	s := dist.NewScratch()
	r := rand.New(rand.NewSource(8))

	collect := func(stream func(yield func(reach.Pair) bool) error) []reach.Pair {
		var out []reach.Pair
		if err := stream(func(p reach.Pair) bool {
			out = append(out, p)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	for i := 0; i < 40; i++ {
		q := gen.RQ(g, 2, 3, 1+r.Intn(3), r)

		want := q.EvalBFSScratch(g, s)
		gotBFS := collect(func(y func(reach.Pair) bool) error {
			return q.StreamBFS(context.Background(), g, s, nil, y)
		})
		if !reflect.DeepEqual(want, gotBFS) {
			t.Fatalf("query %d: StreamBFS differs from EvalBFSScratch", i)
		}

		for _, b := range backends {
			got := collect(func(y func(reach.Pair) bool) error {
				return q.StreamBackend(context.Background(), g, b.be, s, nil, y)
			})
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("query %d: %s: StreamBackend differs from EvalBFS", i, b.name)
			}

			// Early stop: the first k yielded pairs are the answer's prefix.
			if len(want) > 1 {
				k := 1 + r.Intn(len(want)-1)
				var prefix []reach.Pair
				err := q.StreamBackend(context.Background(), g, b.be, s, nil, func(p reach.Pair) bool {
					prefix = append(prefix, p)
					return len(prefix) < k
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(prefix, want[:k]) {
					t.Fatalf("query %d: %s: early-stopped stream is not a prefix", i, b.name)
				}
			}
		}
	}
}

// TestStreamCancelled: a dead context surfaces as the stream's error on
// every method and backend.
func TestStreamCancelled(t *testing.T) {
	g := gen.Synthetic(4, 250, 1000, 3, gen.DefaultColors)
	ca := dist.NewCache(g, 1<<12)
	s := dist.NewScratch()
	r := rand.New(rand.NewSource(3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	yield := func(reach.Pair) bool { return true }
	for _, atoms := range []int{1, 2} {
		q := gen.RQ(g, 1, 3, atoms, r)
		if len(q.EvalBFS(g)) == 0 {
			t.Fatalf("%d-atom query has no answers; the cancellation check would be vacuous", atoms)
		}
		for _, b := range backendTable(g) {
			if err := q.StreamBackend(ctx, g, b.be, s, nil, yield); err != context.Canceled {
				t.Errorf("%d atoms, %s: StreamBackend: err = %v", atoms, b.name, err)
			}
		}
		if err := q.StreamBFS(ctx, g, s, nil, yield); err != context.Canceled {
			t.Errorf("%d atoms: StreamBFS: err = %v", atoms, err)
		}
		// The arena must come back unbound for later evaluations.
		if got := q.EvalBackendScratchWith(g, ca, s, nil); !reflect.DeepEqual(got, q.EvalBackend(g, dist.NewCache(g, 1<<12))) {
			t.Errorf("%d atoms: post-cancel evaluation differs", atoms)
		}
	}
}
