package pattern_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"regraph/internal/gen"
	"regraph/internal/pattern"
)

// TestMatchCtx: with a live context both Ctx evaluators agree with
// their plain forms; with a dead one they return the context's error —
// on every backend.
func TestMatchCtx(t *testing.T) {
	g := gen.Synthetic(6, 200, 800, 3, gen.DefaultColors)
	r := rand.New(rand.NewSource(9))
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	backends := backendTable(g)

	for i := 0; i < 10; i++ {
		q := gen.Query(g, gen.Spec{Nodes: 3, Edges: 3, Preds: 2, Bound: 3, Colors: 2}, r)
		for _, b := range backends {
			name, opts := b.name, pattern.Options{Backend: b.be}
			want := pattern.JoinMatch(g, q, opts)
			got, err := pattern.JoinMatchCtx(context.Background(), g, q, opts)
			if err != nil {
				t.Fatalf("%s: JoinMatchCtx: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: JoinMatchCtx differs from JoinMatch (query %d)", name, i)
			}
			wantS := pattern.SplitMatch(g, q, opts)
			gotS, err := pattern.SplitMatchCtx(context.Background(), g, q, opts)
			if err != nil {
				t.Fatalf("%s: SplitMatchCtx: %v", name, err)
			}
			if !reflect.DeepEqual(gotS, wantS) {
				t.Fatalf("%s: SplitMatchCtx differs from SplitMatch (query %d)", name, i)
			}

			if res, err := pattern.JoinMatchCtx(dead, g, q, opts); err != context.Canceled || res != nil {
				t.Fatalf("%s: dead JoinMatchCtx: res=%v err=%v", name, res, err)
			}
			if res, err := pattern.SplitMatchCtx(dead, g, q, opts); err != context.Canceled || res != nil {
				t.Fatalf("%s: dead SplitMatchCtx: res=%v err=%v", name, res, err)
			}
		}
	}
}
