package graph

import (
	"sync"
	"testing"
)

// TestStatsOnAPath: on the path 0 → 1 → 2 → 3 every node is sampled,
// node v reaches min(b, 3−v) others within b steps, and the statistics
// follow the adjacency across a mutation.
func TestStatsOnAPath(t *testing.T) {
	g := New()
	for _, name := range []string{"n0", "n1", "n2", "n3"} {
		g.AddNode(name, nil)
	}
	for v := NodeID(0); v < 3; v++ {
		g.AddEdge(v, v+1, "a")
	}
	g.BuildColorIndex()
	a, _ := g.ColorID("a")
	want := [StatBounds]float64{0.75, 1.25, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5}
	for _, c := range []ColorID{a, AnyColor} {
		for _, fwd := range []bool{true, false} {
			st := g.Stats(c, fwd)
			if st.MeanDeg != 0.75 || st.Ball != want {
				t.Errorf("Stats(%d, %v) = %+v, want mean degree 0.75 and balls %v", c, fwd, st, want)
			}
		}
	}

	// Closing the cycle drops the layers and their statistics: every
	// node now reaches the three others within three steps.
	g.AddEdge(3, 0, "a")
	st := g.Stats(a, true)
	if st.MeanDeg != 1 || st.Ball[0] != 1 || st.Ball[2] != 3 || st.Ball[7] != 3 {
		t.Errorf("after closing the cycle: %+v", st)
	}
}

// TestStatsConcurrent: first Stats reads from several goroutines at once,
// the wildcard's included, build each layer's statistics once and agree
// with a sequential read of the same graph. Run it with -race.
func TestStatsConcurrent(t *testing.T) {
	want := buildBase(t)
	got := buildBase(t)
	got.AddEdge(7, 0, "d") // drop the layers buildBase built
	want.AddEdge(7, 0, "d")
	layers := []ColorID{AnyColor}
	for c := 0; c < want.NumColors(); c++ {
		layers = append(layers, ColorID(c))
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, c := range layers {
				for _, fwd := range []bool{true, false} {
					if a, b := got.Stats(c, fwd), want.Stats(c, fwd); a != b {
						t.Errorf("Stats(%d, %v) = %+v concurrently, %+v alone", c, fwd, a, b)
					}
				}
			}
		}()
	}
	for _, c := range layers {
		want.Stats(c, true)
	}
	close(start)
	wg.Wait()
}
