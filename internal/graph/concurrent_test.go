package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLayersConcurrent is the race detector's view of the CSR layers:
// first reads of a plain graph from several goroutines at once, and
// readers of a published generation while the writer derives and mutates
// its successor. Run it with -race.
func TestLayersConcurrent(t *testing.T) {
	t.Run("first-readers", func(t *testing.T) {
		g := buildBase(t)
		g.AddEdge(7, 0, "d") // drops the layers buildBase built
		want := filterRows(g)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if got := layerRows(g); !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent first read: layers %v, want %v", got, want)
				}
			}()
		}
		close(start)
		wg.Wait()
	})

	t.Run("readers-during-derive", func(t *testing.T) {
		var published atomic.Pointer[Graph]
		base := buildBase(t)
		published.Store(base)
		stop := make(chan struct{})
		var scans atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					g := published.Load()
					if got, want := layerRows(g), filterRows(g); !reflect.DeepEqual(got, want) {
						t.Errorf("published generation: layers %v, want %v", got, want)
						return
					}
					scans.Add(1)
				}
			}()
		}
		rng := rand.New(rand.NewSource(3))
		cur := base
		for gen := 0; gen < 40; gen++ {
			// Let the readers scan the published generation a few times
			// before deriving again, so that their scans overlap the
			// writer's work on every generation.
			for s0 := scans.Load(); scans.Load() < s0+4 && !t.Failed(); {
				runtime.Gosched()
			}
			ng := cur.Derive()
			for i := 0; i < 4; i++ {
				from, to := NodeID(rng.Intn(ng.NumNodes())), NodeID(rng.Intn(ng.NumNodes()))
				switch rng.Intn(4) {
				case 0:
					ng.AddNode(fmt.Sprintf("g%dn%d", gen, i), nil)
				case 1:
					ng.AddEdge(from, to, fmt.Sprintf("c%d", rng.Intn(6)))
				case 2:
					if es := ng.Out(from); len(es) > 0 {
						ng.RemoveEdge(from, es[0].To, ng.ColorName(es[0].Color))
					}
				default:
					ng.SetAttr(from, "k", fmt.Sprint(gen))
				}
			}
			ng.BuildColorIndex()
			published.Store(ng)
			cur.Seal()
			cur = ng
		}
		close(stop)
		wg.Wait()
	})
}
