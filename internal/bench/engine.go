package bench

import (
	"fmt"
	"runtime"

	"regraph/internal/dist"
	"regraph/internal/engine"
	"regraph/internal/gen"
	"regraph/internal/reach"
)

// EngineBatch measures what the resident engine buys on a batch RQ
// workload (the ROADMAP's multi-user serving scenario, beyond the
// paper's single-query experiments): the same generated queries are
// evaluated by a serial cache-backed EvalBackend loop, by an engine bounded to one
// worker (isolating the scratch-arena reuse from the parallelism), and
// by an engine with one worker per core. Every configuration gets a
// fresh LRU cache so none inherits the others' warm distances.
func EngineBatch(e *Env) *Table {
	maxW := runtime.GOMAXPROCS(0)
	engineN := fmt.Sprintf("Engine-%d", maxW)
	t := &Table{
		ID:     "Engine",
		Title:  "batch RQ throughput: serial loop vs resident engine (YouTube)",
		XLabel: "#queries",
		Unit:   "s",
		Series: []string{"Serial", "Engine-1", engineN},
	}
	g, _, _ := e.YouTube()
	// Batch sizes honor the QueriesPerPoint knob (smoke runs turn it
	// down to stay cheap): at the default of 3 the sweep tops out above
	// a thousand queries per batch.
	for _, base := range []int{32, 128, 512} {
		nq := base * e.Cfg.QueriesPerPoint
		r := e.Rand(int64(9000 + nq))
		qs := make([]reach.Query, nq)
		for i := range qs {
			qs[i] = gen.RQ(g, 3, 5, 1+r.Intn(3), r)
		}
		caSerial := dist.NewCache(g, e.Cfg.CacheSize)
		serial := timeIt(func() {
			for _, q := range qs {
				q.EvalBackend(g, caSerial)
			}
		})
		e1 := engine.MustNew(g, engine.Options{Workers: 1, CacheSize: e.Cfg.CacheSize})
		one := timeIt(func() { e1.RunRQs(qs) })
		eN := engine.MustNew(g, engine.Options{Workers: maxW, CacheSize: e.Cfg.CacheSize})
		many := timeIt(func() { eN.RunRQs(qs) })
		t.Add(fmt.Sprint(nq), map[string]float64{
			"Serial": serial, "Engine-1": one, engineN: many,
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("GOMAXPROCS=%d; each series uses a fresh %d-entry cache", maxW, e.Cfg.CacheSize))
	return t
}

// EngineMemo measures what the candidate inverted index and the
// engine-wide predicate→candidates memo buy on a repeated engine batch
// (ISSUE 3): the same generated RQ batch is evaluated by an engine with
// the index disabled (every query re-scans all nodes per predicate)
// and by a default engine (index lookups, memo hits on repeats). Both
// run the batch twice so the memoized configuration shows its
// steady-state, which is what a resident multi-user engine serves.
func EngineMemo(e *Env) *Table {
	t := &Table{
		ID:     "EngineMemo",
		Title:  "engine batch: candidate scan vs inverted index + memo (YouTube)",
		XLabel: "#queries",
		Unit:   "s",
		Series: []string{"Scan", "IndexMemo"},
	}
	g, _, _ := e.YouTube()
	for _, base := range []int{128, 512} {
		nq := base * e.Cfg.QueriesPerPoint
		r := e.Rand(int64(9500 + nq))
		qs := make([]reach.Query, nq)
		for i := range qs {
			qs[i] = gen.RQ(g, 3, 5, 1+r.Intn(3), r)
		}
		run := func(en *engine.Engine) float64 {
			return timeIt(func() {
				en.RunRQs(qs)
				en.RunRQs(qs)
			})
		}
		scan := run(engine.MustNew(g, engine.Options{
			CacheSize: e.Cfg.CacheSize, DisableCandidateIndex: true,
		}))
		memo := run(engine.MustNew(g, engine.Options{CacheSize: e.Cfg.CacheSize}))
		t.Add(fmt.Sprint(nq), map[string]float64{"Scan": scan, "IndexMemo": memo})
	}
	t.Notes = append(t.Notes,
		"each batch evaluated twice back to back; fresh engine + cache per series")
	return t
}
