package bench

import (
	"context"
	"fmt"
	"runtime"

	"regraph/internal/engine"
	"regraph/internal/gen"
	"regraph/internal/reach"
)

// EngineSession measures what the streaming session API buys over
// all-at-once RunBatch on the same RQ batch (ISSUE 4): wall time for
// three configurations — RunBatch (materialize everything, hold
// everything), a session whose consumer handles each materialized
// answer and drops it, and a session whose requests stream pairs
// through Emit callbacks (nothing materialized) — plus, in
// Table.Metrics, the answer memory each configuration still holds live
// when the batch is done. RunBatch must retain every pair slice at
// once; the session configurations retain nothing beyond the in-flight
// window, which is the memory story that makes sessions the multi-user
// serving surface.
func EngineSession(e *Env) *Table {
	t := &Table{
		ID:     "Session",
		Title:  "batch RQ: RunBatch vs streaming session (YouTube, matrix)",
		XLabel: "#queries",
		Unit:   "s",
		Series: []string{"RunBatch", "Session", "SessionEmit"},
	}
	g, _, _ := e.YouTube()
	en := engine.MustNew(g, engine.Options{BackendKind: "matrix"})
	for _, base := range []int{128, 512} {
		nq := base * e.Cfg.QueriesPerPoint
		r := e.Rand(int64(9900 + nq))
		qs := make([]reach.Query, nq)
		reqs := make([]engine.Request, nq)
		for i := range qs {
			qs[i] = gen.RQ(g, 3, 5, 1+r.Intn(3), r)
			reqs[i] = engine.Request{RQ: &qs[i]}
		}

		// RunBatch: everything materialized and retained at once.
		before := liveBytes()
		var res []engine.Result
		batch := timeIt(func() { res = en.RunBatch(reqs) })
		retainedBatch := liveBytes() - before
		pairs := 0
		for i := range res {
			pairs += len(res[i].Pairs)
		}
		res = nil

		// Session, materialized per result: the consumer sees each answer
		// once and drops it; resident answers are bounded by the
		// in-flight cap at every moment.
		before = liveBytes()
		sess := timeIt(func() {
			s := en.Open(context.Background(), engine.SessionOptions{})
			go func() {
				for i := range reqs {
					if _, err := s.Submit(context.Background(), reqs[i]); err != nil {
						return
					}
				}
				s.Close()
			}()
			got := 0
			for res := range s.Results() {
				got += len(res.Pairs)
			}
			if got != pairs {
				panic(fmt.Sprintf("session answered %d pairs, RunBatch %d", got, pairs))
			}
		})
		retainedSess := liveBytes() - before

		// Session with Emit streaming: pairs never materialize at all.
		// (The counts slice lives outside the probe window — the metric
		// measures retained answers, not the consumer's own bookkeeping.)
		counts := make([]int, nq)
		before = liveBytes()
		emit := timeIt(func() {
			s := en.Open(context.Background(), engine.SessionOptions{})
			go func() {
				for i := range qs {
					i := i
					req := engine.Request{RQ: &qs[i], Emit: func(reach.Pair) bool {
						counts[i]++
						return true
					}}
					if _, err := s.Submit(context.Background(), req); err != nil {
						return
					}
				}
				s.Close()
			}()
			for range s.Results() {
			}
		})
		retainedEmit := liveBytes() - before

		t.Add(fmt.Sprint(nq), map[string]float64{
			"RunBatch": batch, "Session": sess, "SessionEmit": emit,
		})
		tag := fmt.Sprintf("B-live-%dq", nq)
		t.Metric("RunBatch-"+tag, clampBytes(retainedBatch))
		t.Metric("Session-"+tag, clampBytes(retainedSess))
		t.Metric("SessionEmit-"+tag, clampBytes(retainedEmit))
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%d queries, %d answer pairs: live answer bytes after completion — RunBatch %d, Session %d, SessionEmit %d",
			nq, pairs, int64(retainedBatch), int64(retainedSess), int64(retainedEmit)))
	}
	t.Notes = append(t.Notes,
		"sessions submit from one goroutine at the default in-flight bound (2x workers); consumers drop each answer after reading it")
	return t
}

// liveBytes returns the post-GC live heap, the retained-memory probe
// the session experiment differences.
func liveBytes() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// clampBytes floors a retained-bytes delta at zero (GC timing can make
// a no-retention configuration measure slightly negative).
func clampBytes(d int64) float64 {
	if d < 0 {
		return 0
	}
	return float64(d)
}
