package engine_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"regraph/internal/engine"
	"regraph/internal/gen"
	"regraph/internal/graph"
	"regraph/internal/reach"
)

// mixedRequests builds a deterministic RQ/PQ mix for session tests.
func mixedRequests(g *graph.Graph, n int, seed int64) []engine.Request {
	r := rand.New(rand.NewSource(seed))
	reqs := make([]engine.Request, n)
	for i := range reqs {
		if i%4 == 3 {
			pq := gen.Query(g, gen.Spec{Nodes: 3, Edges: 3, Preds: 2, Bound: 3, Colors: 2}, r)
			reqs[i] = engine.Request{PQ: pq}
		} else {
			q := gen.RQ(g, 2, 3, 1+r.Intn(3), r)
			reqs[i] = engine.Request{RQ: &q}
		}
	}
	return reqs
}

// TestSessionMatchesRunBatch: results submitted through a session from
// several goroutines, re-ordered by id, must be identical to RunBatch
// on the same requests — in cache mode and in matrix mode.
func TestSessionMatchesRunBatch(t *testing.T) {
	g := testGraph(7)
	reqs := mixedRequests(g, 48, 11)
	for name, opts := range map[string]engine.Options{
		"cache":  {Workers: 4},
		"matrix": {Workers: 4, BackendKind: "matrix"},
	} {
		e := engine.MustNew(g, opts)
		want := e.RunBatch(reqs)

		s := e.Open(context.Background(), engine.SessionOptions{MaxInFlight: 6})
		// id -> request index, filled by the submitters.
		reqOf := make([]int64, len(reqs))
		var wg sync.WaitGroup
		var next atomic.Int64
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(reqs) {
						return
					}
					id, err := s.Submit(context.Background(), reqs[i])
					if err != nil {
						t.Errorf("%s: submit %d: %v", name, i, err)
						return
					}
					atomic.StoreInt64(&reqOf[id], int64(i))
				}
			}()
		}
		go func() {
			wg.Wait()
			s.Close()
		}()
		// A result can arrive before its submitter has recorded the id it
		// got back, so results are matched to requests only after the
		// stream ends: Results closes after Close, which waits for every
		// submitter.
		var results []engine.Result
		for r := range s.Results() {
			results = append(results, r)
		}
		if len(results) != len(reqs) {
			t.Fatalf("%s: received %d results, want %d", name, len(results), len(reqs))
		}
		for _, r := range results {
			i := atomic.LoadInt64(&reqOf[r.ID])
			w := want[i]
			if !reflect.DeepEqual(r.Pairs, w.Pairs) || !reflect.DeepEqual(r.Match, w.Match) || (r.Err == nil) != (w.Err == nil) {
				t.Errorf("%s: request %d (id %d): session result differs from RunBatch", name, i, r.ID)
			}
		}
		st := s.Stats()
		if st.Submitted != uint64(len(reqs)) || st.Delivered != uint64(len(reqs)) || st.Dropped != 0 {
			t.Errorf("%s: stats %+v", name, st)
		}
		if st.InFlight != 0 || st.QueueDepth != 0 {
			t.Errorf("%s: session not drained: %+v", name, st)
		}
	}
}

// TestSessionCancelMidBatch cancels the session context mid-stream and
// asserts clean drain: every received result is well-formed (a real
// answer or the context's error, with a valid unique id), accepted
// submissions are all accounted for, and no goroutine outlives the
// session. Run under -race this is the leak/termination stress test.
func TestSessionCancelMidBatch(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g := gen.Synthetic(3, 1200, 6000, 3, gen.DefaultColors)
	e := engine.MustNew(g, engine.Options{Workers: 4})
	r := rand.New(rand.NewSource(2))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := e.Open(ctx, engine.SessionOptions{MaxInFlight: 8})
	var accepted atomic.Uint64
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		for {
			q := gen.RQ(g, 2, 4, 3, r)
			if _, err := s.Submit(ctx, engine.Request{RQ: &q}); err != nil {
				return
			}
			accepted.Add(1)
		}
	}()

	seen := map[uint64]bool{}
	received := 0
	for res := range s.Results() {
		if seen[res.ID] {
			t.Errorf("duplicate result id %d", res.ID)
		}
		seen[res.ID] = true
		switch {
		case res.Err == nil:
			// well-formed success (Pairs may legitimately be empty)
		case errors.Is(res.Err, context.Canceled):
			if res.Pairs != nil {
				t.Errorf("cancelled result %d still carries pairs", res.ID)
			}
		default:
			t.Errorf("result %d: unexpected error %v", res.ID, res.Err)
		}
		received++
		if received == 10 {
			cancel()
		}
	}
	s.Close()
	<-subDone // the submitter's accepted count must be final before comparing

	st := s.Stats()
	if st.Submitted != accepted.Load() {
		t.Errorf("stats submitted %d, accepted %d", st.Submitted, accepted.Load())
	}
	if st.Delivered+st.Dropped != st.Submitted {
		t.Errorf("delivered %d + dropped %d != submitted %d", st.Delivered, st.Dropped, st.Submitted)
	}
	if st.Completed+st.Cancelled+st.Failed != st.Submitted {
		t.Errorf("completed %d + cancelled %d + failed %d != submitted %d",
			st.Completed, st.Cancelled, st.Failed, st.Submitted)
	}
	if st.Cancelled == 0 {
		t.Error("expected at least one cancelled query after mid-batch cancel")
	}
	for id := range seen {
		if id >= st.Submitted {
			t.Errorf("result id %d out of accepted range %d", id, st.Submitted)
		}
	}

	// No goroutine may outlive the drained session (give the runtime a
	// moment to reap exiting ones).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d now, %d at start", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSessionBackpressure: with MaxInFlight=1 and no result buffer, a
// second Submit must block until the first result is consumed.
func TestSessionBackpressure(t *testing.T) {
	g := testGraph(5)
	e := engine.MustNew(g, engine.Options{Workers: 2})
	s := e.Open(context.Background(), engine.SessionOptions{MaxInFlight: 1})
	q := testRQs(g, 3, 9)

	if _, err := s.Submit(context.Background(), engine.Request{RQ: &q[0]}); err != nil {
		t.Fatal(err)
	}
	// The first answer is done or in progress but not consumed: the
	// admission token is still held, so this must time out.
	short, cancelShort := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancelShort()
	if _, err := s.Submit(short, engine.Request{RQ: &q[1]}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second submit: got %v, want deadline exceeded", err)
	}
	r := <-s.Results()
	if r.ID != 0 || r.Err != nil {
		t.Fatalf("first result: %+v", r)
	}
	// Token released: admission is open again.
	if _, err := s.Submit(context.Background(), engine.Request{RQ: &q[2]}); err != nil {
		t.Fatalf("third submit after drain: %v", err)
	}
	go s.Close()
	r = <-s.Results()
	if r.Err != nil {
		t.Fatalf("third result: %+v", r)
	}
	if _, ok := <-s.Results(); ok {
		t.Fatal("results channel should be closed")
	}
	if _, err := s.Submit(context.Background(), engine.Request{RQ: &q[0]}); !errors.Is(err, engine.ErrSessionClosed) {
		t.Fatalf("submit after close: got %v, want ErrSessionClosed", err)
	}
}

// TestSessionEmitStreams: requests with an Emit callback stream their
// pairs (identical to the materialized answer) and carry no Pairs.
func TestSessionEmitStreams(t *testing.T) {
	g := testGraph(7)
	qs := testRQs(g, 20, 13)
	e := engine.MustNew(g, engine.Options{Workers: 3})
	want := e.RunRQs(qs)

	s := e.Open(context.Background(), engine.SessionOptions{MaxInFlight: 4})
	streamed := make([][]reach.Pair, len(qs))
	go func() {
		for i := range qs {
			i := i
			_, err := s.Submit(context.Background(), engine.Request{
				RQ: &qs[i],
				Emit: func(p reach.Pair) bool {
					streamed[i] = append(streamed[i], p)
					return true
				},
			})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}
		s.Close()
	}()
	for r := range s.Results() {
		if r.Err != nil {
			t.Errorf("result %d: %v", r.ID, r.Err)
		}
		if r.Pairs != nil {
			t.Errorf("result %d: Emit request materialized %d pairs", r.ID, len(r.Pairs))
		}
	}
	for i := range qs {
		if !reflect.DeepEqual(streamed[i], want[i]) {
			t.Errorf("query %d: streamed %v, want %v", i, streamed[i], want[i])
		}
	}
}

// TestRunBatchCtxPreCancelled: a dead context still yields a fully
// populated, fully attributed result slice.
func TestRunBatchCtxPreCancelled(t *testing.T) {
	g := testGraph(5)
	qs := testRQs(g, 12, 3)
	reqs := make([]engine.Request, len(qs))
	for i := range qs {
		reqs[i] = engine.Request{RQ: &qs[i]}
	}
	e := engine.MustNew(g, engine.Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := e.RunBatchCtx(ctx, reqs)
	if len(out) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(out), len(reqs))
	}
	for i, r := range out {
		if r.ID != uint64(i) {
			t.Errorf("result %d tagged id %d", i, r.ID)
		}
		if r.Err == nil {
			t.Errorf("result %d: expected a cancellation error", i)
		}
	}
}

// TestRunBatchTagsIDs: every RunBatch result, success or error, carries
// its request index as ID.
func TestRunBatchTagsIDs(t *testing.T) {
	g := testGraph(5)
	q := testRQs(g, 1, 3)[0]
	e := engine.MustNew(g, engine.Options{Workers: 2})
	out := e.RunBatch([]engine.Request{
		{RQ: &q},
		{}, // malformed: empty
		{RQ: &q},
	})
	for i, r := range out {
		if r.ID != uint64(i) {
			t.Errorf("result %d tagged id %d", i, r.ID)
		}
	}
	if out[1].Err == nil {
		t.Error("empty request must error")
	}
	if out[0].Err != nil || out[2].Err != nil {
		t.Errorf("valid requests errored: %v / %v", out[0].Err, out[2].Err)
	}
}
