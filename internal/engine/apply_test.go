package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"regraph/internal/engine"
	"regraph/internal/graph"
	"regraph/internal/mutate"
	"regraph/internal/pattern"
	"regraph/internal/predicate"
	"regraph/internal/reach"
	"regraph/internal/rex"
)

// mutBase builds a random attributed multigraph over colors x/y with
// node names "v<i>" — the base every mutation test derives from.
func mutBase(r *rand.Rand, n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("v%d", i), map[string]string{
			"t": fmt.Sprint(r.Intn(4)),
			"w": fmt.Sprint(r.Intn(5)),
		})
	}
	colors := []string{"x", "y"}
	for i := 0; i < n*3; i++ {
		g.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)), colors[r.Intn(len(colors))])
	}
	return g
}

// randOps builds a random mutation batch against g by name, including
// the occasional op that must fail (unknown node, duplicate add).
func randOps(r *rand.Rand, g *graph.Graph, genNo int) []mutate.Op {
	name := func(v graph.NodeID) string { return g.Node(v).Name }
	rnd := func() graph.NodeID { return graph.NodeID(r.Intn(g.NumNodes())) }
	colors := []string{"x", "y"}
	var ops []mutate.Op
	nops := 1 + r.Intn(6)
	for i := 0; i < nops; i++ {
		switch r.Intn(6) {
		case 0:
			ops = append(ops, mutate.Op{Verb: mutate.VerbAddNode,
				Node:  fmt.Sprintf("g%dn%d", genNo, i),
				Attrs: map[string]string{"t": fmt.Sprint(r.Intn(4)), "w": fmt.Sprint(r.Intn(5))}})
		case 1:
			ops = append(ops, mutate.Op{Verb: mutate.VerbSetAttr, Node: name(rnd()),
				Attrs: map[string]string{[]string{"t", "w"}[r.Intn(2)]: fmt.Sprint(r.Intn(5))}})
		case 2:
			ops = append(ops, mutate.Op{Verb: mutate.VerbAddEdge,
				From: name(rnd()), To: name(rnd()), Color: colors[r.Intn(2)]})
		case 3:
			v := rnd()
			outs := g.Out(v)
			if len(outs) == 0 {
				continue
			}
			e := outs[r.Intn(len(outs))]
			ops = append(ops, mutate.Op{Verb: mutate.VerbRemoveEdge,
				From: name(v), To: name(e.To), Color: g.ColorName(e.Color)})
		case 4: // must fail: unknown node
			ops = append(ops, mutate.Op{Verb: mutate.VerbSetAttr, Node: "no-such-node",
				Attrs: map[string]string{"t": "1"}})
		case 5: // must fail: duplicate add
			ops = append(ops, mutate.Op{Verb: mutate.VerbAddNode, Node: name(rnd())})
		}
	}
	return ops
}

// replayAck applies one acked op to an oracle graph with direct
// mutations — the semantics Apply must be equivalent to.
func replayAck(g *graph.Graph, op mutate.Op) {
	switch op.Verb {
	case mutate.VerbAddNode:
		g.AddNode(op.Node, op.Attrs)
	case mutate.VerbSetAttr:
		v, _ := g.NodeByName(op.Node)
		for k, val := range op.Attrs {
			g.SetAttr(v, k, val)
		}
	case mutate.VerbAddEdge:
		f, _ := g.NodeByName(op.From)
		t, _ := g.NodeByName(op.To)
		g.AddEdge(f, t, op.Color)
	case mutate.VerbRemoveEdge:
		f, _ := g.NodeByName(op.From)
		t, _ := g.NodeByName(op.To)
		g.RemoveEdge(f, t, op.Color)
	}
}

// mutQueries is the fixed query set the oracle tests compare across
// generations: two RQs (one wildcard) and a DAG-bounded PQ.
func mutQueries() []engine.Request {
	rq1 := reach.New(predicate.MustParse("t = 1"), predicate.MustParse("w >= 2"), rex.MustParse("x{2}"))
	rq2 := reach.New(predicate.MustParse("w <= 1"), predicate.New(), rex.MustParse("_{3}"))
	pq := pattern.New()
	a := pq.AddNode("A", predicate.MustParse("t = 1"))
	b := pq.AddNode("B", predicate.MustParse("t = 2"))
	pq.AddEdge(a, b, rex.MustParse("x{2}"))
	return []engine.Request{{RQ: &rq1}, {RQ: &rq2}, {PQ: pq}}
}

func sameResults(t *testing.T, tag string, got, want []engine.Result) {
	t.Helper()
	for i := range want {
		if (got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("%s: query %d: err %v vs %v", tag, i, got[i].Err, want[i].Err)
		}
		if got[i].Match != nil || want[i].Match != nil {
			if !got[i].Match.Equal(want[i].Match) {
				t.Fatalf("%s: query %d: PQ answers differ", tag, i)
			}
			continue
		}
		if pairsKey(got[i].Pairs) != pairsKey(want[i].Pairs) {
			t.Fatalf("%s: query %d: %v != %v", tag, i, got[i].Pairs, want[i].Pairs)
		}
	}
}

// TestApplyBasics pins the per-op ack contract on a concrete batch.
func TestApplyBasics(t *testing.T) {
	g := graph.New()
	g.AddNode("a", map[string]string{"t": "1"})
	g.AddNode("b", map[string]string{"t": "2"})
	g.AddEdge(0, 1, "x")
	e := engine.MustNew(g, engine.Options{Workers: 2})

	seven := uint64(7)
	cm, err := e.Apply([]mutate.Op{
		{Verb: mutate.VerbAddNode, Node: "c", Attrs: map[string]string{"t": "3"}},
		{Verb: mutate.VerbAddEdge, From: "a", To: "c", Color: "y"},
		{ID: &seven, Verb: mutate.VerbSetAttr, Node: "a", Attrs: map[string]string{"t": "2"}},
		{Verb: mutate.VerbRemoveEdge, From: "b", To: "a", Color: "x"}, // no such edge
		{Verb: mutate.VerbAddNode, Node: "a"},                         // duplicate
	})
	if err != nil {
		t.Fatal(err)
	}
	if cm.Gen != 1 || cm.Applied != 3 || cm.Failed != 2 {
		t.Fatalf("commit = %+v, want gen 1, 3 applied, 2 failed", cm)
	}
	if cm.Nodes != 3 || cm.Edges != 2 {
		t.Fatalf("commit size = %d nodes %d edges, want 3/2", cm.Nodes, cm.Edges)
	}
	wantAcks := []mutate.Ack{
		{ID: 0, Verb: mutate.VerbAddNode, Gen: 1},
		{ID: 1, Verb: mutate.VerbAddEdge, Gen: 1},
		{ID: 7, Verb: mutate.VerbSetAttr, Gen: 1},
	}
	okAcks, failAcks := 0, 0
	for _, a := range cm.Acks {
		if a.Err == "" {
			if a != wantAcks[okAcks] {
				t.Fatalf("ack %d = %+v, want %+v", okAcks, a, wantAcks[okAcks])
			}
			okAcks++
		} else {
			failAcks++
			if a.Gen != 0 {
				t.Fatalf("failed ack carries gen: %+v", a)
			}
		}
	}
	if okAcks != 3 || failAcks != 2 {
		t.Fatalf("acks: %d ok %d failed", okAcks, failAcks)
	}
	if e.Generation() != 1 {
		t.Fatalf("Generation() = %d", e.Generation())
	}
	ng := e.Graph()
	if ng.NumNodes() != 3 || ng.Attrs(0)["t"] != "2" {
		t.Fatalf("mutations not visible in new generation")
	}
	if g.Attrs(0)["t"] != "1" || g.NumNodes() != 2 {
		t.Fatalf("base generation was mutated in place")
	}
	if !g.Sealed() {
		t.Fatal("superseded generation not sealed")
	}

	// A batch whose ops all fail publishes nothing.
	cm, err = e.Apply([]mutate.Op{{Verb: mutate.VerbAddNode, Node: "a"}})
	if err != nil || cm.Gen != 1 || cm.Applied != 0 || cm.Failed != 1 {
		t.Fatalf("all-fail batch: %+v, %v", cm, err)
	}
	if e.Generation() != 1 {
		t.Fatalf("all-fail batch advanced the generation")
	}
}

// TestApplyBackendKinds: whichever backend Options.BackendKind names,
// the engine commits generations and answers match a scan-mode oracle
// over the replayed graph.
func TestApplyBackendKinds(t *testing.T) {
	for _, kind := range []string{"matrix", "twohop", "cache"} {
		t.Run(kind, func(t *testing.T) {
			g := mutBase(rand.New(rand.NewSource(5)), 40)
			e := engine.MustNew(g, engine.Options{Workers: 2, BackendKind: kind})
			if got := e.BackendKind(); got != kind {
				t.Fatalf("BackendKind() = %q, want %q", got, kind)
			}
			ops := []mutate.Op{
				{Verb: mutate.VerbAddNode, Node: "n1", Attrs: map[string]string{"t": "1", "w": "3"}},
				{Verb: mutate.VerbAddEdge, From: "v0", To: "n1", Color: "x"},
				{Verb: mutate.VerbSetAttr, Node: "v1", Attrs: map[string]string{"t": "1"}},
			}
			cm, err := e.Apply(ops)
			if err != nil || cm.Gen != 1 || cm.Applied != 3 {
				t.Fatalf("Apply: %+v, %v", cm, err)
			}
			og := mutBase(rand.New(rand.NewSource(5)), 40)
			for _, op := range ops {
				replayAck(og, op)
			}
			oracle := engine.MustNew(og, engine.Options{Workers: 2, DisableCandidateIndex: true})
			reqs := mutQueries()
			sameResults(t, kind, e.RunBatch(reqs), oracle.RunBatch(reqs))
		})
	}
}

// TestApplyAttrOnlyKeepsBackend: a batch that only sets attributes
// changes no adjacency, so its generation serves with the predecessor's
// backend (and GRAIL filter) instead of a rebuilt one, and still answers
// exactly as EvalBFS and JoinMatch do on the replayed plain graph. The
// next batch that adds an edge rebuilds again.
func TestApplyAttrOnlyKeepsBackend(t *testing.T) {
	for _, opts := range []engine.Options{
		{BackendKind: "matrix"},
		{BackendKind: "twohop"},
		{BackendKind: "cache"},
		{BackendKind: "cache", ReachFilterK: 2},
	} {
		opts.Workers = 2
		g := mutBase(rand.New(rand.NewSource(9)), 40)
		og := mutBase(rand.New(rand.NewSource(9)), 40)
		e := engine.MustNew(g, opts)
		check := func(tag string) {
			t.Helper()
			reqs := mutQueries()
			got := e.RunBatch(reqs)
			for i, req := range reqs {
				if req.RQ != nil {
					if pairsKey(got[i].Pairs) != pairsKey(req.RQ.EvalBFS(og)) {
						t.Fatalf("%+v %s: query %d differs from EvalBFS", opts, tag, i)
					}
				} else if !got[i].Match.Equal(pattern.JoinMatch(og, req.PQ, pattern.Options{})) {
					t.Fatalf("%+v %s: query %d differs from JoinMatch", opts, tag, i)
				}
			}
		}
		apply := func(ops []mutate.Op) {
			t.Helper()
			if cm, err := e.Apply(ops); err != nil || cm.Applied != len(ops) {
				t.Fatalf("%+v: Apply = %+v, %v", opts, cm, err)
			}
			for _, op := range ops {
				replayAck(og, op)
			}
		}

		be := e.Backend()
		apply([]mutate.Op{
			{Verb: mutate.VerbSetAttr, Node: "v1", Attrs: map[string]string{"t": "1", "w": "4"}},
			{Verb: mutate.VerbSetAttr, Node: "v2", Attrs: map[string]string{"t": "2"}},
			{Verb: mutate.VerbSetAttr, Node: "v3", Attrs: map[string]string{"fresh": "yes"}},
		})
		if e.Backend() != be {
			t.Fatalf("%+v: a set_attr-only batch rebuilt the backend", opts)
		}
		check("after set_attr")

		apply([]mutate.Op{{Verb: mutate.VerbAddEdge, From: "v1", To: "v2", Color: "x"}})
		if e.Backend() == be {
			t.Fatalf("%+v: an add_edge batch kept the predecessor's backend", opts)
		}
		check("after add_edge")
	}
}

// TestApplySnapshotIsolation: a session pinned before a commit answers
// from its generation forever; a session opened after sees the new one.
func TestApplySnapshotIsolation(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := mutBase(r, 40)
	e := engine.MustNew(g, engine.Options{Workers: 2})
	reqs := mutQueries()

	before := e.RunBatch(reqs)

	s1 := e.Open(context.Background(), engine.SessionOptions{})
	if s1.Generation() != 0 {
		t.Fatalf("pre-commit session pinned gen %d", s1.Generation())
	}

	// Commit batches until some query's answer actually changes.
	changed := false
	for i := 0; i < 20 && !changed; i++ {
		if _, err := e.Apply(randOps(r, e.Graph(), i)); err != nil {
			t.Fatal(err)
		}
		after := e.RunBatch(reqs)
		for j := range reqs {
			if reqs[j].PQ != nil {
				changed = changed || !after[j].Match.Equal(before[j].Match)
			} else {
				changed = changed || pairsKey(after[j].Pairs) != pairsKey(before[j].Pairs)
			}
		}
	}
	if !changed {
		t.Fatal("no batch changed any answer; widen the op mix")
	}

	// The pinned session still answers exactly as before the commits.
	got := make([]engine.Result, len(reqs))
	go func() {
		for i := range reqs {
			s1.Submit(context.Background(), reqs[i])
		}
		s1.Close()
	}()
	for res := range s1.Results() {
		got[res.ID] = res
	}
	sameResults(t, "pinned session", got, before)

	s2 := e.Open(context.Background(), engine.SessionOptions{})
	if s2.Generation() != e.Generation() {
		t.Fatalf("post-commit session pinned gen %d, engine at %d", s2.Generation(), e.Generation())
	}
	s2.Close()
}

// TestApplyOracleEquivalence is the write path's end-to-end property:
// replaying exactly the acked ops of every committed batch into a fresh
// graph, a scan-mode engine over that graph (no candidate index, cold
// cache) must answer the fixed query set identically to the generation
// engine — for the current generation after every commit, and for old
// pinned generations after the fact.
func TestApplyOracleEquivalence(t *testing.T) {
	reqs := mutQueries()
	for seed := int64(0); seed < 3; seed++ {
		r := rand.New(rand.NewSource(7000 + seed))
		n := 30 + r.Intn(30)
		g := mutBase(rand.New(rand.NewSource(7000+seed)), n) // rebuildable base
		e := engine.MustNew(g, engine.Options{Workers: 4})

		var ackedBatches [][]mutate.Op
		type pinned struct {
			s   *engine.Session
			gen uint64
		}
		var pins []pinned

		oracleAt := func(upTo int) *graph.Graph {
			og := mutBase(rand.New(rand.NewSource(7000+seed)), n)
			for _, batch := range ackedBatches[:upTo] {
				for _, op := range batch {
					replayAck(og, op)
				}
			}
			return og
		}

		for gen := 0; gen < 10; gen++ {
			ops := randOps(r, e.Graph(), gen)
			cm, err := e.Apply(ops)
			if err != nil {
				t.Fatal(err)
			}
			okByID := map[uint64]bool{}
			for _, a := range cm.Acks {
				if a.Err == "" {
					okByID[a.ID] = true
				}
			}
			var acked []mutate.Op
			for i := range ops {
				id := uint64(i)
				if ops[i].ID != nil {
					id = *ops[i].ID
				}
				if okByID[id] {
					acked = append(acked, ops[i])
				}
			}
			if len(acked) != cm.Applied {
				t.Fatalf("seed %d gen %d: %d acked ops vs Applied=%d", seed, gen, len(acked), cm.Applied)
			}
			if cm.Applied > 0 {
				// Only committed batches advance the generation, so the
				// batch list indexes by generation number.
				ackedBatches = append(ackedBatches, acked)
			}
			if uint64(len(ackedBatches)) != e.Generation() {
				t.Fatalf("seed %d gen %d: %d committed batches vs generation %d",
					seed, gen, len(ackedBatches), e.Generation())
			}

			// Current generation vs oracle replay.
			oe := engine.MustNew(oracleAt(len(ackedBatches)), engine.Options{
				Workers: 2, DisableCandidateIndex: true,
			})
			sameResults(t, fmt.Sprintf("seed %d gen %d", seed, gen),
				e.RunBatch(reqs), oe.RunBatch(reqs))

			if gen%3 == 0 {
				pins = append(pins, pinned{e.Open(context.Background(), engine.SessionOptions{}), e.Generation()})
			}
		}

		// Every pinned session must still answer its own generation.
		for _, p := range pins {
			oe := engine.MustNew(oracleAt(int(p.gen)), engine.Options{
				Workers: 2, DisableCandidateIndex: true,
			})
			want := oe.RunBatch(reqs)
			got := make([]engine.Result, len(reqs))
			s := p.s
			go func() {
				for i := range reqs {
					s.Submit(context.Background(), reqs[i])
				}
				s.Close()
			}()
			for res := range s.Results() {
				got[res.ID] = res
			}
			sameResults(t, fmt.Sprintf("seed %d pinned gen %d", seed, p.gen), got, want)
		}
	}
}

// TestMutateQueryInterleaving runs a writer committing random batches
// against readers continuously opening pinned sessions — under -race
// this is the memory-model check for the COW publish protocol. Each
// reader asserts snapshot stability: the same query twice in one
// session yields the same answer, whatever the writer does meanwhile.
func TestMutateQueryInterleaving(t *testing.T) {
	baseline := runtime.NumGoroutine()
	r := rand.New(rand.NewSource(3))
	g := mutBase(r, 50)
	e := engine.MustNew(g, engine.Options{Workers: 4})
	reqs := mutQueries()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		wr := rand.New(rand.NewSource(4))
		for gen := 0; ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.Apply(randOps(wr, e.Graph(), gen)); err != nil {
				t.Errorf("apply: %v", err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) { // readers
			defer wg.Done()
			for it := 0; it < 15; it++ {
				first := e.RunBatch(reqs) // one pinned session per call
				_ = first
				s := e.Open(context.Background(), engine.SessionOptions{})
				got := make([]engine.Result, 2*len(reqs))
				go func() {
					for rep := 0; rep < 2; rep++ {
						for i := range reqs {
							s.Submit(context.Background(), reqs[i])
						}
					}
					s.Close()
				}()
				for res := range s.Results() {
					got[res.ID] = res
				}
				sameResults(t, fmt.Sprintf("reader %d it %d", w, it),
					got[len(reqs):], got[:len(reqs)])
			}
		}(w)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	// No leaked workers: sessions and the writer are all gone.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		t.Fatalf("goroutine leak: %d now, %d at start", n, baseline)
	}
}

// TestStandingQuery: a subscriber receives exactly the commits that
// change its answer, each update's Result matching a fresh JoinMatch of
// that generation and its Added/Removed diff reconstructing it.
func TestStandingQuery(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := mutBase(r, 35)
	e := engine.MustNew(g, engine.Options{Workers: 2})

	q := pattern.New()
	a := q.AddNode("A", predicate.MustParse("t = 1"))
	b := q.AddNode("B", predicate.MustParse("t = 2"))
	q.AddEdge(a, b, rex.MustParse("x{2}"))

	st, err := e.Subscribe(q, 64)
	if err != nil {
		t.Fatal(err)
	}
	gen0, res0 := st.Init()
	if gen0 != 0 {
		t.Fatalf("init gen = %d", gen0)
	}
	if !res0.Equal(pattern.JoinMatch(g, q, pattern.Options{})) {
		t.Fatal("init snapshot differs from fresh JoinMatch")
	}

	prev := res0
	for gen := 0; gen < 25; gen++ {
		cm, err := e.Apply(randOps(r, e.Graph(), gen))
		if err != nil {
			t.Fatal(err)
		}
		fresh := pattern.JoinMatch(e.Graph(), q, pattern.Options{})
		select {
		case upd := <-st.Updates():
			if upd.Gen != cm.Gen {
				t.Fatalf("gen %d: update tagged gen %d, commit was %d", gen, upd.Gen, cm.Gen)
			}
			if !upd.Result.Equal(fresh) {
				t.Fatalf("gen %d: standing answer != fresh JoinMatch", gen)
			}
			// prev + added - removed must equal the new answer, per edge.
			for ei := 0; ei < q.NumEdges(); ei++ {
				set := map[reach.Pair]bool{}
				for _, p := range prev.EdgePairs(ei) {
					set[p] = true
				}
				for _, p := range upd.Removed[ei] {
					if !set[p] {
						t.Fatalf("gen %d edge %d: removed pair %v was not in prev", gen, ei, p)
					}
					delete(set, p)
				}
				for _, p := range upd.Added[ei] {
					if set[p] {
						t.Fatalf("gen %d edge %d: added pair %v already present", gen, ei, p)
					}
					set[p] = true
				}
				want := map[reach.Pair]bool{}
				for _, p := range fresh.EdgePairs(ei) {
					want[p] = true
				}
				if len(set) != len(want) {
					t.Fatalf("gen %d edge %d: diff reconstructs %d pairs, want %d", gen, ei, len(set), len(want))
				}
				for p := range want {
					if !set[p] {
						t.Fatalf("gen %d edge %d: diff missing pair %v", gen, ei, p)
					}
				}
			}
			prev = upd.Result
		default:
			if !fresh.Equal(prev) {
				t.Fatalf("gen %d: answer changed but no update was pushed", gen)
			}
		}
	}
	st.Close()
	if _, ok := <-st.Updates(); ok {
		t.Fatal("Updates open after Close")
	}
	st.Close() // idempotent

	// A subscriber that stops draining is closed as lagged, and the
	// write path keeps going.
	st2, err := e.Subscribe(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := e.Apply(randOps(r, e.Graph(), 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Drain what was buffered; the channel must be closed by now (60
	// answer-perturbing batches against a buffer of one, undrained).
	deadline := time.After(time.Second)
	for {
		select {
		case _, ok := <-st2.Updates():
			if !ok {
				if !st2.Lagged() {
					t.Fatal("closed subscription not marked lagged")
				}
				return
			}
		case <-deadline:
			t.Fatal("lagged subscription never closed")
		}
	}
}
