package engine

import (
	"context"
	"fmt"
	"sort"

	"regraph/internal/candidx"
	"regraph/internal/dist"
	"regraph/internal/graph"
	"regraph/internal/mutate"
	"regraph/internal/pattern"
	"regraph/internal/reach"
	"regraph/internal/reachidx"
)

// Commit reports one Apply batch: a per-op ack slice in op order, the
// generation the batch committed as, and the graph size after it. When
// every op failed, nothing was published and Gen is the unchanged
// current generation.
type Commit struct {
	Acks    []mutate.Ack
	Gen     uint64
	Applied int
	Failed  int
	Nodes   int
	Edges   int
}

// Apply commits one mutation batch as a new generation. It is the
// single-writer half of the engine's snapshot isolation:
//
//   - The batch is applied to a copy-on-write Derive of the current
//     graph; readers of the current (and any older) generation never
//     observe an intermediate state.
//   - Each op either applies or fails individually — name-resolution
//     failures (unknown node, duplicate node, missing edge) make a
//     per-op error ack, not a batch abort. A batch whose ops all fail
//     publishes nothing.
//   - The attribute inverted index of the new generation is derived
//     incrementally from the current one (candidx.WithChanges) and the
//     predicate memo carries over every entry the batch provably could
//     not affect (candidx.NextGen); the graph's CSR layers and the
//     distance backend are rebuilt for the new graph (the same kind New
//     selected), unless the batch only set attributes: then both carry
//     over from the current generation.
//   - The new genState is published with one atomic store, the old
//     graph is sealed (a debug tripwire: stray writes to a superseded
//     generation panic instead of corrupting shared arrays), and every
//     standing query is advanced with the batch's pattern.Delta.
//
// Sessions opened before the commit keep answering from their pinned
// generation; sessions opened after it see the new one. Apply calls
// serialize; concurrent Apply is safe but not faster.
func (e *Engine) Apply(ops []mutate.Op) (Commit, error) {
	return e.apply(ops, true)
}

// apply is Apply with the backend rebuild optional. Recover replays with
// rebuild off: the generations it publishes have no reader, so their
// layers are left unbuilt and their backends nil, and one backend is
// built for the final generation instead of one per replayed batch.
func (e *Engine) apply(ops []mutate.Op, rebuild bool) (Commit, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()

	base := e.cur.Load()
	cm := Commit{Gen: base.gen, Nodes: base.g.NumNodes(), Edges: base.g.NumEdges()}
	if len(ops) == 0 {
		return cm, nil
	}
	ng := base.g.Derive()
	gen := base.gen + 1
	baseN := graph.NodeID(base.g.NumNodes())

	var chs []candidx.AttrChange
	var delta pattern.Delta
	touched := map[string]bool{}
	attrChanged := map[graph.NodeID]bool{}
	nodesAdded := false

	for i := range ops {
		op := &ops[i]
		id := uint64(i)
		if op.ID != nil {
			id = *op.ID
		}
		fail := func(err error) {
			cm.Acks = append(cm.Acks, mutate.Ack{ID: id, Verb: op.Verb, Err: err.Error()})
			cm.Failed++
		}
		if err := op.Validate(); err != nil {
			fail(err)
			continue
		}
		switch op.Verb {
		case mutate.VerbAddNode:
			if _, ok := ng.NodeByName(op.Node); ok {
				fail(fmt.Errorf("mutate: node %q already exists", op.Node))
				continue
			}
			v := ng.AddNode(op.Node, op.Attrs)
			nodesAdded = true
			delta.AddedNodes = append(delta.AddedNodes, v)
			for k, val := range op.Attrs {
				chs = append(chs, candidx.AttrChange{Node: v, Attr: k, New: val, HasNew: true})
				touched[k] = true
			}
		case mutate.VerbSetAttr:
			v, ok := ng.NodeByName(op.Node)
			if !ok {
				fail(fmt.Errorf("mutate: unknown node %q", op.Node))
				continue
			}
			for k, val := range op.Attrs {
				old, hasOld := ng.Attrs(v)[k]
				if hasOld && old == val {
					continue
				}
				chs = append(chs, candidx.AttrChange{
					Node: v, Attr: k, Old: old, New: val, HasOld: hasOld, HasNew: true,
				})
				touched[k] = true
				ng.SetAttr(v, k, val)
				if v < baseN {
					attrChanged[v] = true
				}
			}
		case mutate.VerbAddEdge:
			from, ok1 := ng.NodeByName(op.From)
			to, ok2 := ng.NodeByName(op.To)
			if !ok1 || !ok2 {
				fail(fmt.Errorf("mutate: unknown node %q", pick(op.From, op.To, ok1)))
				continue
			}
			ng.AddEdge(from, to, op.Color)
			c, _ := ng.ColorID(op.Color)
			delta.AddedEdges = append(delta.AddedEdges, pattern.DeltaEdge{From: from, To: to, Color: c})
		case mutate.VerbRemoveEdge:
			from, ok1 := ng.NodeByName(op.From)
			to, ok2 := ng.NodeByName(op.To)
			if !ok1 || !ok2 {
				fail(fmt.Errorf("mutate: unknown node %q", pick(op.From, op.To, ok1)))
				continue
			}
			c, ok := ng.ColorID(op.Color)
			if !ok || !ng.RemoveEdge(from, to, op.Color) {
				fail(fmt.Errorf("mutate: no %s edge %s -> %s", op.Color, op.From, op.To))
				continue
			}
			delta.RemovedEdges = append(delta.RemovedEdges, pattern.DeltaEdge{From: from, To: to, Color: c})
		}
		cm.Acks = append(cm.Acks, mutate.Ack{ID: id, Verb: op.Verb, Gen: gen})
		cm.Applied++
	}
	if cm.Applied == 0 {
		// Nothing stuck: the derived graph is discarded unpublished.
		return cm, nil
	}
	for v := range attrChanged {
		delta.AttrChanged = append(delta.AttrChanged, v)
	}

	ns := &genState{gen: gen, g: ng}
	switch {
	case !nodesAdded && len(delta.AddedEdges) == 0 && len(delta.RemovedEdges) == 0:
		// Attribute-only batch: ng still shares base's CSR layers (see
		// graph.Derive), and the backend and its filter read nothing but
		// adjacency and |V|, so the predecessor's backend serves ng as is.
		ns.be = base.be
	case rebuild:
		ns.be = e.buildBackend(ng)
	}
	if base.cands != nil {
		// Incremental index maintenance: clone only the touched posting
		// columns, then carry over every memo entry whose predicate the
		// batch cannot have affected.
		idx := base.cands.Index().WithChanges(ng, chs)
		ns.cands = base.cands.NextGen(ng, idx, touched, nodesAdded)
	}
	if e.wal != nil {
		// Append-then-commit: the whole submitted batch (failed ops
		// included — replaying it re-fails them identically) must be on
		// the log before the generation becomes visible. An append error
		// fails the batch with nothing published, so the log never lags
		// the engine.
		if err := e.wal.Append(gen, ops); err != nil {
			return Commit{}, fmt.Errorf("engine: wal: %w", err)
		}
	}
	e.cur.Store(ns)
	base.g.Seal()
	cm.Gen = gen
	cm.Nodes = ng.NumNodes()
	cm.Edges = ng.NumEdges()
	e.notifyStandings(ns, delta)
	return cm, nil
}

// pick names the first unresolved node of an edge op.
func pick(from, to string, fromOK bool) string {
	if !fromOK {
		return from
	}
	return to
}

// buildBackend builds g's CSR layers, which the backend reads, and
// then g's distance backend of the engine's kind: New calls it for
// generation 0, Apply for every committed batch that changes adjacency,
// Recover once for the generation it ends at. The matrix and 2-hop
// labels are full rebuilds (they are closed-form indexes over the whole
// graph); the cache restarts cold at its configured capacity and
// re-fills from queries, exactly as the paper's shared cache is
// populated. A GRAIL filter requested via ReachFilterK is rebuilt and
// installed. The first build resolves "auto" to the kind every later
// build repeats; it runs before the engine has a reader.
func (e *Engine) buildBackend(g *graph.Graph) dist.Backend {
	g.BuildColorIndex()
	var be dist.Backend
	switch e.kind {
	case "matrix":
		be = dist.NewMatrix(g)
	case "twohop":
		be = dist.NewTwoHop(g)
	case "cache":
		be = dist.NewCache(g, e.cacheSize)
	case "auto":
		if dist.PredictMatrixBytes(g) <= e.budget {
			be, e.kind = dist.NewMatrix(g), "matrix"
		} else if th, err := dist.NewTwoHopBudget(context.Background(), g, e.budget); err == nil {
			be, e.kind = th, "twohop"
		} else {
			// Labels blew the budget too: the O(capacity) cache is the
			// only backend whose footprint does not depend on the graph.
			be, e.kind = dist.NewCache(g, e.cacheSize), "cache"
		}
	}
	if fb, ok := be.(filterable); ok && e.filterK > 0 {
		fb.SetFilter(reachidx.Build(g, e.filterK))
	}
	return be
}

// ---- standing queries -----------------------------------------------------

// StandingUpdate is one delta answer pushed to a standing query's
// subscriber after a committed batch changed its answer. Result is the
// full answer at Gen; Added/Removed list, per pattern edge, exactly the
// pairs that entered and left the answer relative to the previous
// update (or the subscription snapshot).
type StandingUpdate struct {
	Gen     uint64
	Result  *pattern.Result
	Added   [][]reach.Pair
	Removed [][]reach.Pair
}

// Standing is a registered standing pattern query: the engine maintains
// its answer incrementally across committed generations
// (pattern.Incremental) and pushes a StandingUpdate for every batch
// that changes it. Updates delivery is non-blocking on the apply loop:
// a subscriber that stops draining its channel is marked lagged and its
// channel closed — re-subscribe for a fresh snapshot.
type Standing struct {
	e       *Engine
	q       *pattern.Query
	inc     *pattern.Incremental
	prev    [][]reach.Pair
	ch      chan StandingUpdate
	initGen uint64
	initRes *pattern.Result
	lagged  bool
}

// Subscribe registers q as a standing query against the current
// generation. buf sizes the update channel (how many commits a consumer
// may fall behind before it is declared lagged); zero or negative means
// 16. The registration snapshot — the answer updates are deltas against
// — is available via Init.
func (e *Engine) Subscribe(q *pattern.Query, buf int) (*Standing, error) {
	if buf <= 0 {
		buf = 16
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	cur := e.cur.Load()
	inc, err := pattern.NewIncremental(cur.g, q)
	if err != nil {
		return nil, err
	}
	res := inc.Result()
	st := &Standing{
		e:       e,
		q:       q,
		inc:     inc,
		prev:    sortedSets(res, q.NumEdges()),
		ch:      make(chan StandingUpdate, buf),
		initGen: cur.gen,
		initRes: res,
	}
	e.subs[st] = struct{}{}
	return st, nil
}

// Init returns the subscription snapshot: the generation the standing
// query registered against and its full answer there. The first
// StandingUpdate is a delta against this answer.
func (st *Standing) Init() (uint64, *pattern.Result) { return st.initGen, st.initRes }

// Query returns the registered pattern.
func (st *Standing) Query() *pattern.Query { return st.q }

// Updates is the stream of delta answers. It closes after Close, or
// when the subscriber lagged (see Lagged).
func (st *Standing) Updates() <-chan StandingUpdate { return st.ch }

// Lagged reports whether the engine closed the subscription because the
// consumer fell more than the channel buffer behind the commit stream.
// Meaningful once Updates is closed.
func (st *Standing) Lagged() bool { return st.lagged }

// Close unregisters the standing query and closes Updates. Safe to call
// more than once and after a lagged close.
func (st *Standing) Close() {
	st.e.writeMu.Lock()
	defer st.e.writeMu.Unlock()
	if _, ok := st.e.subs[st]; ok {
		delete(st.e.subs, st)
		close(st.ch)
	}
}

// notifyStandings advances every standing query past one committed
// batch and pushes delta answers to those whose answer changed. Runs
// under writeMu, on the Apply caller's goroutine.
func (e *Engine) notifyStandings(ns *genState, d pattern.Delta) {
	for st := range e.subs {
		if !st.inc.ApplyCommitted(ns.g, d) {
			continue // provably unaffected, answer unchanged
		}
		res := st.inc.Result()
		next := sortedSets(res, st.q.NumEdges())
		added, removed, any := diffSets(st.prev, next)
		if !any {
			continue // recomputed to the identical answer
		}
		st.prev = next
		select {
		case st.ch <- StandingUpdate{Gen: ns.gen, Result: res, Added: added, Removed: removed}:
		default:
			// The consumer is buf commits behind: closing beats blocking
			// the write path or buffering unboundedly.
			st.lagged = true
			close(st.ch)
			delete(e.subs, st)
		}
	}
}

// sortedSets copies a result's per-edge pair sets in (From,To) order,
// with an empty answer normalized to nEdges empty sets so diffs line up.
func sortedSets(r *pattern.Result, nEdges int) [][]reach.Pair {
	out := make([][]reach.Pair, nEdges)
	for i := 0; i < nEdges; i++ {
		ps := append([]reach.Pair(nil), r.EdgePairs(i)...)
		sort.Slice(ps, func(a, b int) bool {
			if ps[a].From != ps[b].From {
				return ps[a].From < ps[b].From
			}
			return ps[a].To < ps[b].To
		})
		out[i] = ps
	}
	return out
}

// diffSets computes per-edge added/removed pairs between two sorted set
// lists of equal length; any reports whether any edge differs.
func diffSets(prev, next [][]reach.Pair) (added, removed [][]reach.Pair, any bool) {
	added = make([][]reach.Pair, len(next))
	removed = make([][]reach.Pair, len(next))
	for i := range next {
		a, b := prev[i], next[i]
		var j, k int
		for j < len(a) && k < len(b) {
			switch {
			case a[j] == b[k]:
				j++
				k++
			case a[j].From < b[k].From || (a[j].From == b[k].From && a[j].To < b[k].To):
				removed[i] = append(removed[i], a[j])
				j++
			default:
				added[i] = append(added[i], b[k])
				k++
			}
		}
		removed[i] = append(removed[i], a[j:]...)
		added[i] = append(added[i], b[k:]...)
		if len(added[i]) > 0 || len(removed[i]) > 0 {
			any = true
		}
	}
	return added, removed, any
}
