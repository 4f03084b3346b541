package pattern

import "regraph/internal/graph"

// Delta summarizes one committed mutation batch for a registered
// incremental query: which edges appeared and disappeared, which nodes
// are new, and which pre-existing nodes had their attribute tuple
// changed. The engine's apply loop builds one Delta per generation and
// feeds it to every registered Incremental through ApplyCommitted.
type Delta struct {
	AddedEdges   []DeltaEdge
	RemovedEdges []DeltaEdge
	AddedNodes   []graph.NodeID
	// AttrChanged lists pre-existing nodes whose attributes changed
	// (added nodes' initial attributes are covered by AddedNodes).
	AttrChanged []graph.NodeID
}

// DeltaEdge is one edge mutation, with the color resolved against the
// generation that committed it (ColorIDs are append-only, so they agree
// with the registration generation's IDs).
type DeltaEdge struct {
	From, To graph.NodeID
	Color    graph.ColorID
}

// Empty reports whether the delta carries no mutations at all.
func (d *Delta) Empty() bool {
	return len(d.AddedEdges) == 0 && len(d.RemovedEdges) == 0 &&
		len(d.AddedNodes) == 0 && len(d.AttrChanged) == 0
}

// ApplyCommitted rebases the engine onto an already-mutated successor
// generation and updates the maintained answer for the batch the
// generation committed. Unlike InsertEdge/DeleteEdge/InsertNode — the
// offline API, which performs the graph mutation itself — the mutations
// here were applied by the caller (the engine's single-writer apply
// loop, under its write lock); ng is the committed generation and d
// must describe exactly the batch that produced it.
//
// It returns false when the batch provably cannot have changed the
// answer (every mutation irrelevant to the pattern), letting the caller
// skip re-collecting and diffing; true means the answer was recomputed
// and may differ.
//
// The maintenance strategy extends the single-mutation methods to
// batches, evaluated against the final graph:
//
//   - Losses (removed relevant edges; nodes whose predicate stopped
//     holding) leave the old match sets a superset of the new greatest
//     fixpoint, so one refinement pass restores exactness.
//   - Gains (added relevant edges; nodes whose predicate newly holds,
//     including added nodes) can only matter within the dependency
//     radius of their site, so for DAG-bounded patterns the backward
//     balls of all gain sites are merged, candidates re-seeded inside
//     the union, and the same single refinement pass prunes. A batch's
//     removed edges shrink the balls (they are walked on the final
//     graph), which is sound: a status change needs witness paths in
//     the final graph.
//   - Non-DAG or unbounded patterns recompute from fresh candidates,
//     as in InsertEdge.
//
// Attribute changes are the genuinely new case against the offline API:
// a value flip can be a loss at one pattern node and a gain at another,
// so both rules above run, then refine once for the whole batch.
func (inc *Incremental) ApplyCommitted(ng *graph.Graph, d Delta) bool {
	inc.g = ng
	inc.ck.g = ng
	n := ng.NumNodes()
	for u := range inc.mats {
		inc.mats[u].grow(n)
	}
	relevantC := func(c graph.ColorID) bool {
		return inc.anyWildcard || inc.relevantColors[c]
	}
	addRel, remRel := false, false
	for _, e := range d.AddedEdges {
		if relevantC(e.Color) {
			addRel = true
			break
		}
	}
	for _, e := range d.RemovedEdges {
		if relevantC(e.Color) {
			remRel = true
			break
		}
	}
	attrAny := len(d.AttrChanged) > 0 || len(d.AddedNodes) > 0
	if !addRel && !remRel && !attrAny {
		return false
	}

	if inc.mats == nil {
		// The previous answer was empty. Shrink-only batches keep it
		// empty; anything that can grow needs a fresh evaluation.
		if !addRel && !attrAny {
			return false
		}
		inc.full()
		return true
	}

	// Attribute-driven losses are applied directly (a node whose
	// predicate fails is not a member, whatever its paths); gains are
	// collected as ball centers for the locality pass.
	nodes := make([]graph.NodeID, 0, len(d.AttrChanged)+len(d.AddedNodes))
	nodes = append(nodes, d.AttrChanged...)
	nodes = append(nodes, d.AddedNodes...)
	shrunk := false
	gainSites := map[graph.NodeID]bool{}
	for u := range inc.mats {
		pred := inc.q.Node(u).Pred
		m := &inc.mats[u]
		for _, v := range nodes {
			holds := pred.IsTrue() || pred.Eval(ng.Attrs(v))
			switch {
			case holds && !m.has[v]:
				gainSites[v] = true
			case !holds && m.has[v]:
				m.remove(v)
				shrunk = true
			}
		}
	}
	centers := make([]graph.NodeID, 0, len(gainSites)+len(d.AddedEdges))
	for v := range gainSites {
		centers = append(centers, v)
	}
	if addRel {
		for _, e := range d.AddedEdges {
			if relevantC(e.Color) {
				centers = append(centers, e.From)
			}
		}
	}

	grew := false
	if len(centers) > 0 {
		if !inc.dagBounded {
			inc.full()
			return true
		}
		region := inc.backwardBallMulti(centers)
		for u := range inc.mats {
			pred := inc.q.Node(u).Pred
			m := &inc.mats[u]
			for v := range region {
				if !region[v] || m.has[v] {
					continue
				}
				if pred.IsTrue() || pred.Eval(ng.Attrs(graph.NodeID(v))) {
					m.add(graph.NodeID(v))
					grew = true
				}
			}
		}
	}
	if !grew && !shrunk && !remRel {
		return false
	}
	inc.refine()
	return true
}

// backwardBallMulti returns the union of the backward balls of all
// centers: nodes with a path (any colors) of length at most the
// dependency radius to some center. One multi-source BFS computes the
// union exactly because every ball has the same radius — a node is in
// the union iff its distance to the nearest center is within it.
func (inc *Incremental) backwardBallMulti(centers []graph.NodeID) []bool {
	seen := make([]bool, inc.g.NumNodes())
	var frontier []graph.NodeID
	for _, src := range centers {
		if !seen[src] {
			seen[src] = true
			frontier = append(frontier, src)
		}
	}
	pred := inc.g.Layer(graph.AnyColor, false)
	for d := 0; d < inc.radius && len(frontier) > 0; d++ {
		var next []graph.NodeID
		for _, v := range frontier {
			for _, w := range pred.Row(v) {
				if !seen[w] {
					seen[w] = true
					next = append(next, graph.NodeID(w))
				}
			}
		}
		frontier = next
	}
	return seen
}
