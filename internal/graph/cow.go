// Copy-on-write generations. Derive returns a successor graph that shares
// every backing array with its base; the first mutation of any region
// (a node's adjacency list, an attribute map) clones just that region
// into the derived graph. The base is never written through shared
// storage, so readers holding the base — pinned engine sessions,
// standing queries mid-refine — observe a stable snapshot while the
// writer prepares the next generation. Once the writer publishes the
// successor it seals the base (Seal), turning any later direct mutation
// into a loud panic instead of a data race.
//
// The CSR layers are immutable, so a derived generation shares its
// base's until its first change to adjacency drops them; it builds its
// own on the next read (the engine builds them before publishing).
package graph

// cowState records, for one unpublished derived generation, which backing
// arrays are privately owned (safe to mutate in place) and which are still
// shared with the base generation. It exists only between Derive and Seal;
// a nil cowState means the graph owns all its storage (built from scratch)
// and mutates in place as before.
type cowState struct {
	nodes    bool // g.nodes header is private
	byName   bool
	colors   bool
	colorIdx bool
	out      bool // top-level out slice is private
	in       bool

	outNode map[NodeID]bool // out[v] is private
	inNode  map[NodeID]bool // in[v] is private
	attrs   map[NodeID]bool // nodes[v].Attrs is private
}

// Derive returns an unsealed copy-on-write successor of g. The successor
// initially shares all storage with g; mutations clone only what they
// touch. It shares the base's CSR layers, if built, until it first
// changes adjacency.
//
// The caller owns the concurrency contract: g may be read concurrently
// during and after Derive, but the derived graph must be mutated by one
// goroutine and published to readers with an appropriate barrier (the
// engine does both under its write lock).
func (g *Graph) Derive() *Graph {
	ng := &Graph{
		nodes:    g.nodes,
		byName:   g.byName,
		colors:   g.colors,
		colorIdx: g.colorIdx,
		out:      g.out,
		in:       g.in,
		numEdges: g.numEdges,
		cow: &cowState{
			outNode: map[NodeID]bool{},
			inNode:  map[NodeID]bool{},
			attrs:   map[NodeID]bool{},
		},
	}
	ng.csr.Store(g.csr.Load())
	ng.epoch.Store(g.epoch.Load())
	return ng
}

// Seal freezes the graph: every subsequent mutation panics. The engine
// seals a generation when it publishes the next one; pinned readers keep
// using the sealed graph, and the panic converts any stray write into a
// programming error instead of a racy corruption of shared storage. The
// copy-on-write bookkeeping is dropped — a sealed generation can still be
// Derived from (deriving needs no cow state on the base).
func (g *Graph) Seal() {
	g.sealed = true
	g.cow = nil
}

// Sealed reports whether Seal has been called.
func (g *Graph) Sealed() bool { return g.sealed }

func (g *Graph) checkMutable() {
	if g.sealed {
		panic("graph: mutation of a sealed generation")
	}
}

// ---- region cloning ------------------------------------------------------

func (g *Graph) cowNodes() {
	if !g.cow.nodes {
		g.nodes = append([]Node(nil), g.nodes...)
		g.cow.nodes = true
	}
}

// cowAttrs makes nodes[v].Attrs private. The base generation keeps the
// original map; readers of the base never see writes through the clone.
func (g *Graph) cowAttrs(v NodeID) {
	g.cowNodes()
	if g.cow.attrs[v] {
		return
	}
	old := g.nodes[v].Attrs
	m := make(map[string]string, len(old)+1)
	for k, val := range old {
		m[k] = val
	}
	g.nodes[v].Attrs = m
	g.cow.attrs[v] = true
}

func (g *Graph) cowByName() {
	if g.cow.byName {
		return
	}
	m := make(map[string]NodeID, len(g.byName)+1)
	for k, v := range g.byName {
		m[k] = v
	}
	g.byName = m
	g.cow.byName = true
}

func (g *Graph) cowOut(v NodeID) {
	if !g.cow.out {
		g.out = append([][]Edge(nil), g.out...)
		g.cow.out = true
	}
	if !g.cow.outNode[v] {
		g.out[v] = append([]Edge(nil), g.out[v]...)
		g.cow.outNode[v] = true
	}
}

func (g *Graph) cowIn(v NodeID) {
	if !g.cow.in {
		g.in = append([][]Edge(nil), g.in...)
		g.cow.in = true
	}
	if !g.cow.inNode[v] {
		g.in[v] = append([]Edge(nil), g.in[v]...)
		g.cow.inNode[v] = true
	}
}

// ---- copy-on-write mutators ----------------------------------------------

func (g *Graph) cowAddNode(name string, attrs map[string]string) NodeID {
	id := NodeID(len(g.nodes))
	if attrs == nil {
		attrs = map[string]string{}
	}
	g.cowNodes()
	g.cowByName()
	g.nodes = append(g.nodes, Node{Name: name, Attrs: attrs})
	g.cow.attrs[id] = true // fresh map, nothing shared
	g.byName[name] = id
	if !g.cow.out {
		g.out = append([][]Edge(nil), g.out...)
		g.cow.out = true
	}
	if !g.cow.in {
		g.in = append([][]Edge(nil), g.in...)
		g.cow.in = true
	}
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.cow.outNode[id] = true
	g.cow.inNode[id] = true
	g.epoch.Add(1)
	return id
}

// cowColors makes the color table and its index private.
func (g *Graph) cowColors() {
	if !g.cow.colors {
		g.colors = append([]string(nil), g.colors...)
		g.cow.colors = true
	}
	if !g.cow.colorIdx {
		m := make(map[string]ColorID, len(g.colorIdx)+1)
		for k, v := range g.colorIdx {
			m[k] = v
		}
		g.colorIdx = m
		g.cow.colorIdx = true
	}
}

// SetAttr sets (or overwrites) one attribute of an existing node. On a
// derived generation the node's attribute map is cloned first, so the
// base generation's tuple is untouched. Panics on an out-of-range ID (a
// programming error; the mutation log validates names before resolving
// them to IDs).
func (g *Graph) SetAttr(id NodeID, key, value string) {
	g.checkMutable()
	if int(id) >= len(g.nodes) || id < 0 {
		panic("graph: SetAttr out of range")
	}
	if g.cow != nil {
		g.cowAttrs(id)
	}
	g.nodes[id].Attrs[key] = value
	g.epoch.Add(1)
}
