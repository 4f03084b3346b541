// Package graph implements the paper's data graphs: directed graphs whose
// nodes carry attribute tuples (the function f_A of Section 2) and whose
// edges carry a color from a finite alphabet of edge types (the function
// f_C). It also provides the substrate the query evaluation algorithms
// traverse: one immutable compressed-sparse-row adjacency per color layer
// and direction (Layer), and Tarjan's strongly connected components.
//
// Colors are interned to small integers; all per-color operations take a
// ColorID. The special AnyColor stands for the wildcard "_" (a path via
// edges of arbitrary colors).
package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// NodeID identifies a node; IDs are dense, starting at 0.
type NodeID int

// ColorID identifies an interned edge color.
type ColorID int

// AnyColor is the ColorID of the wildcard: it matches every edge color.
const AnyColor ColorID = -1

// Edge is one directed, colored edge endpoint as seen from a node's
// adjacency list.
type Edge struct {
	To    NodeID
	Color ColorID
}

// Node is a data-graph node: a stable name plus an attribute tuple.
type Node struct {
	Name  string
	Attrs map[string]string
}

// Graph is a directed graph with typed edges and attributed nodes. The
// zero value is not usable; create graphs with New.
type Graph struct {
	nodes    []Node
	byName   map[string]NodeID
	colors   []string
	colorIdx map[string]ColorID
	out      [][]Edge
	in       [][]Edge
	numEdges int

	// csr holds the per-color CSR layers of the current adjacency, or nil
	// until a reader builds them (see layers). Ops that change adjacency
	// drop it; a derived generation starts out sharing its base's.
	csr atomic.Pointer[layers]

	// epoch counts mutations (node/edge/color additions and removals).
	// Derived read-side structures — the candidate inverted index and
	// the engine's predicate→candidates memo (internal/candidx) — record
	// the epoch they were built at and rebuild when it moves, so a
	// mutate-then-query sequence can never observe stale answers.
	// Atomic so concurrent readers of an un-mutated graph stay race-free;
	// mutations themselves still require external exclusion.
	epoch atomic.Uint64

	// Copy-on-write generation support (see cow.go). cow is non-nil
	// between Derive and Seal and records which backing arrays are
	// private to this generation; sealed turns further mutation into a
	// panic once a successor generation has been published.
	cow    *cowState
	sealed bool
}

// Epoch returns the graph's mutation counter. Any mutation (AddNode,
// AddEdge, RemoveEdge, interning a new color) bumps it; equality of two
// observations brackets a mutation-free window, which is what
// epoch-validated caches key on.
func (g *Graph) Epoch() uint64 { return g.epoch.Load() }

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		byName:   map[string]NodeID{},
		colorIdx: map[string]ColorID{},
	}
}

// AddNode adds a node with the given unique name and attributes and
// returns its ID. Adding a duplicate name returns the existing node's ID
// with attributes left unchanged.
func (g *Graph) AddNode(name string, attrs map[string]string) NodeID {
	if id, ok := g.byName[name]; ok {
		return id
	}
	g.checkMutable()
	g.csr.Store(nil)
	if g.cow != nil {
		return g.cowAddNode(name, attrs)
	}
	id := NodeID(len(g.nodes))
	if attrs == nil {
		attrs = map[string]string{}
	}
	g.nodes = append(g.nodes, Node{Name: name, Attrs: attrs})
	g.byName[name] = id
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.epoch.Add(1)
	return id
}

// InternColor returns the ColorID for a color name, creating it if new.
// The wildcard "_" always maps to AnyColor.
func (g *Graph) InternColor(color string) ColorID {
	if color == "_" {
		return AnyColor
	}
	if id, ok := g.colorIdx[color]; ok {
		return id
	}
	g.checkMutable()
	g.csr.Store(nil)
	if g.cow != nil {
		g.cowColors()
	}
	id := ColorID(len(g.colors))
	g.colors = append(g.colors, color)
	g.colorIdx[color] = id
	g.epoch.Add(1)
	return id
}

// ColorID looks up an existing color without interning it. The wildcard
// returns (AnyColor, true).
func (g *Graph) ColorID(color string) (ColorID, bool) {
	if color == "_" {
		return AnyColor, true
	}
	id, ok := g.colorIdx[color]
	return id, ok
}

// ColorName returns the name of a color; AnyColor renders as "_".
func (g *Graph) ColorName(c ColorID) string {
	if c == AnyColor {
		return "_"
	}
	return g.colors[c]
}

// Colors returns the interned color names in ID order.
func (g *Graph) Colors() []string { return g.colors }

// NumColors returns the number of distinct edge colors (m in the paper's
// complexity bounds).
func (g *Graph) NumColors() int { return len(g.colors) }

// AddEdge adds a directed edge with the given color. It panics on invalid
// node IDs (a programming error, not a data error).
func (g *Graph) AddEdge(from, to NodeID, color string) {
	if int(from) >= len(g.nodes) || int(to) >= len(g.nodes) || from < 0 || to < 0 {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) out of range (n=%d)", from, to, len(g.nodes)))
	}
	g.checkMutable()
	c := g.InternColor(color)
	if c == AnyColor {
		panic("graph: the wildcard \"_\" is not a valid concrete edge color")
	}
	g.csr.Store(nil)
	if g.cow != nil {
		g.cowOut(from)
		g.cowIn(to)
	}
	g.out[from] = append(g.out[from], Edge{To: to, Color: c})
	g.in[to] = append(g.in[to], Edge{To: from, Color: c})
	g.numEdges++
	g.epoch.Add(1)
}

// RemoveEdge removes one edge from `from` to `to` with the given color,
// reporting whether such an edge existed. Used by the incremental
// evaluation engine; the CSR layers are rebuilt on the next read.
func (g *Graph) RemoveEdge(from, to NodeID, color string) bool {
	c, ok := g.colorIdx[color]
	if !ok {
		return false
	}
	idx := -1
	for i, e := range g.out[from] {
		if e.To == to && e.Color == c {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	g.checkMutable()
	g.csr.Store(nil)
	if g.cow != nil {
		g.cowOut(from)
		g.cowIn(to)
	}
	g.out[from] = append(g.out[from][:idx], g.out[from][idx+1:]...)
	for i, e := range g.in[to] {
		if e.To == from && e.Color == c {
			g.in[to] = append(g.in[to][:i], g.in[to][i+1:]...)
			break
		}
	}
	g.numEdges--
	g.epoch.Add(1)
	return true
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.numEdges }

// Node returns the node record for an ID.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Attrs returns a node's attribute tuple.
func (g *Graph) Attrs(id NodeID) map[string]string { return g.nodes[id].Attrs }

// NodeByName returns the ID of the named node.
func (g *Graph) NodeByName(name string) (NodeID, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// Out returns the outgoing adjacency of a node (edges point to
// successors). The slice must not be modified.
func (g *Graph) Out(id NodeID) []Edge { return g.out[id] }

// In returns the incoming adjacency of a node (Edge.To holds the
// predecessor). The slice must not be modified.
func (g *Graph) In(id NodeID) []Edge { return g.in[id] }

// Layer is one color layer of the adjacency in one direction, in
// compressed sparse row form: node v's neighbors over the layer are
// to[off[v]:off[v+1]], in the order Out (forward) or In (reverse) lists
// them. A Layer is immutable: a mutation of the graph drops its layers
// and the next read builds new ones, so a Layer read before the mutation
// keeps describing the graph as it was.
type Layer struct {
	off []int32 // |V|+1 row offsets into to
	to  []int32 // one neighbor per edge of the layer
}

// Row returns v's neighbors over the layer. The slice must not be
// modified.
func (l Layer) Row(v NodeID) []int32 { return l.to[l.off[v]:l.off[v+1]] }

// layers is the CSR of one adjacency state: per color, then the
// wildcard, the forward and the reverse layer. The layers' statistics
// (see Stats) sit beside them in the same order, each built once: the
// color layers' by BuildColorIndex or the first Stats call, the
// wildcard's by the first Stats call that asks for it.
type layers struct {
	fwd, rev []Layer

	colorOnce, anyOnce sync.Once
	fwdStats, revStats []LayerStats
}

// Layer returns the adjacency over edges of color c (every edge for
// AnyColor): successors when forward, predecessors otherwise. It
// allocates nothing once the graph's layers are built; the first read
// after a mutation builds them for every color at once, in
// O(m·|V| + |E|). Concurrent first readers of a graph nobody mutates
// may each build and store them; the builds are identical, so that
// wastes work but returns the same rows to every reader.
func (g *Graph) Layer(c ColorID, forward bool) Layer {
	ls := g.layers()
	i := int(c)
	if c == AnyColor {
		i = len(ls.fwd) - 1
	}
	if forward {
		return ls.fwd[i]
	}
	return ls.rev[i]
}

// BuildColorIndex eagerly builds the graph's CSR layers and the color
// layers' statistics, so that every later Layer call is a plain read and
// Stats of a color layer builds nothing. internal/engine calls it on
// every generation before publishing it. Idempotent; any later mutation
// of adjacency drops the layers and their statistics again.
func (g *Graph) BuildColorIndex() { g.layers().colorStats() }

func (g *Graph) layers() *layers {
	if ls := g.csr.Load(); ls != nil {
		return ls
	}
	if g.numEdges > math.MaxInt32 || len(g.nodes) > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d nodes and %d edges exceed the CSR's int32 range", len(g.nodes), g.numEdges))
	}
	m := len(g.colors)
	ls := &layers{
		fwd: buildLayers(g.out, m), rev: buildLayers(g.in, m),
		fwdStats: make([]LayerStats, m+1), revStats: make([]LayerStats, m+1),
	}
	g.csr.Store(ls)
	return ls
}

// buildLayers lays out one direction's adjacency lists as m color layers
// plus the wildcard layer last, each row in adjacency-list order.
func buildLayers(adj [][]Edge, m int) []Layer {
	size := make([]int, m+1)
	for _, es := range adj {
		for _, e := range es {
			size[e.Color]++
		}
		size[m] += len(es)
	}
	ls := make([]Layer, m+1)
	for c := range ls {
		ls[c] = Layer{off: make([]int32, 1, len(adj)+1), to: make([]int32, 0, size[c])}
	}
	for _, es := range adj {
		for _, e := range es {
			ls[e.Color].to = append(ls[e.Color].to, int32(e.To))
			ls[m].to = append(ls[m].to, int32(e.To))
		}
		for c := range ls {
			ls[c].off = append(ls[c].off, int32(len(ls[c].to)))
		}
	}
	return ls
}

// Unreachable is the distance of a node pair with no path between them.
const Unreachable = int32(-1)

// ---- strongly connected components --------------------------------------

// SCC computes the strongly connected components of an arbitrary directed
// graph given as a successor function, using Tarjan's algorithm
// (iterative). Components are returned in reverse topological order of the
// condensation (every edge goes from a later component to an earlier one),
// which is exactly the order JoinMatch processes them in.
func SCC(n int, succ func(int) []int) [][]int {
	const undef = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = undef
	}
	var (
		counter int
		stack   []int
		comps   [][]int
	)
	type frame struct {
		v, i int
	}
	for root := 0; root < n; root++ {
		if index[root] != undef {
			continue
		}
		frames := []frame{{root, 0}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			ss := succ(f.v)
			if f.i < len(ss) {
				w := ss[f.i]
				f.i++
				if index[w] == undef {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] {
					if index[w] < low[f.v] {
						low[f.v] = index[w]
					}
				}
				continue
			}
			// Post-visit.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// ---- import/export -------------------------------------------------------

// WriteTSV serializes the graph in a simple line format:
//
//	node <name> [attr=value]...
//	edge <from> <to> <color>
//
// Attribute values with spaces are written with %q quoting.
func (g *Graph) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for id, n := range g.nodes {
		fmt.Fprintf(bw, "node\t%s", n.Name)
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v := n.Attrs[k]
			if strings.ContainsAny(v, " \t") {
				fmt.Fprintf(bw, "\t%s=%q", k, v)
			} else {
				fmt.Fprintf(bw, "\t%s=%s", k, v)
			}
		}
		fmt.Fprintln(bw)
		_ = id
	}
	for v := range g.nodes {
		for _, e := range g.out[v] {
			fmt.Fprintf(bw, "edge\t%s\t%s\t%s\n", g.nodes[v].Name, g.nodes[e.To].Name, g.colors[e.Color])
		}
	}
	return bw.Flush()
}

// ReadTSV parses the format written by WriteTSV.
func ReadTSV(r io.Reader) (*Graph, error) {
	g := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		switch fields[0] {
		case "node":
			if len(fields) < 2 {
				return nil, fmt.Errorf("graph: line %d: node needs a name", lineNo)
			}
			attrs := map[string]string{}
			for _, f := range fields[2:] {
				eq := strings.IndexByte(f, '=')
				if eq < 0 {
					return nil, fmt.Errorf("graph: line %d: bad attribute %q", lineNo, f)
				}
				k, v := f[:eq], f[eq+1:]
				if len(v) >= 2 && v[0] == '"' {
					unq := v[1 : len(v)-1]
					v = unq
				}
				attrs[k] = v
			}
			g.AddNode(fields[1], attrs)
		case "edge":
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: edge needs from, to, color", lineNo)
			}
			from, ok := g.NodeByName(fields[1])
			if !ok {
				return nil, fmt.Errorf("graph: line %d: unknown node %q", lineNo, fields[1])
			}
			to, ok := g.NodeByName(fields[2])
			if !ok {
				return nil, fmt.Errorf("graph: line %d: unknown node %q", lineNo, fields[2])
			}
			g.AddEdge(from, to, fields[3])
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}
