package candidx

import (
	"sync"
	"sync/atomic"

	"regraph/internal/graph"
	"regraph/internal/predicate"
)

// memoMaxEntries bounds the predicate→candidates map. Batch workloads
// draw from a small predicate vocabulary, so the bound is generous; on
// overflow the whole map is dropped (no LRU bookkeeping on the hot
// read path) and repopulated by demand.
const memoMaxEntries = 4096

// Memo is an epoch-validated predicate→candidates cache over one graph:
// the first lookup of a predicate answers through the inverted Index,
// every repeat is a map hit, and any graph mutation (observed through
// graph.Epoch) atomically retires both the cache and the index before
// the next answer. internal/engine shares one Memo across its whole
// worker pool; Memo is safe for concurrent use.
//
// Returned slices are shared: callers must treat them as read-only.
//
// Mutating the graph concurrently with lookups is as undefined as any
// unsynchronized graph access; the epoch check guarantees freshness for
// the supported pattern — mutate (under exclusion), then query.
type Memo struct {
	g *graph.Graph

	mu    sync.RWMutex
	idx   *Index
	cache map[string]memoEntry

	hits, misses atomic.Uint64
}

// memoEntry is one cached answer plus the facts NextGen needs to decide
// whether a committed mutation batch could have changed it: the
// predicate's attribute names, and whether the predicate is the trivial
// always-true one (whose answer is every node, so it depends only on the
// node count).
type memoEntry struct {
	cands  []graph.NodeID
	attrs  []string
	isTrue bool
}

// NewMemo builds a memo over g, constructing the inverted index for the
// graph's current state eagerly (engine.New calls this once so the
// build cost is paid at startup, not mid-batch).
func NewMemo(g *graph.Graph) *Memo {
	m := &Memo{g: g}
	m.mu.Lock()
	m.refreshLocked()
	m.mu.Unlock()
	return m
}

// refreshLocked rebuilds the index snapshot and empties the cache; the
// caller holds mu.
func (m *Memo) refreshLocked() {
	m.idx = Build(m.g)
	m.cache = map[string]memoEntry{}
}

// Index returns the current index snapshot (rebuilding first if the
// graph moved on). Useful for direct lookups that should bypass the
// cache map.
func (m *Memo) Index() *Index {
	epoch := m.g.Epoch()
	m.mu.RLock()
	idx := m.idx
	m.mu.RUnlock()
	if idx.epoch == epoch {
		return idx
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.idx.epoch != epoch {
		m.refreshLocked()
	}
	return m.idx
}

// Candidates returns the IDs of nodes matching p on the graph's current
// epoch, ascending, bit-identical to reach.Candidates. The slice is
// shared with other callers of the same predicate — read-only.
func (m *Memo) Candidates(p predicate.Pred) []graph.NodeID {
	// The key is built on the stack and looked up as string(key), which
	// does not allocate: only a miss pays for the key string it stores.
	var buf [128]byte
	key := p.AppendKey(buf[:0])
	for {
		epoch := m.g.Epoch()
		m.mu.RLock()
		idx := m.idx
		e, ok := m.cache[string(key)]
		m.mu.RUnlock()
		if idx.epoch != epoch {
			// Stale snapshot: retire it and retry with a fresh build.
			m.mu.Lock()
			if m.idx.epoch != epoch {
				m.refreshLocked()
			}
			m.mu.Unlock()
			continue
		}
		if ok {
			m.hits.Add(1)
			return e.cands
		}
		m.misses.Add(1)
		c := idx.Candidates(p)
		if c == nil {
			c = []graph.NodeID{} // distinguish "cached empty" from a map miss
		}
		m.mu.Lock()
		// Only publish against the snapshot the answer came from.
		if m.idx == idx {
			if len(m.cache) >= memoMaxEntries {
				m.cache = map[string]memoEntry{}
			}
			m.cache[string(key)] = memoEntry{cands: c, attrs: p.Attrs(), isTrue: p.IsTrue()}
		}
		m.mu.Unlock()
		return c
	}
}

// Stats reports cache-map hits and misses (a miss still answers through
// the index, never the linear scan).
func (m *Memo) Stats() (hits, misses uint64) {
	return m.hits.Load(), m.misses.Load()
}

// NextGen derives the memo for a committed successor generation: g is
// the new (already-mutated) graph and idx its index, typically from
// Index().WithChanges. Invalidation is scoped by attribute rather than
// engine-wide: a cached answer is retired only if the batch touched one
// of its predicate's attributes, or — for the always-true predicate,
// whose answer is every node — if the batch added nodes. A pure edge
// add/remove batch (touched empty, nodesAdded false) therefore carries
// the entire cache across, which is what makes standing read traffic
// survive write churn without re-answering its predicate vocabulary.
//
// Nodes added with initial attributes are covered by the same rule: the
// apply loop records each initial attribute as a change, so any
// predicate that could match the new node has a touched attribute. A
// new node without attributes matches only the always-true predicate.
//
// The receiver is left unchanged (it keeps answering for readers pinned
// to the old generation).
func (m *Memo) NextGen(g *graph.Graph, idx *Index, touched map[string]bool, nodesAdded bool) *Memo {
	nm := &Memo{g: g, idx: idx, cache: map[string]memoEntry{}}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for k, e := range m.cache {
		if e.isTrue {
			if !nodesAdded {
				nm.cache[k] = e
			}
			continue
		}
		affected := false
		for _, a := range e.attrs {
			if touched[a] {
				affected = true
				break
			}
		}
		if !affected {
			nm.cache[k] = e
		}
	}
	return nm
}
