package dist

import (
	"sync"

	"regraph/internal/graph"
)

// Filter is a sound negative reachability oracle, the hook through which
// a GRAIL-style interval index (internal/reachidx) fronts the runtime
// search: when MaybeReaches returns false, no non-empty path of that
// color exists and the bi-directional search is skipped entirely.
// Positive answers are "maybe" and fall through to the search.
type Filter interface {
	MaybeReaches(c graph.ColorID, v1, v2 graph.NodeID) bool
}

// Cache is the LRU distance cache of Section 4: single-color distance
// lookups for graphs too large to hold a Matrix. A hit is O(1); a miss
// runs the bi-directional search (BiDist) and caches the result, so
// workloads that re-ask about the same pairs — the paper's "frequently
// asked queries" — approach matrix speed at O(capacity) space.
//
// An entry holds either an exact distance or a lower bound "the
// distance exceeds k". Sat's miss search is bounded by the atom: it
// stops once no path within the bound is left to find, and stores the
// lower bound it proved. That entry answers every later Sat whose bound
// is at most k; any other ask is a miss whose result — an exact
// distance or a larger bound — replaces it. Dist and DistScratch only
// ever answer from exact entries. Hits count asks answered from an
// entry, misses count searches.
//
// Cache is safe for concurrent use.
type Cache struct {
	g *graph.Graph

	mu       sync.Mutex
	capacity int
	entries  map[cacheKey]*cacheEntry
	head     *cacheEntry // most recently used
	tail     *cacheEntry // least recently used
	filter   Filter
	hits     int
	misses   int
	filtered int
}

type cacheKey struct {
	c      graph.ColorID
	v1, v2 graph.NodeID
}

type cacheEntry struct {
	key        cacheKey
	d          int32 // the exact distance; when lower, one it exceeds
	lower      bool
	prev, next *cacheEntry
}

// NewCache creates a distance cache holding at most capacity pair
// distances (at least one).
func NewCache(g *graph.Graph, capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		g:        g,
		capacity: capacity,
		entries:  make(map[cacheKey]*cacheEntry, capacity),
	}
}

// SetFilter installs a reachability filter consulted before both the
// cache and the search; nil removes it.
func (ca *Cache) SetFilter(f Filter) {
	ca.mu.Lock()
	ca.filter = f
	ca.mu.Unlock()
}

// Dist returns the shortest non-empty distance from v1 to v2 over color c
// (graph.AnyColor for any edge), or graph.Unreachable. Results agree
// exactly with Matrix.Dist. On a miss the search borrows its buffers
// from the package scratch pool; workers that own an arena should call
// DistScratch instead.
func (ca *Cache) Dist(c graph.ColorID, v1, v2 graph.NodeID) int32 {
	return ca.DistScratch(c, v1, v2, nil)
}

// DistScratch is Dist with an explicit search arena for the miss path
// (nil borrows one from the package pool). The cache's own state is
// protected by its mutex either way; the arena is only touched by the
// calling goroutine, so per-worker arenas keep concurrent readers from
// contending on anything but the LRU lock itself.
func (ca *Cache) DistScratch(c graph.ColorID, v1, v2 graph.NodeID, s *Scratch) int32 {
	d, _ := ca.lookup(c, v1, v2, -1, s)
	return d
}

// Sat satisfies Backend: whether the pair satisfies the atom, from an
// entry that decides it or else from a search bounded by the atom (see
// Cache).
func (ca *Cache) Sat(a CAtom, v1, v2 graph.NodeID, s *Scratch) bool {
	d, exact := ca.lookup(a.Color, v1, v2, a.searchBound(ca.g.NumNodes()), s)
	return exact && a.Sat(d)
}

// lookup answers (c, v1, v2) from its entry when the entry is exact, or
// is a lower bound of at least bound (bound >= 0), and otherwise by a
// biDist search with that bound, which it stores. The result is biDist's:
// an exact distance, or with exact = false a d the distance exceeds.
func (ca *Cache) lookup(c graph.ColorID, v1, v2 graph.NodeID, bound int32, s *Scratch) (d int32, exact bool) {
	key := cacheKey{c, v1, v2}
	ca.mu.Lock()
	// The filter check shares the critical section with the map lookup:
	// MaybeReaches is a read-only O(k) probe, and one lock per call keeps
	// the hot path's contention down.
	if ca.filter != nil && !ca.filter.MaybeReaches(c, v1, v2) {
		ca.filtered++
		ca.mu.Unlock()
		return graph.Unreachable, true
	}
	if e, ok := ca.entries[key]; ok && (!e.lower || (bound >= 0 && e.d >= bound)) {
		ca.hits++
		ca.moveToFront(e)
		d, exact = e.d, !e.lower
		ca.mu.Unlock()
		return d, exact
	}
	ca.misses++
	ca.mu.Unlock()
	// The search runs outside the lock; concurrent misses on the same
	// pair just compute it twice.
	if s == nil {
		s = GetScratch()
		defer PutScratch(s)
	}
	d, exact = biDist(ca.g, c, v1, v2, bound, s)
	if s.Canceled() {
		// The search was abandoned by a cancelled context bound to s: d
		// proves nothing, so it must never enter the cache.
		return d, exact
	}
	ca.mu.Lock()
	if e, ok := ca.entries[key]; ok {
		// Keep whichever answer decides more: an exact distance beats a
		// lower bound, and a larger lower bound beats a smaller one.
		if e.lower && (exact || d > e.d) {
			e.d, e.lower = d, !exact
		}
		ca.moveToFront(e)
	} else {
		e := &cacheEntry{key: key, d: d, lower: !exact}
		ca.entries[key] = e
		ca.pushFront(e)
		if len(ca.entries) > ca.capacity {
			ca.evict()
		}
	}
	ca.mu.Unlock()
	return d, exact
}

// Stats returns the hit and miss counts since creation. Filtered pairs
// count as neither: no distance was looked up or computed for them.
func (ca *Cache) Stats() (hits, misses int) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return ca.hits, ca.misses
}

// Filtered returns how many lookups the reachability filter refuted
// without a search.
func (ca *Cache) Filtered() int {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return ca.filtered
}

// ---- intrusive LRU list (callers hold ca.mu) ------------------------------

func (ca *Cache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = ca.head
	if ca.head != nil {
		ca.head.prev = e
	}
	ca.head = e
	if ca.tail == nil {
		ca.tail = e
	}
}

func (ca *Cache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		ca.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		ca.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (ca *Cache) moveToFront(e *cacheEntry) {
	if ca.head == e {
		return
	}
	ca.unlink(e)
	ca.pushFront(e)
}

func (ca *Cache) evict() {
	lru := ca.tail
	if lru == nil {
		return
	}
	ca.unlink(lru)
	delete(ca.entries, lru.key)
}
