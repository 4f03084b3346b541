// Package engine is the resident concurrent query engine: one Engine
// owns a data graph together with its shared distance structures (a
// precomputed dist.Matrix, or a dist.Cache shared by every worker — the
// paper's Section 4 explicitly designs the cache to be shared across
// queries), and evaluates reachability and pattern queries across a
// bounded worker pool.
//
// Queries enter through a Session (Engine.Open): Submit admits requests
// under a configurable in-flight bound (back-pressure), Results streams
// answers out in completion order tagged with request ids, and context
// cancellation stops in-flight evaluators at periodic checkpoints and
// drains the session without leaking goroutines. RunBatch/RunRQs are
// convenience wrappers that run one whole batch through a session and
// materialize every answer.
//
// Each worker slot carries a persistent dist.Scratch arena (closure
// ping-pong buffers, BFS queues, seed bitsets), so a long-running engine
// reaches a steady state where evaluating a query allocates little more
// than its answer slice. Construction also builds the attribute
// inverted index (internal/candidx) and an engine-wide
// predicate→candidates memo shared by all workers, so no query pays
// the O(|V|·clauses) candidate scan; Options.DisableCandidateIndex
// reverts to the scan. The number of arenas bounds total evaluation
// concurrency engine-wide: overlapping RunBatch calls from several
// goroutines share the same pool of worker slots rather than multiplying
// goroutines.
//
// Concurrency contract: the graph must not be mutated while the engine
// is in use (every published generation has its CSR layers built, so
// all evaluation-time graph accesses are pure reads). The Matrix is
// immutable; the Cache serializes its LRU state behind a mutex and runs
// searches outside it. See DESIGN.md, "Engine & concurrency model".
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"regraph/internal/candidx"
	"regraph/internal/dist"
	"regraph/internal/graph"
	"regraph/internal/pattern"
	"regraph/internal/reach"
	"regraph/internal/reachidx"
	"regraph/internal/wal"
)

// Options configures an Engine. At most one of Matrix, Cache, Backend
// and AutoBackend may be set — they are four answers to the same
// question (which distance backend serves this engine), and New rejects
// ambiguous combinations instead of applying a quiet precedence rule.
// With none set, the engine creates an LRU cache of CacheSize entries,
// the historical default.
type Options struct {
	// Workers bounds evaluation concurrency (and the number of resident
	// scratch arenas). Zero or negative means GOMAXPROCS.
	Workers int

	// Matrix, when non-nil, selects matrix-backed evaluation for every
	// query: single-atom checks of RQs and PQs are O(1) cell loads. The
	// matrix is immutable and shared by all workers freely.
	Matrix *dist.Matrix

	// Cache is a shared LRU distance cache to use as the backend.
	Cache *dist.Cache

	// Backend supplies any other distance backend (typically a
	// dist.TwoHop built by the caller). Single-atom RQ and PQ edge
	// checks become backend lookups; multi-atom expressions use the
	// closure search as in cache mode.
	Backend dist.Backend

	// BackendKind asks the engine to build the named backend itself:
	// "matrix", "twohop" or "cache" (sized by CacheSize). It selects
	// the same structures as passing Matrix/Backend/Cache built by the
	// caller, with one crucial difference: an engine-built backend can
	// be rebuilt per generation, so the engine stays mutable — Apply
	// works. Externally supplied backends make the engine read-only.
	// Counts as a backend selector (conflicts with Matrix, Cache,
	// Backend and AutoBackend).
	BackendKind string

	// AutoBackend picks the backend from the graph and MemoryBudget:
	// the matrix when its (m+1)·|V|² bytes fit the budget (fastest
	// lookups), else a 2-hop label index built under the same budget,
	// else — when even the labels exceed the budget — a fresh LRU
	// cache of CacheSize entries. The choice is observable via
	// BackendKind.
	AutoBackend bool

	// MemoryBudget bounds AutoBackend's index memory in bytes
	// (default 1 GiB). Ignored unless AutoBackend is set.
	MemoryBudget int64

	// CacheSize sizes the engine-created cache (default 1<<16) — the
	// default backend, or AutoBackend's last resort. Setting it
	// together with Matrix, Cache or Backend is a configuration error:
	// it would be silently ignored.
	CacheSize int

	// ReachFilter installs a sound negative reachability oracle
	// (typically a GRAIL interval index, regraph.NewReachIndex) in
	// front of the selected backend: pairs the filter refutes skip the
	// backend entirely. Negative-only soundness means answers are
	// unchanged. The backend must support filtering (Cache and TwoHop
	// do; a Matrix lookup is already O(1) and has no filter hook, so
	// combining ReachFilter with an explicit Matrix is a configuration
	// error; AutoBackend simply drops the filter if it picks the
	// matrix).
	ReachFilter dist.Filter

	// ReachFilterK builds a GRAIL filter with k interval traversals at
	// construction and installs it like ReachFilter (2-3 is typical).
	// Setting both ReachFilterK and ReachFilter is a configuration
	// error.
	ReachFilterK int

	// DisableCandidateIndex turns off the attribute inverted index and
	// the engine-wide predicate→candidates memo, reverting every
	// query's candidate computation to the O(|V|·clauses) node scan.
	// Answers are identical either way; exposed for measurement and as
	// an escape hatch for tiny graphs where the index build outweighs a
	// handful of scans.
	DisableCandidateIndex bool

	// WAL, when non-nil, makes Apply durable: every committed batch is
	// appended to the log before its generation is published
	// (append-then-commit — an append failure fails the batch with
	// nothing published). The engine takes over Append ordering but not
	// the log's lifetime; the caller still closes it. Pair with Recover
	// at startup (which installs the WAL itself; set this field only
	// when building an engine over a fresh log). Requires a mutable
	// backend configuration (BackendKind or engine defaults).
	WAL *wal.WAL
}

// filterable is satisfied by backends that accept a front filter.
type filterable interface {
	SetFilter(dist.Filter)
}

// genState is one published generation: an immutable bundle of the
// graph, its distance backend and its candidate memo, all built against
// the same epoch. Readers pin a *genState (sessions at Open, one-shot
// accessors per call) and never observe a half-replaced mixture; the
// single-writer apply loop builds a successor bundle off to the side and
// publishes it with one atomic pointer store.
type genState struct {
	gen uint64
	g   *graph.Graph
	be  dist.Backend // matrix, 2-hop labels, cache or custom

	// cands is the generation's candidate memo (attribute inverted
	// index + predicate→candidates cache), shared by every worker and
	// batch reading this generation; nil when DisableCandidateIndex was
	// set.
	cands *candidx.Memo
}

// candSource adapts the memo field to the evaluators' interface
// parameter without ever wrapping a nil *Memo in a non-nil interface.
func (st *genState) candSource() reach.CandidateSource {
	if st.cands == nil {
		return nil
	}
	return st.cands
}

// Engine is a resident query engine over one graph. Create it with New;
// an Engine is safe for concurrent use by multiple goroutines.
type Engine struct {
	// cur is the current generation. Load-then-use is the whole read
	// protocol: a loaded genState stays internally consistent forever
	// (its graph is sealed when replaced, never edited in place).
	cur atomic.Pointer[genState]

	kind    string // "matrix" | "twohop" | "cache" | "custom"
	workers int

	// slots hands out (arena, worker identity) pairs; its capacity is
	// the engine-wide concurrency bound.
	slots chan *dist.Scratch

	// writeMu serializes Apply and the standing-query registry: there
	// is exactly one writer at a time, which is what lets Apply derive,
	// index and publish without any reader-side locking.
	writeMu sync.Mutex
	subs    map[*Standing]struct{}

	// Construction inputs remembered for per-generation backend
	// rebuilds; immutable after New.
	cacheSize int
	filterK   int
	immutable error // non-nil: why Apply is refused for this configuration

	// wal, when non-nil, receives every committed batch before its
	// generation is published (Options.WAL, or installed by Recover).
	wal *wal.WAL

	// recovered describes the Recover call that built this engine (zero
	// for engines built by New).
	recovered RecoverInfo

	// queuedReads counts read requests admitted to any session and not
	// yet picked up by a worker, engine-wide. The write path's read
	// fence polls it so a committing writer yields to queued readers
	// instead of starving them on few cores.
	queuedReads atomic.Int64
}

// ErrOptions wraps every configuration error New returns, so callers
// can distinguish "bad options" from future construction failures with
// errors.Is.
var ErrOptions = errors.New("engine: conflicting options")

// validate rejects ambiguous Option combinations. Each check names the
// fields in conflict; all errors wrap ErrOptions.
func (o Options) validate() error {
	set := 0
	names := ""
	for _, f := range []struct {
		on   bool
		name string
	}{
		{o.Matrix != nil, "Matrix"},
		{o.Cache != nil, "Cache"},
		{o.Backend != nil, "Backend"},
		{o.AutoBackend, "AutoBackend"},
		{o.BackendKind != "", "BackendKind"},
	} {
		if f.on {
			set++
			if names != "" {
				names += "+"
			}
			names += f.name
		}
	}
	if set > 1 {
		return fmt.Errorf("%w: %s — set at most one backend selector", ErrOptions, names)
	}
	switch o.BackendKind {
	case "", "matrix", "twohop", "cache":
	default:
		return fmt.Errorf("%w: unknown BackendKind %q (want matrix, twohop or cache)", ErrOptions, o.BackendKind)
	}
	if o.CacheSize > 0 && (o.Matrix != nil || o.Cache != nil || o.Backend != nil) {
		return fmt.Errorf("%w: CacheSize with an explicit backend would be silently ignored", ErrOptions)
	}
	if o.CacheSize > 0 && (o.BackendKind == "matrix" || o.BackendKind == "twohop") {
		return fmt.Errorf("%w: CacheSize with BackendKind %q would be silently ignored", ErrOptions, o.BackendKind)
	}
	if o.MemoryBudget != 0 && !o.AutoBackend {
		return fmt.Errorf("%w: MemoryBudget without AutoBackend would be silently ignored", ErrOptions)
	}
	if o.ReachFilter != nil && o.ReachFilterK > 0 {
		return fmt.Errorf("%w: ReachFilter and ReachFilterK — supply the filter or ask for one, not both", ErrOptions)
	}
	wantFilter := o.ReachFilter != nil || o.ReachFilterK > 0
	if wantFilter && (o.Matrix != nil || o.BackendKind == "matrix") {
		return fmt.Errorf("%w: ReachFilter with Matrix — matrix lookups have no filter hook", ErrOptions)
	}
	if wantFilter && o.Backend != nil {
		if _, ok := o.Backend.(filterable); !ok {
			return fmt.Errorf("%w: ReachFilter with a backend that has no SetFilter", ErrOptions)
		}
	}
	return nil
}

// New builds an engine over g, selecting the distance backend from
// opts (see Options). The graph must not be mutated afterwards while
// the engine is in use. Conflicting options return an error wrapping
// ErrOptions; AutoBackend construction itself cannot fail (the cache
// is the always-available last resort).
func New(g *graph.Graph, opts Options) (*Engine, error) {
	return newEngine(g, opts, true)
}

// newEngine is New with the build of a BackendKind backend optional:
// Recover skips it, because it builds the backend for the generation it
// ends at, not for the graph it starts from. Every other selector
// builds as usual — AutoBackend needs the build to choose its kind.
func newEngine(g *graph.Graph, opts Options, buildKind bool) (*Engine, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cacheSize := opts.CacheSize
	if cacheSize <= 0 {
		cacheSize = 1 << 16
	}

	if buildKind {
		// Build the graph's CSR layers before the backend, which reads
		// them, and before any reader can: no served read builds them.
		g.BuildColorIndex()
	}
	be := opts.Backend
	kind := "custom"
	switch {
	case opts.Matrix != nil:
		be, kind = opts.Matrix, "matrix"
	case opts.Cache != nil:
		be, kind = opts.Cache, "cache"
	case be != nil:
		switch be.(type) {
		case *dist.TwoHop:
			kind = "twohop"
		case *dist.Cache:
			kind = "cache"
		}
	case opts.BackendKind != "":
		// Engine-built by name: the same structures as the external
		// equivalents, but owned by the engine — rebuilt per generation
		// by Apply, so this path keeps the engine mutable.
		kind = opts.BackendKind
		if buildKind {
			be = newBackend(kind, g, cacheSize)
		}
	case opts.AutoBackend:
		budget := opts.MemoryBudget
		if budget <= 0 {
			budget = 1 << 30
		}
		if dist.PredictMatrixBytes(g) <= budget {
			be, kind = dist.NewMatrix(g), "matrix"
		} else if th, err := dist.NewTwoHopBudget(context.Background(), g, budget); err == nil {
			be, kind = th, "twohop"
		} else {
			// Labels blew the budget too: the O(capacity) cache is the
			// only backend whose footprint does not depend on the graph.
			be, kind = dist.NewCache(g, cacheSize), "cache"
		}
	default:
		be, kind = dist.NewCache(g, cacheSize), "cache"
	}

	// validate guaranteed explicit backends are filterable; the
	// auto-selected matrix is the one combination that drops the filter
	// (documented on Options.ReachFilter): it has no SetFilter.
	if fb, ok := be.(filterable); ok && (opts.ReachFilter != nil || opts.ReachFilterK > 0) {
		f := opts.ReachFilter
		if f == nil {
			f = reachidx.Build(g, opts.ReachFilterK)
		}
		fb.SetFilter(f)
	}

	e := &Engine{
		kind:      kind,
		workers:   workers,
		slots:     make(chan *dist.Scratch, workers),
		subs:      map[*Standing]struct{}{},
		cacheSize: cacheSize,
		filterK:   opts.ReachFilterK,
	}
	// Mutability: Apply rebuilds the backend per generation from the
	// construction inputs, which it can only do for backends the engine
	// knows how to build. Anything externally owned makes the engine
	// read-only (queries work as before; Apply returns the reason).
	switch {
	case opts.Backend != nil:
		e.immutable = fmt.Errorf("%w: externally built Backend cannot be rebuilt per generation", ErrReadOnly)
	case opts.Cache != nil:
		e.immutable = fmt.Errorf("%w: externally owned Cache cannot be rebuilt per generation", ErrReadOnly)
	case opts.Matrix != nil:
		e.immutable = fmt.Errorf("%w: externally owned Matrix cannot be rebuilt per generation", ErrReadOnly)
	case opts.ReachFilter != nil:
		e.immutable = fmt.Errorf("%w: external ReachFilter cannot be rebuilt per generation", ErrReadOnly)
	}
	if opts.WAL != nil {
		if e.immutable != nil {
			return nil, fmt.Errorf("%w: WAL on a read-only engine (%v)", ErrOptions, e.immutable)
		}
		e.wal = opts.WAL
	}
	st := &genState{g: g, be: be}
	if !opts.DisableCandidateIndex {
		// Build the attribute inverted index once, up front, so no batch
		// pays it mid-flight; the memo it feeds is shared by every reader
		// of this generation.
		st.cands = candidx.NewMemo(g)
	}
	e.cur.Store(st)
	for i := 0; i < workers; i++ {
		e.slots <- dist.NewScratch()
	}
	return e, nil
}

// MustNew is New for configurations known statically valid (tests,
// examples, fixed internal setups); it panics on a configuration error.
func MustNew(g *graph.Graph, opts Options) *Engine {
	e, err := New(g, opts)
	if err != nil {
		panic(err)
	}
	return e
}

// Graph returns the current generation's graph. After an Apply this may
// be a newer graph than a previous call returned; pin a Session for a
// stable view.
func (e *Engine) Graph() *graph.Graph { return e.cur.Load().g }

// Generation returns the current generation number: 0 for the graph the
// engine was built over, incremented by every committed Apply batch.
func (e *Engine) Generation() uint64 { return e.cur.Load().gen }

// Matrix returns the current generation's distance matrix, nil unless
// the engine is in matrix mode.
func (e *Engine) Matrix() *dist.Matrix {
	mx, _ := e.Backend().(*dist.Matrix)
	return mx
}

// Cache returns the current generation's distance cache, nil unless the
// engine's backend is a cache.
func (e *Engine) Cache() *dist.Cache {
	ca, _ := e.Backend().(*dist.Cache)
	return ca
}

// Backend returns the current generation's distance backend: whatever
// New selected or was given (matrix, 2-hop labels, cache, custom).
func (e *Engine) Backend() dist.Backend { return e.cur.Load().be }

// BackendKind names the active backend — "matrix", "twohop", "cache"
// or "custom" — mainly so AutoBackend's choice is observable (servers
// log it; tests assert on it). The kind is fixed at construction:
// Apply rebuilds the same kind of backend for every generation.
func (e *Engine) BackendKind() string { return e.kind }

// Workers returns the engine's concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Cands returns the current generation's candidate memo, nil when the
// candidate index was disabled at construction.
func (e *Engine) Cands() *candidx.Memo { return e.cur.Load().cands }

// Request is one query of a batch or session: exactly one of RQ or PQ
// must be set.
type Request struct {
	RQ *reach.Query
	PQ *pattern.Query

	// Emit, when non-nil on an RQ request, streams the answer pairs to
	// the callback one at a time instead of materializing Result.Pairs —
	// the Result then only signals completion. The callback runs on the
	// evaluating worker goroutine, in answer order; returning false stops
	// the enumeration early. Ignored for PQ requests (pattern answers
	// are per-edge sets, not a pair stream).
	Emit func(reach.Pair) bool

	// Priority selects the session scheduling band: under contention,
	// band p receives a worker share proportional to 2^p (earliest
	// deadline first within a band), so higher-priority requests wait
	// less without ever fully starving lower bands. Values clamp to
	// [0, MaxPriority]; zero — the default — is the lowest band. With
	// every request at one priority and no deadlines, scheduling is
	// exact FIFO. Ignored by RunBatch (which waits for the whole batch
	// anyway) unless requests carry distinct priorities.
	Priority int

	// Deadline, when nonzero, is the absolute time after which the
	// answer is worthless. A request whose deadline passes while it is
	// still queued is shed — completed with ErrDeadlineExpired, without
	// consuming evaluation time — and one that is mid-evaluation at the
	// deadline is abandoned at the evaluators' next cancellation
	// checkpoint with context.DeadlineExceeded. Zero means no deadline.
	Deadline time.Time
}

// Result is the answer to one Request. ID is the originating request's
// id: the batch index for RunBatch/RunRQs, the Submit-returned id for a
// session — so every result, including errors, is attributable. Exactly
// one of Pairs/Match is populated on success (a nil empty Pairs still
// means success for an RQ with no answers, and Pairs stays nil when the
// request streamed through Emit); Err reports malformed requests and
// context cancellation. Elapsed is the evaluation time on the worker,
// excluding queue wait (zero for requests that never ran).
type Result struct {
	ID      uint64
	Pairs   []reach.Pair    // RQ answer
	Match   *pattern.Result // PQ answer
	Err     error
	Elapsed time.Duration

	// Wait is the time the request spent queued between Submit and the
	// start of processing (or its shed) — the scheduling delay the QoS
	// layer bounds. Zero for RunBatch-internal bookkeeping errors.
	Wait time.Duration
}

// RunBatch evaluates every request and returns the results in request
// order (Result.ID doubles as the index). Work is distributed over the
// engine's worker pool; each worker evaluates whole queries with its
// own scratch arena against the shared Matrix or Cache. RunBatch may be
// called concurrently from several goroutines; all calls share the
// engine's concurrency bound. It is a convenience wrapper over a
// Session that submits everything and materializes every answer at
// once; arrival-over-time workloads and memory-bounded serving should
// open a Session directly.
func (e *Engine) RunBatch(reqs []Request) []Result {
	return e.RunBatchCtx(context.Background(), reqs)
}

// RunBatchCtx is RunBatch with cancellation: when ctx is cancelled
// mid-batch, evaluators stop at their next checkpoint and every
// not-yet-evaluated request's Result carries ctx's error. The slice is
// always fully populated, in request order.
func (e *Engine) RunBatchCtx(ctx context.Context, reqs []Request) []Result {
	out := make([]Result, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	s := e.Open(ctx, SessionOptions{
		// Enough admission headroom to keep every worker busy while the
		// collector loop below materializes results, and a small buffer so
		// workers rarely block on the hand-off; the batch materializes
		// everything anyway, so the extra resident answers cost nothing.
		MaxInFlight:  2 * e.workers,
		ResultBuffer: e.workers,
	})
	go func() {
		for i := range reqs {
			// Session ids count up from 0 in admission order, and this is
			// the only submitter: ids coincide with batch indices.
			if _, err := s.Submit(ctx, reqs[i]); err != nil {
				break
			}
		}
		s.Close()
	}()
	seen := make([]bool, len(reqs))
	for r := range s.Results() {
		out[r.ID] = r
		seen[r.ID] = true
	}
	for i, ok := range seen {
		if !ok {
			// Cancelled before submission or dropped after cancellation:
			// still attributable, still an explicit error.
			err := ctx.Err()
			if err == nil {
				err = context.Canceled
			}
			out[i] = Result{ID: uint64(i), Err: err}
		}
	}
	return out
}

// RunRQs is RunBatch for a homogeneous slice of reachability queries.
func (e *Engine) RunRQs(qs []reach.Query) [][]reach.Pair {
	reqs := make([]Request, len(qs))
	for i := range qs {
		reqs[i] = Request{RQ: &qs[i]}
	}
	res := e.RunBatch(reqs)
	out := make([][]reach.Pair, len(res))
	for i, r := range res {
		out[i] = r.Pairs
	}
	return out
}

// runCtx evaluates one request on one worker's arena against one pinned
// generation, with ctx threaded into the evaluators' cancellation
// checkpoints. st never changes under the evaluation — that is the
// snapshot-isolation guarantee sessions rely on.
func (e *Engine) runCtx(ctx context.Context, st *genState, r Request, s *dist.Scratch) Result {
	switch {
	case r.RQ != nil && r.PQ != nil:
		return Result{Err: fmt.Errorf("engine: request sets both RQ and PQ")}
	case r.RQ != nil:
		var pairs []reach.Pair
		emit := r.Emit
		if emit == nil {
			emit = func(p reach.Pair) bool {
				pairs = append(pairs, p)
				return true
			}
		}
		if err := r.RQ.StreamBackend(ctx, st.g, st.be, s, st.candSource(), emit); err != nil {
			return Result{Err: err}
		}
		return Result{Pairs: pairs}
	case r.PQ != nil:
		match, err := pattern.JoinMatchCtx(ctx, st.g, r.PQ, pattern.Options{
			Backend: st.be, Scratch: s, Cands: st.candSource(),
		})
		if err != nil {
			return Result{Err: err}
		}
		return Result{Match: match}
	default:
		return Result{Err: fmt.Errorf("engine: empty request")}
	}
}
