// Package engine is the resident concurrent query engine: one Engine
// owns a data graph together with the distance backend it builds for it
// (a precomputed dist.Matrix, 2-hop labels, or a dist.Cache shared by
// every worker — the paper's Section 4 explicitly designs the cache to
// be shared across queries), and evaluates reachability and pattern
// queries across a bounded worker pool.
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
	"regraph/internal/wal"
)

// Options configures an Engine. The engine builds its distance backend
// itself, by name, and rebuilds it for every committed generation, so
// every engine accepts Apply.
type Options struct {
	// Workers bounds evaluation concurrency (and the number of resident
	// scratch arenas). Zero or negative means GOMAXPROCS.
	Workers int

	// BackendKind names the distance backend:
	//   - "matrix": the Section 4 distance matrix, (m+1)·|V|² bytes;
	//     single-atom checks of RQs and PQs are O(1) cell loads.
	//   - "twohop": 2-hop labels, answering Dist by a sorted merge.
	//   - "cache": an LRU distance cache of CacheSize entries over
	//     bidirectional search (Section 5). "" means "cache".
	//   - "auto": the matrix when its bytes fit MemoryBudget, else
	//     2-hop labels built under the same budget, else the cache. The
	//     choice is made on the first graph the engine builds a backend
	//     for — the seed for New, the recovered graph for Recover — and
	//     is then fixed; Engine.BackendKind reports it.
	BackendKind string

	// CacheSize sizes the cache (default 1<<16) of "cache", "" or
	// "auto"'s last resort. Setting it with "matrix" or "twohop" is a
	// configuration error: it would be silently ignored.
	CacheSize int

	// MemoryBudget bounds "auto"'s index memory in bytes (zero or
	// negative means 1 GiB). Setting it with any other kind is a
	// configuration error.
	MemoryBudget int64

	// ReachFilterK builds a GRAIL filter with k interval traversals per
	// generation and installs it in front of the backend: pairs the
	// filter refutes skip the backend entirely. Negative-only soundness
	// means answers are unchanged. 2-3 is typical. A matrix lookup is
	// already O(1) and has no filter hook, so ReachFilterK with "matrix"
	// is a configuration error; "auto" drops the filter if it picks the
	// matrix.
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
	// when building an engine over a fresh log).
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
	be  dist.Backend // matrix, 2-hop labels or cache

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

	kind    string // "matrix" | "twohop" | "cache"; "auto" until the first build
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
	budget    int64 // "auto"'s memory budget, read by the first build only
	filterK   int

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

// validate rejects an unknown backend kind and every setting the chosen
// kind would silently ignore. All errors wrap ErrOptions.
func (o Options) validate() error {
	switch o.BackendKind {
	case "", "matrix", "twohop", "cache", "auto":
	default:
		return fmt.Errorf("%w: unknown BackendKind %q (want matrix, twohop, cache or auto)", ErrOptions, o.BackendKind)
	}
	if o.CacheSize > 0 && (o.BackendKind == "matrix" || o.BackendKind == "twohop") {
		return fmt.Errorf("%w: CacheSize with BackendKind %q would be silently ignored", ErrOptions, o.BackendKind)
	}
	if o.MemoryBudget != 0 && o.BackendKind != "auto" {
		return fmt.Errorf("%w: MemoryBudget with BackendKind %q would be silently ignored (it bounds auto)", ErrOptions, o.BackendKind)
	}
	if o.ReachFilterK > 0 && o.BackendKind == "matrix" {
		return fmt.Errorf("%w: ReachFilterK with BackendKind matrix — matrix lookups have no filter hook", ErrOptions)
	}
	return nil
}

// New builds an engine over g with the backend opts names (see
// Options), after building g's CSR layers. The graph must not be
// mutated afterwards while the engine is in use. Conflicting options
// return an error wrapping ErrOptions; construction itself cannot fail
// ("auto"'s last resort, the cache, is always available).
func New(g *graph.Graph, opts Options) (*Engine, error) {
	e, err := newEngine(g, opts)
	if err != nil {
		return nil, err
	}
	st := e.cur.Load()
	st.be = e.buildBackend(st.g)
	return e, nil
}

// newEngine validates opts and publishes generation 0 over g with its
// candidate memo but without CSR layers or a backend: New builds them
// for g, Recover for the generation its replay ends at.
func newEngine(g *graph.Graph, opts Options) (*Engine, error) {
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
	budget := opts.MemoryBudget
	if budget <= 0 {
		budget = 1 << 30
	}
	kind := opts.BackendKind
	if kind == "" {
		kind = "cache"
	}
	e := &Engine{
		kind:      kind,
		workers:   workers,
		slots:     make(chan *dist.Scratch, workers),
		subs:      map[*Standing]struct{}{},
		cacheSize: cacheSize,
		budget:    budget,
		filterK:   opts.ReachFilterK,
		wal:       opts.WAL,
	}
	st := &genState{g: g}
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

// Backend returns the current generation's distance backend (matrix,
// 2-hop labels or cache).
func (e *Engine) Backend() dist.Backend { return e.cur.Load().be }

// BackendKind names the active backend — "matrix", "twohop" or "cache"
// — so that "auto"'s choice is observable (servers report it; tests
// assert on it). The kind is fixed once the engine exists: Apply
// rebuilds the same kind of backend for every generation.
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
