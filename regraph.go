// Package regraph is a Go implementation of the query classes and
// algorithms of Fan, Li, Ma, Tang and Wu, "Adding Regular Expressions to
// Graph Reachability and Pattern Queries" (ICDE 2011; extended version in
// Frontiers of Computer Science 6(3), 2012).
//
// It provides, over directed data graphs whose nodes carry attribute
// tuples and whose edges carry types ("colors"):
//
//   - Reachability queries (RQ): source/destination predicates plus a path
//     constraint from the restricted regular-expression subclass
//     F ::= c | c{k} | c+ | F F, evaluated over one distance backend —
//     a per-color distance matrix, an LRU distance cache over
//     bi-directional search, or 2-hop labels.
//   - Graph pattern queries (PQ): pattern graphs whose every edge is an
//     RQ, matched under the paper's revised graph simulation; two
//     cubic-time evaluation algorithms, JoinMatch and SplitMatch.
//   - Static analyses: containment, equivalence and minimization of RQs
//     and PQs, all in low polynomial time.
//
// # Quick start
//
//	g := regraph.NewGraph()
//	alice := g.AddNode("alice", map[string]string{"job": "doctor"})
//	bob := g.AddNode("bob", map[string]string{"job": "biologist"})
//	g.AddEdge(bob, alice, "fn")
//
//	q := regraph.RQ{
//		From: regraph.MustPredicate("job = biologist"),
//		To:   regraph.MustPredicate("job = doctor"),
//		Expr: regraph.MustRegex("fn{2}"),
//	}
//	pairs := q.EvalBFS(g) // [{bob alice}]
//	_ = pairs
//
// See examples/ for complete programs and DESIGN.md for the mapping from
// paper sections to packages.
package regraph

import (
	"context"

	"regraph/internal/candidx"
	"regraph/internal/contain"
	"regraph/internal/dist"
	"regraph/internal/engine"
	"regraph/internal/gen"
	"regraph/internal/graph"
	"regraph/internal/mutate"
	"regraph/internal/pattern"
	"regraph/internal/predicate"
	"regraph/internal/reach"
	"regraph/internal/reachidx"
	"regraph/internal/rex"
	"regraph/internal/rexfull"
	"regraph/internal/server"
)

// Core graph types.
type (
	// Graph is a directed data graph with typed edges and attributed
	// nodes.
	Graph = graph.Graph
	// NodeID identifies a data-graph node.
	NodeID = graph.NodeID
	// ColorID identifies an interned edge color.
	ColorID = graph.ColorID
)

// Query types.
type (
	// RQ is a reachability query (paper Section 2).
	RQ = reach.Query
	// Pair is one RQ answer: a (source, destination) node pair.
	Pair = reach.Pair
	// PQ is a graph pattern query (paper Section 2).
	PQ = pattern.Query
	// PQResult is a pattern query answer: one pair set per pattern edge.
	PQResult = pattern.Result
	// EvalOptions selects the distance backend of pattern evaluation
	// (Backend: a Matrix, Cache or TwoHop; nil for search only).
	EvalOptions = pattern.Options
	// Regex is a subclass-F regular expression.
	Regex = rex.Expr
	// Predicate is a conjunction of attribute comparisons.
	Predicate = predicate.Pred
	// Matrix is the per-color all-pairs shortest-distance index.
	Matrix = dist.Matrix
	// Cache is the LRU distance cache for matrix-free evaluation.
	Cache = dist.Cache
	// DistBackend is the pluggable distance oracle behind single-atom
	// evaluation: Matrix, Cache and TwoHop all implement it, and
	// EvalOptions.Backend and RQ.EvalBackend accept any of them (or a
	// caller-supplied implementation honoring the same exactness
	// contract).
	DistBackend = dist.Backend
	// TwoHop is the 2-hop-labeling distance index: per-color sorted hub
	// labels answering Dist by sorted merge — between Matrix and Cache
	// in both space and lookup cost. See NewTwoHop.
	TwoHop = dist.TwoHop
	// CAtom is one compiled atom of a subclass-F expression: an interned
	// color layer plus an occurrence bound.
	CAtom = dist.CAtom
	// Scratch is a reusable per-worker search arena for the runtime
	// evaluation primitives; see NewScratch.
	Scratch = dist.Scratch
)

// Candidate-index types (see NewCandidateIndex / NewCandidateMemo).
type (
	// CandidateSource supplies predicate candidate sets to the
	// evaluators (RQ.EvalBackendScratchWith, RQ.EvalBFSScratchWith,
	// EvalOptions.Cands) without scanning all nodes. CandidateIndex and
	// CandidateMemo implement it; answers must be identical to the
	// linear scan's.
	CandidateSource = reach.CandidateSource
	// CandidateIndex is the per-graph attribute inverted index: sorted
	// posting columns split into numeric and lexicographic value
	// domains (predicate.Compare's exact semantics), answering a clause
	// by binary search and a conjunction by bitset intersection in
	// O(log|V| + k) instead of the O(|V|·clauses) scan. A snapshot —
	// rebuild (or use CandidateMemo) after mutating the graph.
	CandidateIndex = candidx.Index
	// CandidateMemo is an epoch-validated predicate→candidates cache
	// over a CandidateIndex: repeated predicates are map hits, and any
	// graph mutation invalidates both index and cache before the next
	// answer. NewEngine builds one automatically and shares it across
	// its worker pool.
	CandidateMemo = candidx.Memo
)

// Engine types.
type (
	// Engine is the resident concurrent query engine: one graph, the
	// distance backend it builds for it (Matrix, TwoHop or Cache), a
	// bounded worker pool with per-worker scratch arenas. Safe for
	// concurrent use; see NewEngine.
	Engine = engine.Engine
	// EngineOptions configures NewEngine: worker count and the distance
	// backend the engine builds, named by BackendKind ("matrix",
	// "twohop", "cache" or "auto"; "" means "cache").
	EngineOptions = engine.Options
	// BatchRequest is one query of an Engine batch or Session: exactly
	// one of its RQ/PQ fields must be set. Setting its Emit callback on
	// an RQ streams the answer pairs instead of materializing them.
	BatchRequest = engine.Request
	// BatchResult is the answer to one BatchRequest, tagged with the
	// originating request id (the batch index for RunBatch, the
	// Submit-returned id for a Session) and the evaluation latency.
	BatchResult = engine.Result
	// Session is a streaming query session over an Engine (see
	// Engine.Open): Submit admits requests under an in-flight bound
	// (back-pressure), Results streams answers in completion order, and
	// context cancellation stops in-flight evaluators at periodic
	// checkpoints and drains without goroutine leaks.
	Session = engine.Session
	// SessionOptions configures Engine.Open: the admission bound
	// (MaxInFlight, which also caps resident answer memory) and the
	// Results buffer.
	SessionOptions = engine.SessionOptions
	// SessionStats is a Session.Stats snapshot: submission/completion/
	// cancellation counters, in-flight and queue-depth gauges, and a
	// per-query latency summary.
	SessionStats = engine.SessionStats
)

// Write-path types (see Engine.Apply, Engine.Subscribe and DESIGN.md §13).
type (
	// Mutation is one graph mutation op — add_node, set_attr, add_edge
	// or remove_edge — as decoded from the NDJSON mutation log (or its
	// qlang text form) and applied by Engine.Apply. Each op of a batch
	// applies or fails individually.
	Mutation = mutate.Op
	// MutationAck is the per-op outcome of an applied batch: the op's id,
	// the generation it committed as, or its error.
	MutationAck = mutate.Ack
	// MutationCommit reports one Engine.Apply batch: the acks in op
	// order, the committed generation and the graph size after it.
	MutationCommit = engine.Commit
	// StandingQuery is a registered standing pattern query
	// (Engine.Subscribe): its answer is maintained incrementally across
	// committed generations and every change is pushed as a
	// StandingUpdate on its Updates channel.
	StandingQuery = engine.Standing
	// StandingUpdate is one pushed delta answer: the full result at the
	// committed generation plus the per-edge pair sets that entered and
	// left it.
	StandingUpdate = engine.StandingUpdate
)

// ErrSessionClosed is returned by Session.Submit after Close (or after
// the session's context was cancelled and the session drained).
var ErrSessionClosed = engine.ErrSessionClosed

// ErrDeadlineExpired is the Result.Err of a request whose Deadline
// passed while it was still queued: the session shed it without
// spending a worker on it. errors.Is(err, context.DeadlineExceeded)
// also matches, so callers that only care about "missed the deadline"
// need one check; compare against ErrDeadlineExpired itself to
// distinguish a queue shed from an evaluation abandoned mid-flight.
var ErrDeadlineExpired = engine.ErrDeadlineExpired

// Serving types (the HTTP/NDJSON front end; see NewServer).
type (
	// Server serves an Engine over HTTP speaking the NDJSON wire format:
	// POST /v1/query streams request lines in and response lines out in
	// completion order, POST /v1/mutate streams mutation ops in and acks
	// out (each chunk committing one snapshot-isolated generation),
	// POST /v1/subscribe follows a standing pattern query with pushed
	// delta lines, GET /v1/stats snapshots the serving counters,
	// GET /healthz reports liveness. cmd/rgserve is the ready-made
	// binary; cmd/rgquery -remote is the matching client.
	Server = server.Server
	// ServerOptions configures NewServer: per-stream admission bound
	// (the wire-level flow control) and the server-side stream deadline.
	ServerOptions = server.Options
	// ServerStats is a Server.Stats snapshot (the /v1/stats payload).
	ServerStats = server.Stats
)

// NewGraph returns an empty data graph.
func NewGraph() *Graph { return graph.New() }

// NewPQ returns an empty pattern query; add nodes with AddNode and edges
// with AddEdge.
func NewPQ() *PQ { return pattern.New() }

// ParseRegex parses a subclass-F regular expression, e.g. "fa{2} fn" or
// "ic{2} dc+".
func ParseRegex(s string) (Regex, error) { return rex.Parse(s) }

// MustRegex is ParseRegex but panics on error.
func MustRegex(s string) Regex { return rex.MustParse(s) }

// ParsePredicate parses a node predicate, e.g. `job = doctor, age > 300`.
func ParsePredicate(s string) (Predicate, error) { return predicate.Parse(s) }

// MustPredicate is ParsePredicate but panics on error.
func MustPredicate(s string) Predicate { return predicate.MustParse(s) }

// NewMatrix precomputes the distance matrix of Section 4: one layer per
// edge color plus a wildcard layer, (m+1)·|V|² one-byte cells. Share it
// across queries on the same graph.
func NewMatrix(g *Graph) *Matrix { return dist.NewMatrix(g) }

// NewCache creates an LRU distance cache for graphs too large for a
// matrix.
func NewCache(g *Graph, capacity int) *Cache { return dist.NewCache(g, capacity) }

// NewTwoHop builds the 2-hop label index for every color layer (plus
// the wildcard layer) with degree-ranked pruned landmark BFS,
// parallelized across layers. Distances agree bit-for-bit with
// NewMatrix's at a fraction of its (m+1)·|V|² memory on sparse graphs;
// pass it as EvalOptions.Backend or to RQ.EvalBackend. An Engine builds
// its own with EngineOptions{BackendKind: "twohop"}.
func NewTwoHop(g *Graph) *TwoHop { return dist.NewTwoHop(g) }

// NewTwoHopBudget is NewTwoHop under a context and a label-storage
// byte budget (0 = unlimited): construction aborts with
// ErrTwoHopBudget when the labels exceed the budget, and with ctx's
// error on cancellation.
func NewTwoHopBudget(ctx context.Context, g *Graph, maxBytes int64) (*TwoHop, error) {
	return dist.NewTwoHopBudget(ctx, g, maxBytes)
}

// ErrTwoHopBudget reports that 2-hop label construction exceeded its
// byte budget; fall back to a Cache (an Engine with BackendKind "auto"
// does exactly that).
var ErrTwoHopBudget = dist.ErrTwoHopBudget

// PredictMatrixBytes returns the exact cell bytes NewMatrix would
// allocate for g — (m+1)·|V|² — without allocating them; the quantity
// BackendKind "auto" compares against EngineOptions.MemoryBudget.
func PredictMatrixBytes(g *Graph) int64 { return dist.PredictMatrixBytes(g) }

// NewEngine builds a resident query engine over g: RQs and PQs are
// evaluated concurrently across a bounded worker pool, every worker
// reusing a persistent Scratch arena against the distance backend the
// engine builds, and rebuilds per generation, by
// EngineOptions.BackendKind: "matrix", "twohop", "cache" (the default)
// or "auto", the memory-budget heuristic. Engine.Open starts a
// streaming Session (Submit/Results with back-pressure and context
// cancellation); Engine.RunBatch evaluates one whole batch at a time. Once the engine exists, mutate the graph
// only through Engine.Apply — each batch commits as a copy-on-write
// generation, readers keep their pinned snapshot, and the construction
// graph itself must no longer be touched. Conflicting options (an
// unknown kind, a CacheSize, MemoryBudget or ReachFilterK the kind
// would ignore) return an error wrapping ErrEngineOptions.
func NewEngine(g *Graph, opts EngineOptions) (*Engine, error) { return engine.New(g, opts) }

// MustEngine is NewEngine for statically known-valid configurations;
// it panics on a configuration error.
func MustEngine(g *Graph, opts EngineOptions) *Engine { return engine.MustNew(g, opts) }

// ErrEngineOptions is the sentinel every NewEngine configuration error
// wraps.
var ErrEngineOptions = engine.ErrOptions

// NewCandidateIndex builds the attribute inverted index for the
// graph's current state. Pass it (or a CandidateMemo) to
// RQ.EvalBackendScratchWith / RQ.EvalBFSScratchWith or
// EvalOptions.Cands to replace every O(|V|) predicate scan with an
// indexed lookup; candidate sets are bit-identical to the scan's.
func NewCandidateIndex(g *Graph) *CandidateIndex { return candidx.Build(g) }

// NewCandidateMemo wraps a CandidateIndex in a concurrency-safe
// predicate→candidates cache invalidated by the graph's mutation epoch.
// Prefer this over a bare index when queries repeat predicates or the
// graph mutates between queries.
func NewCandidateMemo(g *Graph) *CandidateMemo { return candidx.NewMemo(g) }

// NewScratch returns an empty search arena. The scratch-accepting
// evaluation APIs (RQ.EvalBFSScratch, RQ.EvalBackendScratchWith,
// ForwardClosureScratch, EvalOptions.Scratch) draw every BFS buffer,
// seed bitset and closure frontier from it instead of the heap, so one
// goroutine evaluating queries back to back allocates only answers. A
// Scratch must not be shared between goroutines; NewEngine manages one
// per worker automatically.
func NewScratch() *Scratch { return dist.NewScratch() }

// CompileRegex resolves a subclass-F expression's atoms against a
// graph's interned colors. ok is false when the expression mentions a
// color the graph does not have (its language is then empty over this
// graph) or when the expression is the invalid zero value.
func CompileRegex(g *Graph, e Regex) (atoms []CAtom, ok bool) { return dist.Compile(g, e) }

// ForwardClosureScratch marks every node reachable from some node of
// src via a path whose color string matches the compiled atom chain,
// using s for every internal buffer. The returned slice is owned by s:
// it is valid only until the next closure or search call on s — copy it
// to retain it.
func ForwardClosureScratch(g *Graph, src []bool, atoms []CAtom, s *Scratch) []bool {
	return dist.ForwardClosureScratch(g, src, atoms, s)
}

// BackwardClosureScratch marks every node from which some node of dst
// is reachable via a path matching the atom chain. Same ownership rules
// as ForwardClosureScratch.
func BackwardClosureScratch(g *Graph, dst []bool, atoms []CAtom, s *Scratch) []bool {
	return dist.BackwardClosureScratch(g, dst, atoms, s)
}

// JoinMatch evaluates a pattern query with the join-based algorithm of
// Section 5.1. Pass EvalOptions{Backend: m} with a Matrix for O(1)
// single-atom checks, EvalOptions{Backend: c} with a Cache (or zero
// options) for runtime search; answers are the same.
func JoinMatch(g *Graph, q *PQ, opts EvalOptions) *PQResult {
	return pattern.JoinMatch(g, q, opts)
}

// SplitMatch evaluates a pattern query with the partition-refinement
// algorithm of Section 5.2. Same answers as JoinMatch.
func SplitMatch(g *Graph, q *PQ, opts EvalOptions) *PQResult {
	return pattern.SplitMatch(g, q, opts)
}

// RQContains reports Q1 ⊑ Q2 for reachability queries (Proposition 3.3).
func RQContains(q1, q2 RQ) bool { return contain.RQContains(q1, q2) }

// RQEquivalent reports Q1 ≡ Q2 for reachability queries.
func RQEquivalent(q1, q2 RQ) bool { return contain.RQEquivalent(q1, q2) }

// PQContains reports Q1 ⊑ Q2 for pattern queries via revised graph
// similarity (Lemma 3.1, Theorem 3.2).
func PQContains(q1, q2 *PQ) bool { return contain.Contains(q1, q2) }

// PQEquivalent reports Q1 ≡ Q2 for pattern queries.
func PQEquivalent(q1, q2 *PQ) bool { return contain.Equivalent(q1, q2) }

// Minimize returns a minimum equivalent pattern query (algorithm minPQs,
// Theorem 3.4) — the paper's query-optimization strategy.
func Minimize(q *PQ) *PQ { return contain.Minimize(q) }

// ---- extensions beyond the paper's core (its stated future work) ----------

// Incremental maintains a pattern query's answer under edge and node
// insertions and deletions without re-evaluating from scratch — the
// paper's principal future-work item (Section 7).
type Incremental = pattern.Incremental

// NewIncremental evaluates q once over g and returns a maintenance engine;
// mutate the graph only through the engine's InsertEdge / DeleteEdge /
// InsertNode methods.
func NewIncremental(g *Graph, q *PQ) (*Incremental, error) {
	return pattern.NewIncremental(g, q)
}

// FullRegex is a general regular expression over edge colors (union,
// star, grouping — beyond subclass F). Containment and minimization are
// PSPACE-complete for this class and deliberately not provided; see
// package rexfull.
type FullRegex = rexfull.Expr

// FullRQ is a reachability query whose path constraint is a general
// regular expression, evaluated by product-automaton search.
type FullRQ = rexfull.Query

// ParseFullRegex parses a general regular expression such as
// "(fa|fn)* sa+".
func ParseFullRegex(s string) (FullRegex, error) { return rexfull.Parse(s) }

// MustFullRegex is ParseFullRegex but panics on error.
func MustFullRegex(s string) FullRegex { return rexfull.MustParse(s) }

// FullPQ is a graph pattern query whose edges carry general regular
// expressions — the PQ half of the future-work extension. Same matching
// semantics (revised graph simulation), polynomial evaluation; no
// containment or minimization (PSPACE-complete for this class).
type FullPQ = rexfull.Pattern

// FullPQResult is the answer of a FullPQ.
type FullPQResult = rexfull.PatternResult

// NewFullPQ returns an empty general-regex pattern query.
func NewFullPQ() *FullPQ { return rexfull.NewPattern() }

// ReachIndex is a GRAIL-style interval-labeling reachability filter:
// sound negative answers let the runtime search skip hopeless pairs.
type ReachIndex = reachidx.Index

// NewReachIndex builds the filter with k randomized traversals per color
// layer; install it on a Cache with SetFilter.
func NewReachIndex(g *Graph, k int) *ReachIndex { return reachidx.Build(g, k) }

// Essembly returns the Fig. 1 example network (see internal/gen).
func Essembly() *Graph { return gen.Essembly() }

// SyntheticGraph generates a seeded random data graph with the given
// shape, `attrs` integer attributes per node and the given edge colors.
func SyntheticGraph(seed int64, nodes, edges, attrs int, colors []string) *Graph {
	return gen.Synthetic(seed, nodes, edges, attrs, colors)
}

// YouTubeGraph generates the YouTube-like dataset of the paper's
// experiments at the given scale (1.0 = the paper's 8,350 nodes / 30,391
// edges).
func YouTubeGraph(seed int64, scale float64) *Graph { return gen.YouTube(seed, scale) }

// TerrorGraph generates the terrorist-organization collaboration network
// of the paper's experiments (818 nodes, 1,600 edges).
func TerrorGraph(seed int64) *Graph { return gen.Terror(seed) }

// NewServer wraps an engine in the HTTP/NDJSON query service. Mount
// Handler() on any listener (or call ListenAndServe), stop with
// Shutdown — graceful drain first, forced session cancellation only
// when the context expires.
func NewServer(e *Engine, opts ServerOptions) *Server { return server.New(e, opts) }
