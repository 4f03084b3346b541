package main

// This is the one file of the benchmark that names internal/* symbols.
// The end-to-end path needs the first two groups only (inputs and the
// oracle); the traced pass (trace.go) calls the third through the
// functions at the bottom. A change that renames or removes one of
// these breaks the benchmark at compile time, in this file and nowhere
// else:
//
//	inputs   gen.YouTube, gen.Synthetic, gen.DefaultColors, gen.RQ,
//	         gen.Query, gen.Spec, graph.Graph.WriteTSV, qlang.WritePattern,
//	         wire.Request, wire.RQSpec
//	oracle   wire.Request.Compile, reach.Query.EvalBFS, reach.Pair,
//	         pattern.JoinMatch with zero pattern.Options (no index, no
//	         backend), pattern.Query.Node/Edge/NumNodes/NumEdges,
//	         pattern.Result.Size/Empty/EdgePairs,
//	         graph.Graph.AddEdge/SetAttr/NodeByName/BuildColorIndex
//	traced   graph.ReadTSV, candidx.Build, engine.New with
//	         engine.Options.BackendKind/Workers/WAL, Engine.Backend/Cands/
//	         Open/Apply, Session.Submit/Results/Close, engine.Request.Emit,
//	         engine.Result.Elapsed/Wait/Err, engine.Recover and its
//	         RecoverInfo.Batches/LastGen, dist.Backend.Dist, dist.Compile,
//	         dist.NewTwoHop, candidx.Memo.Candidates/Stats/Index,
//	         candidx.Index.Candidates/WithChanges, candidx.AttrChange,
//	         wire.NewDecoder/Decoder.Next/FromResult/NewEncoder/
//	         Encoder.Encode, server.New/Serve/Close, router.New/ProbeNow/
//	         Serve/Close, graph.Graph.Derive/Attrs, mutate.Op,
//	         wal.Open/Append/Stats/Close, predicate.Pred, rex.Expr
//
// None of the matrix- or cache-typed spellings (EvalMatrix*, StreamBiBFS,
// engine.Options.Matrix/Cache, Engine.Matrix/Cache) appear here, so
// collapsing them does not touch the benchmark.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"regraph/benchmark/load"
	"regraph/internal/candidx"
	"regraph/internal/dist"
	"regraph/internal/engine"
	"regraph/internal/gen"
	"regraph/internal/graph"
	"regraph/internal/mutate"
	"regraph/internal/pattern"
	"regraph/internal/predicate"
	"regraph/internal/qlang"
	"regraph/internal/reach"
	"regraph/internal/rex"
	"regraph/internal/router"
	"regraph/internal/server"
	"regraph/internal/wal"
	"regraph/internal/wire"
)

// ---- inputs -----------------------------------------------------------------

// inputSeed fixes every graph and template pool: the datasets are part
// of the benchmark's definition, like the paper's YouTube crawl, so a
// run's --seed chooses only the order of requests and their arrival
// times. Pinned digests (workloads.go) detect a generator that drifts.
const inputSeed = 20110411

// dataGraph and wireRequest let the other files hold these values
// without importing their packages.
type (
	dataGraph   = graph.Graph
	wireRequest = wire.Request
)

func youTubeGraph(scale float64) *graph.Graph { return gen.YouTube(inputSeed, scale) }

func syntheticGraph(nodes, edges int) *graph.Graph {
	return gen.Synthetic(inputSeed, nodes, edges, 3, gen.DefaultColors)
}

func graphTSV(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := g.WriteTSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// rqLine is one generated reachability query as a request line without
// id: preds equality clauses per endpoint, atoms regular-expression
// atoms of bound 5.
func rqLine(g *graph.Graph, preds, atoms int, count bool, r *rand.Rand) []byte {
	q := gen.RQ(g, preds, 5, atoms, r)
	return mustJSON(wire.Request{
		RQ:    &wire.RQSpec{From: q.From.String(), To: q.To.String(), Expr: q.Expr.String()},
		Count: count,
	})
}

// pqLine is one pattern query from the paper's generator with the
// parameters of its Section 6: 4 nodes, 5 edges, 2 predicates per node,
// bound 4, up to 2 atoms per edge. A PQ never carries "count".
func pqLine(g *graph.Graph, r *rand.Rand) []byte {
	q := gen.Query(g, gen.Spec{Nodes: 4, Edges: 5, Preds: 2, Bound: 4, Colors: 2}, r)
	var buf bytes.Buffer
	if err := qlang.WritePattern(&buf, q); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	return mustJSON(wire.Request{PQ: buf.String()})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // fixed struct shapes: a bug, not an input error
	}
	return b
}

// mutOp is one mutation line as the benchmark writes it to /v1/mutate
// and replays it on the oracle's plain graph.
type mutOp struct {
	Op    string            `json:"op"`
	Node  string            `json:"node,omitempty"`
	Attrs map[string]string `json:"attrs,omitempty"`
	From  string            `json:"from,omitempty"`
	To    string            `json:"to,omitempty"`
	Color string            `json:"color,omitempty"`
}

// mutationBatches draws n batches of size ops over a synthetic graph's
// node names: three quarters add_edge, one quarter set_attr, all on
// existing nodes so that no op can fail.
func mutationBatches(nodes, n, size int) [][]mutOp {
	r := rand.New(rand.NewSource(inputSeed + 1))
	out := make([][]mutOp, n)
	for i := range out {
		out[i] = make([]mutOp, size)
		for j := range out[i] {
			if j%4 == 3 {
				out[i][j] = mutOp{Op: "set_attr", Node: fmt.Sprintf("n%d", r.Intn(nodes)),
					Attrs: map[string]string{fmt.Sprintf("a%d", r.Intn(3)): fmt.Sprint(r.Intn(10))}}
			} else {
				out[i][j] = mutOp{Op: "add_edge", From: fmt.Sprintf("n%d", r.Intn(nodes)),
					To: fmt.Sprintf("n%d", r.Intn(nodes)), Color: gen.DefaultColors[r.Intn(len(gen.DefaultColors))]}
			}
		}
	}
	return out
}

// ---- oracle -----------------------------------------------------------------

// answer is what the oracle expects of one template: the count, and the
// order-independent hash of the pairs or matches where the request
// returns them.
type answer struct {
	Count int    `json:"count"`
	Hash  uint64 `json:"hash"`
}

// oracleAnswer evaluates one request line on the plain graph: breadth-
// first search for an RQ, JoinMatch with no index and no distance
// backend for a PQ. Nothing the served path optimises is on this path.
func oracleAnswer(g *graph.Graph, line []byte) (answer, error) {
	var req wire.Request
	if err := json.Unmarshal(line, &req); err != nil {
		return answer{}, err
	}
	er, _, err := req.Compile()
	if err != nil {
		return answer{}, err
	}
	if er.RQ != nil {
		pairs := er.RQ.EvalBFS(g)
		a := answer{Count: len(pairs)}
		if !req.Count {
			a.Hash = pairsHash(pairs)
		}
		return a, nil
	}
	res := pattern.JoinMatch(g, er.PQ, pattern.Options{})
	a := answer{Count: res.Size()}
	if res.Empty() {
		return a, nil
	}
	for i := 0; i < er.PQ.NumEdges(); i++ {
		e := er.PQ.Edge(i)
		a.Hash += load.EdgeHash(er.PQ.Node(e.From).Name, er.PQ.Node(e.To).Name,
			e.Expr.String(), pairsHash(res.EdgePairs(i)))
	}
	return a, nil
}

// freeze builds the graph's lazy per-colour index now, so that
// concurrent readers (the oracle's two goroutines) only read.
func freeze(g *graph.Graph) { g.BuildColorIndex() }

func pairsHash(ps []reach.Pair) uint64 {
	var h uint64
	for _, p := range ps {
		h += load.PairHash(int64(p.From), int64(p.To))
	}
	return h
}

// applyPlain replays one acknowledged op on the oracle's plain graph.
func applyPlain(g *graph.Graph, op mutOp) error {
	switch op.Op {
	case "add_edge":
		from, ok1 := g.NodeByName(op.From)
		to, ok2 := g.NodeByName(op.To)
		if !ok1 || !ok2 {
			return fmt.Errorf("oracle: add_edge names an unknown node: %+v", op)
		}
		g.AddEdge(from, to, op.Color)
	case "set_attr":
		v, ok := g.NodeByName(op.Node)
		if !ok {
			return fmt.Errorf("oracle: set_attr names an unknown node: %+v", op)
		}
		for k, val := range op.Attrs {
			g.SetAttr(v, k, val)
		}
	default:
		return fmt.Errorf("oracle: unexpected op %q", op.Op)
	}
	return nil
}

// ---- traced pass ------------------------------------------------------------
//
// Each function below is one call into one layer; trace.go wraps a span
// around it and never touches an internal type itself.

func readTSV(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadTSV(f)
}

// buildIndex is candidx's share of engine construction, on its own.
func buildIndex(g *graph.Graph) { candidx.Build(g) }

// stack is the in-process serving stack of one traced pass, built rung
// by rung: engine, session, wire codec, server, router.
type stack struct {
	g      *graph.Graph
	e      *engine.Engine
	opts   engine.Options
	log    *wal.WAL // nil unless durable
	sess   *engine.Session
	cancel context.CancelFunc

	dec *wire.Decoder
	out bytes.Buffer
	enc *wire.Encoder

	srv *server.Server
	rt  *router.Router
}

// newStack builds the engine the way rgserve does (a backend selected
// by name, so the engine stays writable) and opens one session on it.
func newStack(g *graph.Graph, backend string, workers int, walDir string) (*stack, error) {
	s := &stack{g: g, opts: engine.Options{BackendKind: backend, Workers: workers}}
	opts := s.opts
	if walDir != "" {
		w, err := wal.Open(wal.Options{Dir: walDir, Fsync: wal.FsyncAlways})
		if err != nil {
			return nil, err
		}
		s.log, opts.WAL = w, w
	}
	e, err := engine.New(g, opts)
	if err != nil {
		return nil, err
	}
	s.e = e
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.sess = e.Open(ctx, engine.SessionOptions{})
	s.enc = wire.NewEncoder(&s.out)
	return s, nil
}

func (s *stack) close() {
	if s.rt != nil {
		s.rt.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	s.sess.Close()
	s.cancel()
	if s.log != nil {
		s.log.Close()
	}
}

// query is one parsed request with what the lower rungs need of it.
type query struct {
	req   wire.Request
	er    engine.Request
	kind  string
	preds []predicate.Pred
	// The endpoints and first atom of the RQ, or of the PQ's first edge:
	// the distance rung probes pairs drawn from them.
	from, to predicate.Pred
	expr     rex.Expr
}

func (s *stack) parse(line []byte) (*query, error) {
	q := &query{}
	if err := json.Unmarshal(line, &q.req); err != nil {
		return nil, err
	}
	var err error
	if q.er, q.kind, err = q.req.Compile(); err != nil {
		return nil, err
	}
	if rq := q.er.RQ; rq != nil {
		q.preds = []predicate.Pred{rq.From, rq.To}
		q.from, q.to, q.expr = rq.From, rq.To, rq.Expr
		return q, nil
	}
	pq := q.er.PQ
	for i := 0; i < pq.NumNodes(); i++ {
		q.preds = append(q.preds, pq.Node(i).Pred)
	}
	e := pq.Edge(0)
	q.from, q.to, q.expr = pq.Node(e.From).Pred, pq.Node(e.To).Pred, e.Expr
	return q, nil
}

// memoLookup is the candidate lookup the evaluators make: the engine's
// predicate memo, falling through to the index on a miss.
func (s *stack) memoLookup(p predicate.Pred) int { return len(s.e.Cands().Candidates(p)) }

// indexLookup bypasses the memo: the inverted index alone.
func (s *stack) indexLookup(p predicate.Pred) int { return len(s.e.Cands().Index().Candidates(p)) }

func (s *stack) memoStats() (hits, misses uint64) { return s.e.Cands().Stats() }

// probe is one distance lookup.
type probe struct {
	c    graph.ColorID
	u, v graph.NodeID
}

// probes draws up to max (source, destination) candidate pairs of q on
// its first atom's colour: the lookups a single-atom evaluation makes.
func (s *stack) probes(q *query, max int) []probe {
	atoms, ok := dist.Compile(s.g, q.expr)
	if !ok {
		return nil
	}
	var out []probe
	from, to := s.e.Cands().Candidates(q.from), s.e.Cands().Candidates(q.to)
	for _, u := range from {
		for _, v := range to {
			if len(out) == max {
				return out
			}
			out = append(out, probe{atoms[0].Color, u, v})
		}
	}
	return out
}

func (s *stack) dist(p probe) int32 { return s.e.Backend().Dist(p.c, p.u, p.v) }

// distStats reports the backend's hit and miss counters when it keeps
// any (the cache does); the interface is declared here so that no
// cache-typed accessor is named.
func (s *stack) distStats() (hits, misses int, ok bool) {
	c, ok := s.e.Backend().(interface{ Stats() (hits, misses int) })
	if !ok {
		return 0, 0, false
	}
	hits, misses = c.Stats()
	return hits, misses, true
}

// evaluated is one request's trip through the session.
type evaluated struct {
	res      engine.Result
	streamed int
	elapsed  time.Duration // Result.Elapsed: evaluation on the worker
	wait     time.Duration // Result.Wait: queued before a worker took it
	pq       bool
}

// evaluate submits one request to the session and waits for its
// result, counting pairs through Emit for a count-only RQ exactly as
// the server's handler does.
func (s *stack) evaluate(er engine.Request, count bool) (evaluated, error) {
	ev := evaluated{pq: er.PQ != nil}
	if count && er.RQ != nil {
		er.Emit = func(reach.Pair) bool { ev.streamed++; return true }
	}
	if _, err := s.sess.Submit(context.Background(), er); err != nil {
		return ev, err
	}
	ev.res = <-s.sess.Results()
	ev.elapsed, ev.wait = ev.res.Elapsed, ev.res.Wait
	return ev, ev.res.Err
}

func (s *stack) feed(lines []byte) { s.dec = wire.NewDecoder(bytes.NewReader(lines)) }

func (s *stack) decode() (wire.Request, error) { return s.dec.Next() }

func (s *stack) compile(req *wire.Request) (engine.Request, string, error) { return req.Compile() }

// encode renders one result as its response line into the stack's
// buffer, which the returned slice aliases until the next call.
func (s *stack) encode(ev evaluated, kind string, er engine.Request, id uint64) ([]byte, error) {
	s.out.Reset()
	resp := wire.FromResult(ev.res, kind, er.PQ, ev.streamed)
	resp.ID = id
	err := s.enc.Encode(resp)
	return s.out.Bytes(), err
}

func listen() (net.Listener, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return l, "http://" + l.Addr().String(), nil
}

// serve puts server.New in front of the engine on a loopback port.
func (s *stack) serve() (string, error) {
	l, url, err := listen()
	if err != nil {
		return "", err
	}
	s.srv = server.New(s.e, server.Options{})
	go s.srv.Serve(l)
	return url, nil
}

// route puts router.New in front of the served stack.
func (s *stack) route(replica string) (string, error) {
	l, url, err := listen()
	if err != nil {
		return "", err
	}
	if s.rt, err = router.New(router.Options{Replicas: []string{replica}}); err != nil {
		l.Close()
		return "", err
	}
	s.rt.ProbeNow()
	go s.rt.Serve(l)
	return url, nil
}

func toOps(ops []mutOp) []mutate.Op {
	out := make([]mutate.Op, len(ops))
	for i, op := range ops {
		out[i] = mutate.Op{Verb: op.Op, Node: op.Node, Attrs: op.Attrs, From: op.From, To: op.To, Color: op.Color}
	}
	return out
}

// apply commits one batch through Engine.Apply (and, durable, its log).
func (s *stack) apply(ops []mutOp) (failed int, err error) {
	cm, err := s.e.Apply(toOps(ops))
	return cm.Failed, err
}

// logStats reports the engine's log: records, framed bytes and fsyncs.
func (s *stack) logStats() (appended, bytes, fsyncs uint64) {
	st := s.log.Stats()
	return st.Appended, st.AppendedBytes, st.Fsyncs
}

// recoverFrom replays the log in walDir over seed through
// engine.Recover, as a restarted rgserve does, and reports how many
// batches it replayed and the generation it reached.
func recoverFrom(walDir string, seed *graph.Graph, opts engine.Options) (batches int, gen uint64, err error) {
	w, err := wal.Open(wal.Options{Dir: walDir, Fsync: wal.FsyncAlways})
	if err != nil {
		return 0, 0, err
	}
	defer w.Close()
	_, info, err := engine.Recover(w, seed, opts)
	return info.Batches, info.LastGen, err
}

// shadow replays the batches a second time, outside the engine, one
// commit step per call, so that each step of Engine.Apply can be timed
// on the inputs the engine saw: derive + ops, index patch, backend
// rebuild, log append.
type shadow struct {
	g   *graph.Graph
	idx *candidx.Index
	log *wal.WAL
	gen uint64

	next *graph.Graph
	chs  []candidx.AttrChange
	ops  []mutate.Op
}

func newShadow(g *graph.Graph, walDir string) (*shadow, error) {
	w, err := wal.Open(wal.Options{Dir: walDir, Fsync: wal.FsyncAlways})
	if err != nil {
		return nil, err
	}
	return &shadow{g: g, idx: candidx.Build(g), log: w}, nil
}

// derive is graph.Derive plus the batch's ops on the derived copy.
func (sh *shadow) derive(ops []mutOp) error {
	sh.next, sh.chs, sh.ops = sh.g.Derive(), sh.chs[:0], toOps(ops)
	for _, op := range ops {
		if op.Op == "set_attr" {
			v, _ := sh.next.NodeByName(op.Node)
			for k, val := range op.Attrs {
				old, had := sh.next.Attrs(v)[k]
				if had && old == val {
					continue
				}
				sh.chs = append(sh.chs, candidx.AttrChange{Node: v, Attr: k, Old: old, New: val, HasOld: had, HasNew: true})
			}
		}
		if err := applyPlain(sh.next, op); err != nil {
			return err
		}
	}
	return nil
}

func (sh *shadow) patch() { sh.idx = sh.idx.WithChanges(sh.next, sh.chs) }

func (sh *shadow) rebuild() { dist.NewTwoHop(sh.next) }

func (sh *shadow) append() error {
	sh.gen++
	sh.g = sh.next
	return sh.log.Append(sh.gen, sh.ops)
}

func (sh *shadow) close() { sh.log.Close() }
