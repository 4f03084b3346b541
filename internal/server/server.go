// Package server exposes an engine as an HTTP service speaking the
// NDJSON wire format of internal/wire — the serving layer that turns
// the in-process session API into a multi-user query front end
// (cmd/rgserve is the binary).
//
// Endpoints:
//
//	POST /v1/query   NDJSON request lines in, NDJSON response lines out,
//	                 streamed in completion order as each result
//	                 arrives. One engine session per request stream;
//	                 the session's MaxInFlight admission bound is the
//	                 flow control — once it fills, the server stops
//	                 reading the request body and TCP back-pressure
//	                 reaches the client. ?timeout_ms=N sets a deadline
//	                 for the whole stream (capped by the server's
//	                 StreamTimeout).
//	POST /v1/mutate  NDJSON mutation lines in (internal/mutate: JSON ops
//	                 or the qlang text form, interchangeable), NDJSON
//	                 ack lines out plus one trailing summary. Ops are
//	                 applied in chunks of MutateBatch, each chunk one
//	                 atomic engine generation; queries running on older
//	                 generations are never blocked or torn (snapshot
//	                 isolation).
//	POST /v1/subscribe  one NDJSON request line naming a pattern (pq)
//	                 in, a standing-query stream out: an init line with
//	                 the full answer, then one delta line per committed
//	                 mutation batch that changes it, then an end line
//	                 (error "lagged" when the client fell behind,
//	                 "draining" when the server shut down).
//	GET  /v1/stats   JSON snapshot: engine shape plus request counters,
//	                 latency summary and live-session aggregates.
//	GET  /healthz    liveness: 200 "ok" while the process runs, even
//	                 during a drain (a draining server is alive — don't
//	                 kill it, it is flushing streams).
//	GET  /readyz    readiness: 200 "ok", flipping to 503 "draining"
//	                 with a Retry-After header the moment drain begins,
//	                 so a router stops routing here before streams are
//	                 refused.
//
// Malformed request lines get a structured per-line error response and
// the stream continues; only an unreadable stream (oversized line, dead
// connection) ends it. Shutdown is graceful: Drain stops admitting new
// streams, waits for live ones to finish, and force-cancels their
// sessions only when the drain context expires — either way no
// goroutine outlives the server.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"regraph/internal/engine"
	"regraph/internal/metrics"
	"regraph/internal/pattern"
	"regraph/internal/reach"
	"regraph/internal/wire"
)

// Options configures a Server.
type Options struct {
	// MaxInFlight is each connection's session admission bound (see
	// engine.SessionOptions.MaxInFlight): it caps that stream's resident
	// answers and is the wire-level flow control. Zero means the engine
	// default (twice the worker count).
	MaxInFlight int

	// ResultBuffer sizes each session's results channel (see
	// engine.SessionOptions.ResultBuffer).
	ResultBuffer int

	// StreamTimeout, when positive, bounds every query stream: the
	// session context gets this deadline and overdue requests are
	// answered with deadline errors. A client's ?timeout_ms can only
	// shorten it.
	StreamTimeout time.Duration

	// AdaptiveInFlight enables adaptive admission on every stream's
	// session (engine.SessionOptions.AdaptiveInFlight): the effective
	// in-flight bound shrinks below MaxInFlight when the observed p99
	// evaluation latency approaches the deadline budgets requests carry
	// (deadline_ms on the wire), and grows back under headroom.
	AdaptiveInFlight bool

	// MutateBatch caps how many mutation ops one /v1/mutate stream
	// accumulates before committing them as a single engine generation
	// (engine.Apply). Smaller batches publish sooner (standing queries
	// see finer-grained deltas); larger ones amortize the per-generation
	// index maintenance. Zero means 1024.
	MutateBatch int

	// SubscribeBuffer sizes each standing query's update channel: how
	// many commits a /v1/subscribe client may fall behind before the
	// engine declares it lagged and closes the stream (see
	// engine.Subscribe). Zero means the engine default (16).
	SubscribeBuffer int

	// MaxPendingOps / MaxPendingBytes bound each /v1/mutate stream's
	// admitted-but-uncommitted write window (engine.WriterOptions) — the
	// write path's mirror of MaxInFlight. When the window fills, the
	// server stops reading the request body and TCP back-pressure
	// reaches the client. Zero means the engine defaults (4096 ops,
	// 8 MiB).
	MaxPendingOps   int
	MaxPendingBytes int64
}

// Server serves an Engine over HTTP. Create it with New; it is safe for
// concurrent use. The Server is the lifecycle owner: Drain/Shutdown end
// live streams without leaking their sessions' goroutines.
type Server struct {
	e    *engine.Engine
	opts Options
	mux  *http.ServeMux

	// base is cancelled by Close / a forced Drain: every live stream's
	// session context derives from it.
	base       context.Context
	cancelBase context.CancelFunc
	draining   atomic.Bool

	// subsCtx derives from base and is cancelled the moment a drain
	// begins (not only when it is forced): a standing-query stream never
	// ends on its own, so a graceful drain must cut it loose up front —
	// each subscriber gets its end line and the stream count reaches
	// zero. Mutation streams, by contrast, are bounded by their request
	// body and drain like query streams.
	subsCtx    context.Context
	subsCancel context.CancelFunc

	mu      sync.Mutex
	live    map[*engine.Session]struct{}
	liveAux int // live /v1/mutate and /v1/subscribe streams (no session)
	hs      *http.Server

	// drained closes (once) when draining is on and the last live stream
	// has ended — the signal Drain blocks on.
	drained   chan struct{}
	drainOnce sync.Once

	streamsTotal metrics.Counter
	parseErrors  metrics.Counter
	// Write-path counters: mutation streams served, ops applied/failed
	// across them, subscriptions opened and currently live.
	mutateStreams         metrics.Counter
	opsApplied, opsFailed metrics.Counter
	subsTotal             metrics.Counter
	subsActive            atomic.Int64
	// Folded session totals (streams that have ended); Stats() adds the
	// live sessions on top.
	submitted, completed, cancelled metrics.Counter
	failed, delivered, dropped      metrics.Counter
	expired, missed                 metrics.Counter
	latency                         metrics.Latency
}

// New builds a server over a ready engine.
func New(e *engine.Engine, opts Options) *Server {
	base, cancel := context.WithCancel(context.Background())
	subsCtx, subsCancel := context.WithCancel(base)
	s := &Server{
		e:          e,
		opts:       opts,
		base:       base,
		cancelBase: cancel,
		subsCtx:    subsCtx,
		subsCancel: subsCancel,
		live:       map[*engine.Session]struct{}{},
		drained:    make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/mutate", s.handleMutate)
	mux.HandleFunc("/v1/subscribe", s.handleSubscribe)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	s.mux = mux
	return s
}

// Handler returns the server's HTTP handler (for httptest, custom
// listeners, or mounting under another mux).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves on addr until Shutdown or a listener error.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve serves on an existing listener until Shutdown or a listener
// error (http.ErrServerClosed after a clean Shutdown, like net/http).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.hs == nil {
		s.hs = &http.Server{Handler: s.mux}
	}
	hs := s.hs
	s.mu.Unlock()
	return hs.Serve(l)
}

// Shutdown gracefully stops the server: Drain (refuse new streams, let
// live ones finish, force-cancel their sessions only when ctx expires),
// then close the listeners. It returns nil after a fully graceful stop
// and ctx's error when streams had to be force-cancelled.
func (s *Server) Shutdown(ctx context.Context) error {
	drainErr := s.Drain(ctx)
	s.mu.Lock()
	hs := s.hs
	s.mu.Unlock()
	if hs != nil {
		if drainErr != nil {
			hs.Close()
		} else if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
			if drainErr == nil {
				drainErr = err
			}
		}
	}
	return drainErr
}

// Drain performs the graceful half of shutdown: new query streams are
// refused (healthz turns 503), live streams run to completion, and once
// the last one ends Drain returns nil. If ctx expires first, every live
// stream's session context is cancelled — in-flight queries stop at
// their next cancellation checkpoint, the streams flush their final
// (error-tagged) responses and end — and Drain returns ctx.Err() after
// they do. Either way, no session goroutine survives the call.
func (s *Server) Drain(ctx context.Context) error {
	// Subscriptions end now, not at the force deadline: a standing-query
	// stream has no natural completion to wait for.
	s.subsCancel()
	s.mu.Lock()
	s.draining.Store(true)
	if len(s.live) == 0 && s.liveAux == 0 {
		s.signalDrained()
	}
	s.mu.Unlock()
	// A drain that is already complete is graceful no matter what state
	// ctx is in — don't let the select race report it as forced.
	select {
	case <-s.drained:
		return nil
	default:
	}
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		// Force: cancelling base reaches every live stream's session and
		// its connection deadlines, so the streams end and endStream
		// signals — the wait below is bounded.
		s.cancelBase()
		<-s.drained
		return ctx.Err()
	}
}

// signalDrained closes the drained channel exactly once. Callers hold
// s.mu with draining set and no live streams.
func (s *Server) signalDrained() {
	s.drainOnce.Do(func() { close(s.drained) })
}

// Close force-stops the server: live sessions are cancelled and new
// streams refused. Prefer Shutdown/Drain for graceful stops.
func (s *Server) Close() {
	s.draining.Store(true)
	s.cancelBase()
	s.mu.Lock()
	hs := s.hs
	s.mu.Unlock()
	if hs != nil {
		hs.Close()
	}
}

// Stats is the /v1/stats snapshot: the engine's shape plus request
// counters aggregated over finished and live query streams.
type Stats struct {
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	Workers int    `json:"workers"`
	Backend string `json:"backend"` // the engine's distance backend: matrix, twohop or cache

	Draining      bool   `json:"draining"`
	StreamsActive int    `json:"streams_active"`
	StreamsTotal  uint64 `json:"streams_total"`
	ParseErrors   uint64 `json:"parse_errors"`

	// Write-path counters. Generation is the engine's current committed
	// generation (0 until the first mutation batch applies); OpsApplied
	// and OpsFailed total the per-op outcomes across every /v1/mutate
	// stream; Subscriptions is the number of standing-query streams
	// currently live.
	Generation    uint64 `json:"generation"`
	MutateStreams uint64 `json:"mutate_streams"`
	OpsApplied    uint64 `json:"ops_applied"`
	OpsFailed     uint64 `json:"ops_failed"`
	Subscriptions int    `json:"subscriptions"`

	// Session totals (engine.SessionStats summed across all streams).
	// Expired counts requests shed because their deadline budget ran out
	// before evaluation; Missed those abandoned mid-evaluation at their
	// deadline. QueueDepth is the current number of admitted requests
	// still waiting for a worker, across live streams.
	Submitted  uint64 `json:"submitted"`
	Completed  uint64 `json:"completed"`
	Cancelled  uint64 `json:"cancelled"`
	Failed     uint64 `json:"failed"`
	Expired    uint64 `json:"expired"`
	Missed     uint64 `json:"missed"`
	Delivered  uint64 `json:"delivered"`
	Dropped    uint64 `json:"dropped"`
	InFlight   int    `json:"in_flight"`
	QueueDepth int    `json:"queue_depth"`

	// Latency summarizes evaluation time of every successful query the
	// server has delivered, across all streams.
	Latency metrics.LatencySnapshot `json:"latency"`

	// WAL reports the engine's write-ahead log; absent on a non-durable
	// server.
	WAL *WALStats `json:"wal,omitempty"`
}

// WALStats is the wal section of /v1/stats: the log's counters plus the
// recovery that built this engine (zero fields when the process started
// from an empty or absent log).
type WALStats struct {
	Appended      uint64 `json:"appended"`       // records (committed batches) appended by this process
	AppendedBytes uint64 `json:"appended_bytes"` // their framed size on disk
	Fsyncs        uint64 `json:"fsyncs"`
	Rotations     uint64 `json:"rotations"`
	Compactions   uint64 `json:"compactions"`
	Segments      int    `json:"segments"`
	LastCommitGen uint64 `json:"last_commit_gen"` // newest generation on the log
	SnapshotGen   uint64 `json:"snapshot_gen"`    // latest snapshot's generation (0 = none)

	// RecoveredBatches and RecoveryMS describe the startup Recover:
	// how many logged batches were replayed and how long load+replay
	// took.
	RecoveredBatches int   `json:"recovered_batches"`
	RecoveryMS       int64 `json:"recovery_ms"`
}

// Stats returns a point-in-time snapshot (the /v1/stats payload).
func (s *Server) Stats() Stats {
	st := Stats{
		Nodes:         s.e.Graph().NumNodes(),
		Edges:         s.e.Graph().NumEdges(),
		Workers:       s.e.Workers(),
		Backend:       s.e.BackendKind(),
		Draining:      s.draining.Load(),
		StreamsTotal:  s.streamsTotal.Load(),
		ParseErrors:   s.parseErrors.Load(),
		Generation:    s.e.Generation(),
		MutateStreams: s.mutateStreams.Load(),
		OpsApplied:    s.opsApplied.Load(),
		OpsFailed:     s.opsFailed.Load(),
		Subscriptions: int(s.subsActive.Load()),
		Latency:       s.latency.Snapshot(),
	}
	if w := s.e.WAL(); w != nil {
		ws := w.Stats()
		ri := s.e.Recovered()
		st.WAL = &WALStats{
			Appended:         ws.Appended,
			AppendedBytes:    ws.AppendedBytes,
			Fsyncs:           ws.Fsyncs,
			Rotations:        ws.Rotations,
			Compactions:      ws.Compactions,
			Segments:         ws.Segments,
			LastCommitGen:    ws.LastGen,
			SnapshotGen:      ws.SnapshotGen,
			RecoveredBatches: ri.Batches,
			RecoveryMS:       ri.Duration.Milliseconds(),
		}
	}
	// Folded totals and the live scan must come from one critical
	// section: endStream moves a session from live to folded under the
	// same lock, so a stream can never fall between the two reads (the
	// aggregate counters stay monotonic across polls).
	s.mu.Lock()
	st.Submitted = s.submitted.Load()
	st.Completed = s.completed.Load()
	st.Cancelled = s.cancelled.Load()
	st.Failed = s.failed.Load()
	st.Expired = s.expired.Load()
	st.Missed = s.missed.Load()
	st.Delivered = s.delivered.Load()
	st.Dropped = s.dropped.Load()
	st.StreamsActive = len(s.live)
	for sess := range s.live {
		ss := sess.Stats()
		st.Submitted += ss.Submitted
		st.Completed += ss.Completed
		st.Cancelled += ss.Cancelled
		st.Failed += ss.Failed
		st.Expired += ss.Expired
		st.Missed += ss.Missed
		st.Delivered += ss.Delivered
		st.Dropped += ss.Dropped
		st.InFlight += ss.InFlight
		st.QueueDepth += ss.QueueDepth
	}
	s.mu.Unlock()
	return st
}

// addStream registers a live session; it reports false when the server
// is draining and the stream must be refused.
func (s *Server) addStream(sess *engine.Session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.live[sess] = struct{}{}
	s.streamsTotal.Inc()
	return true
}

// endStream unregisters a finished session and folds its final stats
// into the server totals (atomically with the removal, so Stats never
// double- or under-counts it).
func (s *Server) endStream(sess *engine.Session) {
	ss := sess.Stats()
	s.mu.Lock()
	delete(s.live, sess)
	s.submitted.Add(ss.Submitted)
	s.completed.Add(ss.Completed)
	s.cancelled.Add(ss.Cancelled)
	s.failed.Add(ss.Failed)
	s.expired.Add(ss.Expired)
	s.missed.Add(ss.Missed)
	s.delivered.Add(ss.Delivered)
	s.dropped.Add(ss.Dropped)
	if s.draining.Load() && len(s.live) == 0 && s.liveAux == 0 {
		s.signalDrained()
	}
	s.mu.Unlock()
}

// addAux registers a live sessionless stream (/v1/mutate or
// /v1/subscribe) with the drain accounting; it reports false when the
// server is draining and the stream must be refused.
func (s *Server) addAux() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.liveAux++
	return true
}

// endAux unregisters a finished sessionless stream.
func (s *Server) endAux() {
	s.mu.Lock()
	s.liveAux--
	if s.draining.Load() && len(s.live) == 0 && s.liveAux == 0 {
		s.signalDrained()
	}
	s.mu.Unlock()
}

// meta is what the query handler remembers per in-flight request: the
// wire id to echo, the compiled kind, the pattern (for rendering a PQ
// match) and the count-mode accumulator. Keyed by session id and
// deleted on delivery, so a long-lived stream holds at most
// MaxInFlight entries — the handler is its session's only submitter,
// which makes the next session id predictable and lets the meta be
// registered before Submit.
type meta struct {
	clientID uint64
	kind     string
	pq       *pattern.Query
	count    *int64
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST NDJSON request lines to /v1/query", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	// The handler reads request lines while writing response lines; on
	// HTTP/1.x the server otherwise consumes the whole body before the
	// first write, which would defeat streaming and flow control.
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	// A forced server drain must reach this stream's session.
	stopAfter := context.AfterFunc(s.base, cancel)
	defer stopAfter()
	if d := s.streamDeadline(r); d > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, d)
		defer cancelT()
	}
	// Context death (deadline, disconnect, forced drain) must also
	// unblock goroutines parked in connection I/O: a reader waiting on a
	// silent client's body, or the consumer writing to a stalled one —
	// neither read nor write is interrupted by mere cancellation. Reads
	// stop immediately; writes get a grace period so the final
	// (cancellation-tagged) response lines still reach a live client.
	var writeFailed atomic.Bool
	unblocked := make(chan struct{})
	stopUnblock := context.AfterFunc(ctx, func() {
		defer close(unblocked)
		now := time.Now()
		rc.SetReadDeadline(now)
		rc.SetWriteDeadline(now.Add(time.Second))
	})
	defer func() {
		if !stopUnblock() {
			<-unblocked // never leave the deadline callback racing the handler's return
			if !writeFailed.Load() {
				// Every write went through: lift the write deadline so the
				// response can terminate cleanly (the client then sees EOF,
				// not a truncated stream). After a failed write the client is
				// stalled or gone — keep the deadline so the server's
				// post-handler flush fails fast instead of pinning the conn.
				rc.SetWriteDeadline(time.Time{})
			}
		}
	}()

	sess := s.e.Open(ctx, engine.SessionOptions{
		MaxInFlight:      s.opts.MaxInFlight,
		ResultBuffer:     s.opts.ResultBuffer,
		AdaptiveInFlight: s.opts.AdaptiveInFlight,
	})
	if !s.addStream(sess) {
		// Draining won the race with the fast-path check above; the header
		// is not committed yet, so the refusal is a real 503, not a 200
		// with an error line a status-checking client would miss.
		sess.Close()
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	defer s.endStream(sess)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Push the headers out now: a streaming client needs them to start
	// reading responses, possibly long before the first result exists.
	rc.Flush()
	enc := wire.NewEncoder(w)
	// A failed write means the client is stalled or gone, which aborts
	// the stream's session.
	fail := func(err error) {
		if err != nil {
			writeFailed.Store(true)
			cancel()
		}
	}
	// send writes and flushes one response line from the reader.
	send := func(resp wire.Response) { fail(enc.Encode(resp)) }

	// Reader: decode request lines and submit them. Per-line errors are
	// answered inline (the encoder is concurrency-safe) and the stream
	// continues; Submit blocking on the admission bound is what stalls
	// this loop — and therefore the client's upload — when the consumer
	// is slow: back-pressure on the wire.
	var mu sync.Mutex
	metas := map[uint64]meta{}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		defer sess.Close()
		dec := wire.NewDecoder(r.Body)
		// This goroutine is the session's only submitter, so session ids
		// are its 0-based submission count — predictable, which lets the
		// meta be registered before Submit can race a completing worker.
		nextID := uint64(0)
		for {
			req, err := dec.Next()
			if err == io.EOF {
				return
			}
			var le *wire.LineError
			if errors.As(err, &le) {
				s.parseErrors.Inc()
				send(wire.Response{ID: derefID(req.ID), Err: le.Error()})
				continue
			}
			if err != nil {
				// Unreadable stream: a line decoder cannot resynchronize, so
				// this ends the stream. Only a genuine protocol failure
				// (oversized line on a live stream) counts as a parse error —
				// reads broken by the stream's own deadline, a disconnect or
				// a drain are already accounted as cancellations.
				if ctx.Err() == nil {
					s.parseErrors.Inc()
					// kind "stream" marks a failure of the stream itself, not of
					// the request whose (defaulted) id the line would carry.
					send(wire.Response{Kind: "stream", Err: "request stream aborted: " + err.Error()})
					// Drain the abandoned body to EOF (deadline-bounded):
					// a full-duplex handler that returns mid-body trips a
					// connection-reader panic in net/http on reuse.
					rc.SetReadDeadline(time.Now().Add(2 * time.Second))
					io.Copy(io.Discard, r.Body)
				}
				return
			}
			ereq, kind, cerr := req.Compile()
			if cerr != nil {
				s.parseErrors.Inc()
				send(wire.Response{ID: derefID(req.ID), Kind: kind, Err: cerr.Error()})
				continue
			}
			m := meta{clientID: derefID(req.ID), kind: kind, pq: ereq.PQ}
			if req.Count && ereq.RQ != nil {
				// The worker writes the counter during evaluation, the
				// consumer reads it after receiving the Result — ordered by
				// the results-channel hand-off.
				m.count = new(int64)
				cnt := m.count
				ereq.Emit = func(reach.Pair) bool { *cnt++; return true }
			}
			mu.Lock()
			metas[nextID] = m
			mu.Unlock()
			if _, err := sess.Submit(ctx, ereq); err != nil {
				mu.Lock()
				delete(metas, nextID)
				mu.Unlock()
				// The request was read but never admitted: answer it like any
				// other overdue request, so its id does not silently vanish
				// from the response stream.
				send(wire.Response{ID: m.clientID, Kind: m.kind, Err: err.Error()})
				return // session cancelled or closed: terminal either way
			}
			nextID++
		}
	}()

	// Consumer: stream results out in completion order. A line is
	// flushed once no further result is ready, so a burst of results
	// costs one flush and a lone result is flushed at once. A write
	// error means the client is gone — cancel the session and keep
	// draining so its workers can finish.
	results := sess.Results()
	for res, ok := <-results; ok; {
		mu.Lock()
		m := metas[res.ID]
		delete(metas, res.ID) // bounded by in-flight requests, not stream lifetime
		mu.Unlock()
		streamed := 0
		if m.count != nil {
			streamed = int(*m.count)
		}
		resp := wire.FromResult(res, m.kind, m.pq, streamed)
		resp.ID = m.clientID
		if res.Err == nil {
			s.latency.Observe(res.Elapsed)
		}
		fail(enc.Write(resp))
		select {
		case res, ok = <-results:
			if ok {
				continue
			}
		default:
		}
		fail(enc.Flush())
		if ok {
			res, ok = <-results
		}
	}
	<-readerDone
}

// streamDeadline resolves the effective deadline for one query stream:
// the client's ?timeout_ms, capped by (and defaulting to) the server's
// StreamTimeout. Zero means no deadline.
func (s *Server) streamDeadline(r *http.Request) time.Duration {
	d := s.opts.StreamTimeout
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		// Clamp before multiplying: a huge ms would overflow the Duration
		// to a negative value and silently disable the server's cap.
		const maxMS = int64(24 * time.Hour / time.Millisecond)
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			if ms > maxMS {
				ms = maxMS
			}
			if req := time.Duration(ms) * time.Millisecond; d == 0 || req < d {
				d = req
			}
		}
	}
	return d
}

func derefID(id *uint64) uint64 {
	if id == nil {
		return 0
	}
	return *id
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET /v1/stats", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, s.Stats())
}

// handleHealth is liveness: the process is up and serving HTTP. It
// stays 200 through a drain — readiness is /readyz's job, and a
// liveness-probing supervisor must not kill a server that is busy
// flushing its last streams.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReady is readiness: whether new query streams are admitted.
// It flips to 503 the moment drain begins — before /v1/query starts
// refusing — so a health-probing router routes away first. The
// Retry-After hint is nominal; a drain is terminal for this process,
// but the header marks the 503 as a polite back-off, not an error.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// writeJSON writes v as indented JSON with a trailing newline.
func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
