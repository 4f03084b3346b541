package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"regraph/internal/engine"
	"regraph/internal/mutate"
	"regraph/internal/wire"
)

// defaultMutateBatch is the Options.MutateBatch default: how many ops
// one /v1/mutate stream folds into a single committed generation.
const defaultMutateBatch = 1024

// handleMutate serves POST /v1/mutate: NDJSON mutation lines in
// (internal/mutate — JSON ops or the qlang text form), ack lines out as
// each chunk commits, one trailing summary. Ops are grouped into
// chunks of at most MutateBatch and each chunk is one Submit to the
// stream's WriteSession — one atomic generation; malformed lines get
// error acks and the stream continues, exactly like the query
// endpoint's per-line errors. The session's admission window
// (MaxPendingOps/MaxPendingBytes) is the write path's flow control: a
// full window stalls the decode loop, which stalls the body read, and
// TCP back-pressure reaches the client — the mirror of the read path's
// MaxInFlight. Only an unreadable stream (oversized line, dead
// connection) or a write-path failure (WAL append error) ends it
// early, tagged in the summary's error field — and even then the
// trailing summary still reports the counts of everything that did
// commit.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST NDJSON mutation lines to /v1/mutate", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	// The empty batch cannot fail: it reads the current generation's
	// shape, for a summary of a stream that commits nothing.
	probe, _ := s.e.Apply(nil)
	if !s.addAux() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	defer s.endAux()
	s.mutateStreams.Inc()

	// Same full-duplex and unblocking dance as handleQuery: acks stream
	// out while ops stream in, and context death (disconnect, forced
	// drain) must unhook goroutines parked in connection I/O.
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stopAfter := context.AfterFunc(s.base, cancel)
	defer stopAfter()
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
			<-unblocked
			if !writeFailed.Load() {
				rc.SetWriteDeadline(time.Time{})
			}
		}
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc.Flush()
	enc := wire.NewEncoder(w)
	send := func(v any) {
		if writeFailed.Load() {
			return
		}
		if err := enc.Encode(v); err != nil {
			writeFailed.Store(true)
			cancel()
		}
	}

	batch := s.opts.MutateBatch
	if batch <= 0 {
		batch = defaultMutateBatch
	}
	sum := mutate.Summary{
		Kind: mutate.SummaryKind,
		Gen:  probe.Gen, Nodes: probe.Nodes, Edges: probe.Edges,
	}

	ws := s.e.OpenWriter(ctx, engine.WriterOptions{
		MaxPendingOps:   s.opts.MaxPendingOps,
		MaxPendingBytes: s.opts.MaxPendingBytes,
	})
	defer ws.Close()

	// Consumer: drain commits as the applier produces them, streaming
	// each batch's acks and folding its totals. Concurrent with the
	// decode loop, so acks reach the client while later chunks are still
	// uploading; the totals are read only after consumerDone.
	var (
		applied, failed int
		lastCommit      engine.Commit
		haveCommit      bool
		commitErr       error
	)
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for wc := range ws.Commits() {
			if wc.Err != nil {
				// Sticky write-path failure (WAL append, engine refusal):
				// remember the first, keep draining so held capacity frees.
				if commitErr == nil {
					commitErr = wc.Err
				}
				continue
			}
			s.opsApplied.Add(uint64(wc.Commit.Applied))
			s.opsFailed.Add(uint64(wc.Commit.Failed))
			applied += wc.Commit.Applied
			failed += wc.Commit.Failed
			lastCommit, haveCommit = wc.Commit, true
			for _, a := range wc.Commit.Acks {
				send(a)
			}
		}
	}()

	dec := mutate.NewDecoder(r.Body)
	var ops []mutate.Op
	mark := dec.Consumed()
	parseFailed := 0
	// submit hands the pending chunk to the write session (one Submit =
	// one generation), blocking on the admission window. A Submit error
	// — sticky write failure, cancellation, drain — is terminal.
	submit := func() bool {
		if len(ops) == 0 {
			return true
		}
		nbytes := dec.Consumed() - mark
		mark = dec.Consumed()
		err := ws.Submit(ctx, ops, nbytes)
		ops = nil // the session owns the slice until delivery
		if err != nil {
			if sum.Err == "" {
				sum.Err = err.Error()
			}
			return false
		}
		return true
	}

	for sum.Err == "" && !writeFailed.Load() {
		op, err := dec.Next()
		if err == io.EOF {
			break
		}
		var le *mutate.LineError
		if errors.As(err, &le) {
			// Recoverable: the line got an ordinal id from the decoder;
			// ack it as failed and keep reading.
			s.parseErrors.Inc()
			s.opsFailed.Inc()
			parseFailed++
			var id uint64
			if op.ID != nil {
				id = *op.ID
			}
			send(mutate.Ack{ID: id, Verb: op.Verb, Err: le.Error()})
			continue
		}
		if err != nil {
			// Unreadable stream: submit what was read, then report. Reads
			// broken by a disconnect or drain are not protocol failures.
			if ctx.Err() == nil {
				s.parseErrors.Inc()
				submit()
				if sum.Err == "" {
					sum.Err = "mutation stream aborted: " + err.Error()
				}
			} else {
				submit()
				if sum.Err == "" {
					sum.Err = "mutation stream canceled"
				}
			}
			break
		}
		ops = append(ops, op)
		if len(ops) >= batch {
			submit()
		}
	}
	submit()

	// Close admission and wait for every submitted chunk's outcome: the
	// summary must account for everything that committed, even when the
	// stream died mid-way (the oversized-line contract).
	ws.Close()
	<-consumerDone

	// A stream that died mid-body (oversized line, write-path failure)
	// leaves unread input. Read it to EOF — bounded by a read deadline —
	// before returning: net/http's connection reader panics on reuse
	// when a full-duplex handler abandons a half-read body, and the
	// drain happens after every commit is acked so the client sees the
	// complete response either way.
	if sum.Err != "" && ctx.Err() == nil && !writeFailed.Load() {
		rc.SetReadDeadline(time.Now().Add(2 * time.Second))
		io.Copy(io.Discard, r.Body)
	}
	sum.Applied = applied
	sum.Failed = failed + parseFailed
	if haveCommit {
		sum.Gen, sum.Nodes, sum.Edges = lastCommit.Gen, lastCommit.Nodes, lastCommit.Edges
	}
	if sum.Err == "" && commitErr != nil {
		sum.Err = commitErr.Error()
	}
	send(sum)
}

// handleSubscribe serves POST /v1/subscribe: the first NDJSON line is a
// wire request naming a pattern (pq), the response is a standing-query
// stream — an init line with the full answer at the subscription
// generation, a delta line for every committed mutation batch that
// changes it, and a final end line. The stream ends when the client
// goes away, when the consumer lags more than SubscribeBuffer commits
// behind (end error "lagged" — re-subscribe for a fresh snapshot), or
// when the server drains (end error "draining").
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST one NDJSON pattern request line to /v1/subscribe", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	req, err := wire.NewDecoder(r.Body).Next()
	if err != nil {
		s.parseErrors.Inc()
		http.Error(w, "subscribe: "+err.Error(), http.StatusBadRequest)
		return
	}
	ereq, kind, cerr := req.Compile()
	if cerr != nil {
		s.parseErrors.Inc()
		http.Error(w, "subscribe: "+cerr.Error(), http.StatusBadRequest)
		return
	}
	if kind != "pq" || ereq.PQ == nil {
		http.Error(w, "subscribe: the request line must carry a pattern (pq)", http.StatusBadRequest)
		return
	}
	if !s.addAux() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	defer s.endAux()
	st, err := s.e.Subscribe(ereq.PQ, s.opts.SubscribeBuffer)
	if err != nil {
		http.Error(w, "subscribe: "+err.Error(), http.StatusBadRequest)
		return
	}
	defer st.Close()
	s.subsTotal.Inc()
	s.subsActive.Add(1)
	defer s.subsActive.Add(-1)

	// The stream lives until the client disconnects or a drain begins —
	// subsCtx (not base) so even a graceful drain releases it. The
	// deadline dance unhooks a blocked write to a stalled client, with a
	// grace period so the end line still reaches a live one.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stopAfter := context.AfterFunc(s.subsCtx, cancel)
	defer stopAfter()
	var writeFailed atomic.Bool
	unblocked := make(chan struct{})
	stopUnblock := context.AfterFunc(ctx, func() {
		defer close(unblocked)
		now := time.Now()
		rc := http.NewResponseController(w)
		rc.SetReadDeadline(now)
		rc.SetWriteDeadline(now.Add(time.Second))
	})
	defer func() {
		if !stopUnblock() {
			<-unblocked
		}
	}()

	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc.Flush()
	enc := wire.NewEncoder(w)
	send := func(d wire.Delta) bool {
		if writeFailed.Load() {
			return false
		}
		if err := enc.Encode(d); err != nil {
			writeFailed.Store(true)
			cancel()
			return false
		}
		return true
	}

	q := st.Query()
	gen, res := st.Init()
	if !send(wire.Delta{Gen: gen, Kind: wire.DeltaInit, Count: res.Size(), Match: wire.MatchOf(q, res)}) {
		return
	}
	lastGen := gen
	for {
		select {
		case <-ctx.Done():
			// Client gone, or the server is draining. Close first so no
			// further updates race the end line; the write deadline set by
			// the unblock callback bounds the best-effort send.
			st.Close()
			end := wire.Delta{Gen: lastGen, Kind: wire.DeltaEnd}
			if s.draining.Load() {
				end.Err = "draining"
			}
			send(end)
			return
		case u, ok := <-st.Updates():
			if !ok {
				end := wire.Delta{Gen: lastGen, Kind: wire.DeltaEnd}
				if st.Lagged() {
					end.Err = "lagged"
				}
				send(end)
				return
			}
			lastGen = u.Gen
			if !send(wire.Delta{
				Gen:     u.Gen,
				Kind:    wire.DeltaDelta,
				Count:   u.Result.Size(),
				Added:   wire.DeltaEdges(q, u.Added),
				Removed: wire.DeltaEdges(q, u.Removed),
			}) {
				return
			}
		}
	}
}
