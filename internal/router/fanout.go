package router

// This file is the per-stream fan-out/fan-in machine: one fanout per
// client POST /v1/query, one upstream per (stream, replica) it
// dispatches to. The invariant everything here serves:
//
//	every admitted request id is answered to the client EXACTLY once —
//	by whichever replica copy lands first, by a retried copy, or by a
//	router-synthesized "unavailable"/"canceled" shed — no matter which
//	replicas die, stall, or answer twice.
//
// The pending map is the single source of truth: an id is answered
// precisely when it leaves the map, and every exit point (deliver,
// shed, stream cancellation) removes it under f.mu before writing to
// the client. Replica responses for ids no longer in the map are
// counted as dup_suppressed and dropped — that is the fan-in dedup
// that makes hedging and retry safe.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"regraph/internal/wire"
)

// errStalled marks an upstream failed by the no-progress watchdog.
var errStalled = errors.New("router: upstream stalled past StallTimeout")

// pending is one admitted-but-unanswered client request. All fields
// are guarded by fanout.mu.
type pending struct {
	id       uint64 // router-internal id, unique per stream
	clientID uint64 // the id to echo on the client's response line
	req      wire.Request
	attempts int // dispatches so far (first + retries + hedges)
	done     bool
	// owners are the upstreams with a live copy of this request; a
	// request is only rescheduled when its last owner fails.
	owners       map[*upstream]struct{}
	retryPending bool
	retryTimer   *time.Timer
	hedgeTimer   *time.Timer
}

// stopTimers stops any armed retry/hedge timer (already-fired
// callbacks no-op on p.done / f.finished).
func (p *pending) stopTimers() {
	if p.retryTimer != nil {
		p.retryTimer.Stop()
		p.retryTimer = nil
	}
	if p.hedgeTimer != nil {
		p.hedgeTimer.Stop()
		p.hedgeTimer = nil
	}
}

// dispatch kinds.
const (
	dispatchFirst = iota
	dispatchRetry
	dispatchHedge
)

// fanout runs one client stream.
type fanout struct {
	rt     *Router
	ctx    context.Context
	cancel context.CancelFunc
	enc    *wire.Encoder

	mu       sync.Mutex
	cond     *sync.Cond // waits for open < MaxInFlight
	nextID   uint64
	open     int // admitted, unanswered
	pending  map[uint64]*pending
	ups      map[*replica]*upstream // live upstream per replica
	upList   []*upstream            // every upstream ever created (shutdown wait)
	readerD  bool                   // client reader hit EOF
	finished bool

	done        chan struct{} // closed when readerD && open == 0
	watchdogEnd chan struct{}
	writeFailed atomic.Bool
}

func newFanout(rt *Router, ctx context.Context, cancel context.CancelFunc, w io.Writer) *fanout {
	f := &fanout{
		rt:          rt,
		ctx:         ctx,
		cancel:      cancel,
		enc:         wire.NewEncoder(w),
		pending:     map[uint64]*pending{},
		ups:         map[*replica]*upstream{},
		done:        make(chan struct{}),
		watchdogEnd: make(chan struct{}),
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// send writes one response line to the client; a failed write means
// the client is stalled or gone, which cancels the stream. Never
// called with f.mu held (the write can block on the client). One
// goroutine per upstream sends, so lines that are ready together share
// a flush: Encode leaves it to a writer already waiting for the
// encoder, and the last one flushes.
func (f *fanout) send(resp wire.Response) {
	if err := f.enc.Encode(resp); err != nil {
		f.writeFailed.Store(true)
		f.cancel()
	}
}

// run reads the client's request lines, dispatches them, and blocks
// until every admitted id has been answered (or the stream dies).
func (f *fanout) run(body io.Reader) {
	// The admission wait below must wake on stream death.
	stopWake := context.AfterFunc(f.ctx, func() {
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	})
	defer stopWake()
	go f.watchdog()

	dec := wire.NewDecoder(body)
	for {
		req, err := dec.Next()
		if err == io.EOF {
			break
		}
		var le *wire.LineError
		if errors.As(err, &le) {
			f.rt.parseErrors.Inc()
			f.send(wire.Response{ID: derefID(req.ID), Err: le.Error()})
			continue
		}
		if err != nil {
			if f.ctx.Err() == nil {
				f.rt.parseErrors.Inc()
				f.send(wire.Response{Kind: "stream", Err: "request stream aborted: " + err.Error()})
			}
			break
		}
		// Admission: bound this stream's unanswered requests; once full,
		// stop reading the body and let TCP back-pressure reach the
		// client, exactly like the single-server session bound.
		f.mu.Lock()
		for f.open >= f.rt.opts.MaxInFlight && f.ctx.Err() == nil {
			f.cond.Wait()
		}
		if f.ctx.Err() != nil {
			f.mu.Unlock()
			break
		}
		p := &pending{
			id:       f.nextID,
			clientID: derefID(req.ID),
			req:      req,
			owners:   map[*upstream]struct{}{},
		}
		// Replicas see the router's internal id (unique per upstream
		// stream even when the client reuses ids); the client id is
		// restored at fan-in.
		p.req.ID = &p.id
		f.nextID++
		f.pending[p.id] = p
		f.open++
		f.rt.requests.Inc()
		f.mu.Unlock()
		f.dispatch(p, nil, dispatchFirst)
	}

	f.mu.Lock()
	f.readerD = true
	f.maybeFinishLocked()
	f.mu.Unlock()
	select {
	case <-f.done:
		f.shutdown(true)
	case <-f.ctx.Done():
		f.shutdown(false)
	}
}

// maybeFinishLocked closes done when the client has stopped sending
// and nothing is unanswered. Caller holds f.mu.
func (f *fanout) maybeFinishLocked() {
	if f.readerD && f.open == 0 && !f.finished {
		f.finished = true
		close(f.done)
	}
}

// shutdown tears the stream down: close upstream request bodies (a
// clean EOF lets replicas end their response streams), wait briefly,
// then cancel whatever is left. graceful is false when the stream died
// (client gone, drain forced, timeout): any still-pending ids are then
// answered with a canceled line inside the handler's write grace, so
// the client sees a terminated protocol, not a torn TCP stream.
func (f *fanout) shutdown(graceful bool) {
	f.mu.Lock()
	f.finished = true
	ups := f.upList
	var canceled []wire.Response
	for _, p := range f.pending {
		p.stopTimers()
		if !p.done {
			p.done = true
			canceled = append(canceled, wire.Response{
				ID:      p.clientID,
				Err:     "router: stream canceled before the request was answered",
				ErrKind: "canceled",
			})
		}
	}
	f.pending = map[uint64]*pending{}
	f.open = 0
	f.cond.Broadcast()
	f.mu.Unlock()

	for _, r := range canceled {
		f.send(r)
	}
	for _, up := range ups {
		up.pw.Close()
	}
	if graceful {
		grace := time.NewTimer(5 * time.Second)
		defer grace.Stop()
	wait:
		for _, up := range ups {
			select {
			case <-up.done:
			case <-grace.C:
				break wait
			}
		}
	}
	for _, up := range ups {
		up.cancel()
	}
	for _, up := range ups {
		<-up.done
	}
	<-f.watchdogEnd
}

// watchdog fails upstreams that hold unanswered requests but have made
// no progress for StallTimeout — the failover trigger for a wedged
// connection that neither errors nor answers.
func (f *fanout) watchdog() {
	defer close(f.watchdogEnd)
	period := f.rt.opts.StallTimeout / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-f.ctx.Done():
			return
		case <-f.done:
			return
		case <-t.C:
		}
		cutoff := time.Now().Add(-f.rt.opts.StallTimeout).UnixNano()
		var stalled []*upstream
		f.mu.Lock()
		for _, up := range f.ups {
			if len(up.submitted) > 0 && up.lastProgress.Load() < cutoff {
				stalled = append(stalled, up)
			}
		}
		f.mu.Unlock()
		for _, up := range stalled {
			f.failUpstream(up, errStalled)
		}
	}
}

// dispatch sends p to a replica. avoid, when non-nil, is the replica
// that just failed it (preferred excluded, but allowed as a last
// resort — it may be the only one left). kind selects first/retry/
// hedge accounting; a hedge that finds no candidate is silently
// dropped, anything else sheds the request with "unavailable".
func (f *fanout) dispatch(p *pending, avoid *replica, kind int) {
	f.mu.Lock()
	if p.done || f.finished || f.ctx.Err() != nil {
		f.mu.Unlock()
		return
	}
	exclude := make(map[*replica]bool, len(p.owners)+1)
	for up := range p.owners {
		exclude[up.rep] = true
	}
	if avoid != nil {
		exclude[avoid] = true
	}
	rep := f.rt.pick(exclude)
	if rep == nil && avoid != nil {
		// Nothing else can serve; re-admit the replica that just failed
		// this request — one desperate re-dispatch beats a shed.
		delete(exclude, avoid)
		rep = f.rt.pick(exclude)
	}
	if rep == nil {
		if kind == dispatchHedge {
			f.mu.Unlock()
			return // the original copy is still in flight
		}
		out := f.shedLocked(p)
		f.mu.Unlock()
		if out != nil {
			f.send(*out)
		}
		return
	}
	up := f.upstreamForLocked(rep)
	up.submitted[p.id] = struct{}{}
	p.owners[up] = struct{}{}
	p.attempts++
	rep.inflight.Add(1)
	rep.requests.Inc()
	if kind == dispatchFirst && f.rt.opts.HedgeAfter > 0 && p.hedgeTimer == nil {
		p.hedgeTimer = time.AfterFunc(f.rt.opts.HedgeAfter, func() { f.hedge(p) })
	}
	line := p.req // struct copy; ID still points at p.id, which never moves
	f.mu.Unlock()

	// The pipe write blocks while the replica applies back-pressure;
	// never under f.mu. A failed write fails the whole upstream (the
	// transport is gone or the stream is shutting down).
	if err := up.write(line); err != nil {
		f.failUpstream(up, fmt.Errorf("router: write to %s: %w", rep.url, err))
	}
}

// shedLocked answers p with error_kind "unavailable" (returned for the
// caller to send after unlocking). Caller holds f.mu.
func (f *fanout) shedLocked(p *pending) *wire.Response {
	if p.done {
		return nil
	}
	p.done = true
	p.stopTimers()
	delete(f.pending, p.id)
	f.open--
	f.cond.Broadcast()
	f.rt.unavailable.Inc()
	f.maybeFinishLocked()
	return &wire.Response{
		ID:      p.clientID,
		Err:     "router: no live replica available",
		ErrKind: wire.ErrKindUnavailable,
	}
}

// hedge fires when p's first dispatch has not answered within
// HedgeAfter: dispatch a speculative duplicate to a second replica,
// budget permitting.
func (f *fanout) hedge(p *pending) {
	f.mu.Lock()
	if p.done || f.finished || f.ctx.Err() != nil || p.attempts >= f.rt.opts.MaxAttempts {
		f.mu.Unlock()
		return
	}
	f.mu.Unlock()
	if !f.rt.budget.take(time.Now()) {
		f.rt.budgetDenied.Inc()
		return
	}
	f.rt.hedges.Inc()
	f.dispatch(p, nil, dispatchHedge)
}

// scheduleRetryLocked arms a backoff-delayed re-dispatch of p after a
// failure charged to failed. False means the retry policy refuses
// (attempts exhausted, budget empty, stream ending) and the caller
// must shed or surface instead. Caller holds f.mu.
func (f *fanout) scheduleRetryLocked(p *pending, failed *replica) bool {
	if p.done || f.finished || f.ctx.Err() != nil {
		return false
	}
	if p.retryPending {
		return true // a retry is already armed; don't double-schedule
	}
	if p.attempts >= f.rt.opts.MaxAttempts {
		return false
	}
	if !f.rt.budget.take(time.Now()) {
		f.rt.budgetDenied.Inc()
		return false
	}
	f.rt.retries.Inc()
	p.retryPending = true
	delay := f.rt.backoff(p.attempts)
	p.retryTimer = time.AfterFunc(delay, func() {
		f.mu.Lock()
		p.retryPending = false
		p.retryTimer = nil
		f.mu.Unlock()
		f.dispatch(p, failed, dispatchRetry)
	})
	return true
}

// deliver fans one replica response in. Exactly-once: the first
// response for a pending id wins and removes it; anything else (a
// slower hedge, a retry that raced its original) is dropped as
// dup_suppressed.
func (f *fanout) deliver(up *upstream, resp wire.Response) {
	f.mu.Lock()
	if _, ok := up.submitted[resp.ID]; ok {
		delete(up.submitted, resp.ID)
		up.rep.inflight.Add(-1)
	}
	p := f.pending[resp.ID]
	if p == nil || p.done || f.finished {
		f.mu.Unlock()
		f.rt.dups.Inc()
		up.rep.onSuccess()
		return
	}
	delete(p.owners, up)
	// A replica that cancels a request (it is draining or shutting
	// down) did not answer it — re-dispatch elsewhere instead of
	// surfacing the cancellation, budget permitting.
	if resp.ErrKind == "canceled" && f.scheduleRetryLocked(p, up.rep) {
		f.mu.Unlock()
		up.rep.onSuccess()
		return
	}
	p.done = true
	p.stopTimers()
	delete(f.pending, p.id)
	f.open--
	f.cond.Broadcast()
	out := resp
	out.ID = p.clientID
	f.maybeFinishLocked()
	f.mu.Unlock()
	up.rep.onSuccess()
	f.send(out)
}

// failUpstream declares one upstream dead (transport error, bad
// status, stall, torn stream) and re-dispatches every id it still
// owed. Ids whose last owner it was are retried under the budget or
// shed "unavailable"; ids with a live hedge copy elsewhere just lose
// an owner.
func (f *fanout) failUpstream(up *upstream, err error) {
	f.mu.Lock()
	if up.dead {
		f.mu.Unlock()
		return
	}
	up.dead = true
	if f.ups[up.rep] == up {
		delete(f.ups, up.rep)
	}
	orphans := up.submitted
	up.submitted = map[uint64]struct{}{}
	up.rep.inflight.Add(-int64(len(orphans)))
	var sheds []wire.Response
	for id := range orphans {
		p := f.pending[id]
		if p == nil || p.done {
			continue
		}
		delete(p.owners, up)
		if len(p.owners) > 0 {
			continue // a hedged copy is still live elsewhere
		}
		if f.scheduleRetryLocked(p, up.rep) {
			continue // the retry timer re-dispatches it
		}
		if out := f.shedLocked(p); out != nil {
			sheds = append(sheds, *out)
		}
	}
	f.mu.Unlock()

	up.rep.onFailure(time.Now())
	up.close()
	for _, r := range sheds {
		f.send(r)
	}
}

// upstream is one POST /v1/query to one replica on behalf of one
// client stream: a pipe-bodied request whose reader goroutine fans
// responses back in.
type upstream struct {
	f      *fanout
	rep    *replica
	ctx    context.Context
	cancel context.CancelFunc
	pw     *io.PipeWriter

	sendMu sync.Mutex
	enc    *json.Encoder

	// submitted is the set of router ids sent and not yet answered —
	// exactly what failover must re-dispatch. Guarded by f.mu, as is
	// dead.
	submitted map[uint64]struct{}
	dead      bool

	// lastProgress (unix nanos) advances on every request written and
	// every response line read; the watchdog compares it to
	// StallTimeout.
	lastProgress atomic.Int64

	done chan struct{} // reader goroutine exited
}

// upstreamForLocked returns the live upstream for rep, creating it
// (and its reader goroutine) on first use. Caller holds f.mu.
func (f *fanout) upstreamForLocked(rep *replica) *upstream {
	if up, ok := f.ups[rep]; ok {
		return up
	}
	ctx, cancel := context.WithCancel(f.ctx)
	pr, pw := io.Pipe()
	up := &upstream{
		f:         f,
		rep:       rep,
		ctx:       ctx,
		cancel:    cancel,
		pw:        pw,
		enc:       json.NewEncoder(pw),
		submitted: map[uint64]struct{}{},
		done:      make(chan struct{}),
	}
	up.progress()
	f.ups[rep] = up
	f.upList = append(f.upList, up)
	go up.run(pr)
	return up
}

func (up *upstream) progress() { up.lastProgress.Store(time.Now().UnixNano()) }

// write sends one request line up the pipe; it blocks while the
// replica applies back-pressure.
func (up *upstream) write(req wire.Request) error {
	up.sendMu.Lock()
	defer up.sendMu.Unlock()
	err := up.enc.Encode(&req)
	if err == nil {
		up.progress()
	}
	return err
}

// close tears the transport down: cancel the request context and snap
// the body pipe so any blocked write unblocks.
func (up *upstream) close() {
	up.cancel()
	up.pw.CloseWithError(errors.New("router: upstream failed"))
}

// run issues the POST and fans response lines back in until the stream
// ends. Any abnormal end (transport error, non-200, torn stream,
// unparseable line, or EOF with unanswered ids) fails the upstream.
func (up *upstream) run(pr *io.PipeReader) {
	defer close(up.done)
	req, err := http.NewRequestWithContext(up.ctx, http.MethodPost, up.rep.url+"/v1/query", pr)
	if err != nil {
		pr.CloseWithError(err)
		up.f.failUpstream(up, err)
		return
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := up.f.rt.client.Do(req)
	if err != nil {
		pr.CloseWithError(err)
		up.f.failUpstream(up, fmt.Errorf("router: %s: %w", up.rep.url, err))
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		up.f.failUpstream(up, fmt.Errorf("router: %s: %s: %s",
			up.rep.url, resp.Status, bytes.TrimSpace(body)))
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), wire.MaxResponseLineBytes)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		up.progress()
		var wresp wire.Response
		if err := json.Unmarshal(line, &wresp); err != nil {
			up.f.failUpstream(up, fmt.Errorf("router: %s: bad response line: %w", up.rep.url, err))
			return
		}
		if wresp.Kind == "stream" {
			// The replica's stream itself failed; its id is meaningless
			// and everything unanswered needs a new home.
			up.f.failUpstream(up, fmt.Errorf("router: %s: upstream stream error: %s", up.rep.url, wresp.Err))
			return
		}
		up.f.deliver(up, wresp)
	}
	err = sc.Err()
	up.f.mu.Lock()
	owed := len(up.submitted)
	up.f.mu.Unlock()
	if err != nil || owed > 0 {
		if err == nil {
			err = fmt.Errorf("router: %s: stream closed with %d unanswered requests", up.rep.url, owed)
		}
		up.f.failUpstream(up, err)
		return
	}
	// Clean end (the replica drained after our EOF): retire quietly.
	up.f.mu.Lock()
	up.dead = true
	if up.f.ups[up.rep] == up {
		delete(up.f.ups, up.rep)
	}
	up.f.mu.Unlock()
}

// handleQuery is POST /v1/query: the same stream contract as
// internal/server, served by fan-out.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST NDJSON request lines to /v1/query", http.StatusMethodNotAllowed)
		return
	}
	if rt.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	// Full duplex + unstick deadlines: identical reasoning to
	// internal/server — reads stop the moment the stream dies, writes
	// get a grace period so final error-tagged lines still land.
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stopAfter := context.AfterFunc(rt.base, cancel)
	defer stopAfter()

	f := newFanout(rt, ctx, cancel, w)
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
			if !f.writeFailed.Load() {
				rc.SetWriteDeadline(time.Time{})
			}
		}
	}()

	if !rt.addStream() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	defer rt.endStream()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc.Flush()
	f.run(r.Body)
}

func derefID(id *uint64) uint64 {
	if id == nil {
		return 0
	}
	return *id
}
