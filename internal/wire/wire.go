// Package wire defines the NDJSON wire format shared by the HTTP query
// service (internal/server, cmd/rgserve) and the CLI clients
// (cmd/rgquery -stream and -remote): one JSON object per line, requests
// in, responses out, streamed in completion order.
//
// A request line names exactly one query — a reachability query as its
// three text fields, or a pattern query as embedded qlang text:
//
//	{"id":1,"rq":{"from":"job = doctor","to":"*","expr":"fa{2} fn"}}
//	{"id":2,"pq":"node A *\nnode B job = doctor\nedge A B fn+"}
//	{"id":3,"rq":{"from":"*","to":"*","expr":"_+"},"count":true}
//	{"id":4,"rq":{"expr":"fn"},"priority":6,"deadline_ms":250}
//
// The id is optional; lines without one are numbered by their ordinal
// (0-based) in the stream. "count":true asks for the answer cardinality
// only — the service streams pairs through an Emit callback and never
// materializes them, so huge answers cost no resident memory.
// "priority" and "deadline_ms" are the QoS knobs: the scheduling band
// and the latency budget from server receipt (see Request); a request
// whose budget runs out before evaluation is shed with error_kind
// "shed".
//
// A response line echoes the id and carries the answer, a structured
// per-line error, and the evaluation latency:
//
//	{"id":1,"kind":"rq","count":2,"pairs":[[0,3],[7,3]],"latency_us":412}
//	{"id":2,"kind":"pq","count":1,"match":[{"from":"A","to":"B","expr":"fn+","pairs":[[4,9]]}],"latency_us":88}
//	{"id":3,"error":"qlang: rq expr: ...","latency_us":0}
//
// Malformed lines yield an error response for that line only; the
// stream continues. The schema is covered by golden-file tests
// (testdata/*.golden) — change it there first.
//
// Request lines of exactly this shape are decoded without reflection;
// any other line (unknown or case-variant keys, duplicates, null,
// fractions, surrogate escapes, malformed input) is decoded by
// encoding/json, which stays the reference for both the result and the
// per-line error text. The Encoder flushes once per burst of ready
// lines, never on a timer (see Encoder).
package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"regraph/internal/engine"
	"regraph/internal/pattern"
	"regraph/internal/qlang"
	"regraph/internal/reach"
)

// MaxLineBytes bounds one NDJSON request line; longer lines are a
// stream-level error, because a line-oriented reader cannot
// resynchronize past an oversized record.
const MaxLineBytes = 1 << 20

// MaxResponseLineBytes is the response-side scanner bound for clients.
// A materialized RQ answer legitimately grows with the graph (tens of
// bytes per pair), so response lines get far more headroom than
// request lines; clients that expect huge answers should send
// "count":true or page their queries instead of raising this further.
const MaxResponseLineBytes = 64 << 20

// Request is one NDJSON request line: exactly one of RQ/PQ must be set.
type Request struct {
	// ID tags the request's response. Optional: when absent the decoder
	// assigns the line's 0-based ordinal in the stream.
	ID *uint64 `json:"id,omitempty"`

	// RQ is a reachability query given as its three text fields.
	RQ *RQSpec `json:"rq,omitempty"`

	// PQ is a pattern query as qlang text (newline-separated node/edge
	// declarations; see internal/qlang).
	PQ string `json:"pq,omitempty"`

	// Count, on an RQ, requests only the answer cardinality: the service
	// counts pairs through a streaming Emit callback and the response
	// carries count but no pairs array. Invalid on a PQ.
	Count bool `json:"count,omitempty"`

	// Priority selects the session scheduling band (engine.Request.
	// Priority): higher values receive proportionally more of the
	// workers under contention; values clamp to [0, engine.MaxPriority].
	// Zero — the default — is the lowest band.
	Priority int `json:"priority,omitempty"`

	// DeadlineMS is the request's latency budget in milliseconds,
	// counted from the moment the server compiles the line (wall-clock
	// deadlines don't survive clock skew between client and server; a
	// relative budget does). A request still queued when the budget runs
	// out is shed with error_kind "shed" instead of being evaluated; one
	// mid-evaluation is abandoned with error_kind "deadline". Zero means
	// no deadline; negative is a per-line error.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// RQSpec is the textual form of a reachability query (the syntax of
// qlang.ParseRQ: predicates may be "*" or empty for always-true).
type RQSpec struct {
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	Expr string `json:"expr"`
}

// Response is one NDJSON response line.
type Response struct {
	// ID echoes the request id (or the line ordinal when none was given).
	ID uint64 `json:"id"`

	// Kind is "rq" or "pq"; empty when the line never compiled to a
	// query. The sentinel "stream" marks an error of the stream itself
	// (unreadable request body) rather than of the request whose id the
	// line carries — id is meaningless on such lines.
	Kind string `json:"kind,omitempty"`

	// Query optionally echoes the query's text form (rgquery -stream sets
	// it; the server leaves it empty — clients have the request line).
	Query string `json:"query,omitempty"`

	// Count is the total number of answer pairs (across all pattern
	// edges for a PQ). Present even when pairs were streamed, not sent.
	Count int `json:"count"`

	// Pairs is the RQ answer as [from,to] node-id pairs; omitted for
	// count-only requests, PQs and empty answers.
	Pairs [][2]int64 `json:"pairs,omitempty"`

	// Match is the PQ answer: one entry per pattern edge.
	Match []MatchEdge `json:"match,omitempty"`

	// Err is the structured per-line error: a parse/compile failure, an
	// evaluation error, or a cancellation (deadline, shutdown).
	Err string `json:"error,omitempty"`

	// ErrKind classifies Err for programmatic handling: "shed" (the
	// deadline budget expired before evaluation began — the request was
	// never run), "deadline" (evaluation was abandoned at the deadline),
	// "canceled" (session or stream cancellation), "unavailable" (the
	// replica router exhausted its retry policy or found no live replica
	// — the request was shed at the routing tier, not evaluated). Empty
	// for success and for parse/evaluation errors.
	ErrKind string `json:"error_kind,omitempty"`

	// LatencyUS is the evaluation time in microseconds, excluding queue
	// wait; zero for requests that never ran.
	LatencyUS float64 `json:"latency_us"`
}

// MatchEdge is one pattern edge's match set in a PQ response.
type MatchEdge struct {
	From  string     `json:"from"`
	To    string     `json:"to"`
	Expr  string     `json:"expr"`
	Pairs [][2]int64 `json:"pairs"`
}

// Delta kinds (Delta.Kind): the three line shapes of a /v1/subscribe
// stream.
const (
	DeltaInit  = "init"  // subscription snapshot: full answer at Gen
	DeltaDelta = "delta" // one committed batch changed the answer
	DeltaEnd   = "end"   // stream over; Err says why when abnormal
)

// Delta is one NDJSON line of a standing-query stream (POST
// /v1/subscribe). The first line is always kind "init" — the full
// answer at the generation the subscription registered against. Every
// later "delta" line reports one committed mutation batch that changed
// the answer: Count and Match describe the full answer at Gen, while
// Added and Removed list, per pattern edge, exactly the pairs that
// entered and left it since the previous line (edges with no change are
// omitted — MatchEdge names identify them positionally-independently).
// The final "end" line closes the stream; Err distinguishes an abnormal
// end ("lagged": the consumer fell behind the commit stream and must
// re-subscribe for a fresh snapshot; "draining": the server is shutting
// down) from the client simply going away.
//
//	{"gen":4,"kind":"init","count":2,"match":[{"from":"A","to":"B","expr":"fn+","pairs":[[0,3],[7,3]]}]}
//	{"gen":5,"kind":"delta","count":3,"added":[{"from":"A","to":"B","expr":"fn+","pairs":[[9,3]]}]}
//	{"gen":7,"kind":"end","count":0,"error":"lagged"}
type Delta struct {
	Gen   uint64 `json:"gen"`
	Kind  string `json:"kind"`
	Count int    `json:"count"`

	// Match is the full answer (init lines; delta lines omit it — the
	// client folds Added/Removed into its copy of the init answer).
	Match []MatchEdge `json:"match,omitempty"`

	// Added and Removed are the per-edge pair deltas since the previous
	// line (delta lines only).
	Added   []MatchEdge `json:"added,omitempty"`
	Removed []MatchEdge `json:"removed,omitempty"`

	Err string `json:"error,omitempty"`

	// ErrKind classifies Err like Response.ErrKind: "read_only" when a
	// routing tier with no writer upstream refused the subscription.
	ErrKind string `json:"error_kind,omitempty"`
}

// DeltaEdges converts per-edge pair sets (indexed like q's edges, as
// engine.StandingUpdate carries them) to the wire representation,
// omitting edges with no pairs — the MatchEdge names identify each
// edge, so positions need not line up with the pattern.
func DeltaEdges(q *pattern.Query, sets [][]reach.Pair) []MatchEdge {
	var out []MatchEdge
	for i, ps := range sets {
		if len(ps) == 0 {
			continue
		}
		e := q.Edge(i)
		out = append(out, MatchEdge{
			From:  q.Node(e.From).Name,
			To:    q.Node(e.To).Name,
			Expr:  e.Expr.String(),
			Pairs: PairsOf(ps),
		})
	}
	return out
}

// LineError reports one malformed request line. It is recoverable: the
// decoder has consumed the line and Next may be called again.
type LineError struct {
	Line int // physical line number, 1-based
	Err  error
}

func (e *LineError) Error() string { return fmt.Sprintf("wire: line %d: %v", e.Line, e.Err) }
func (e *LineError) Unwrap() error { return e.Err }

// Decoder reads NDJSON request lines. Blank lines are skipped; a
// malformed line yields a *LineError (recoverable — keep calling Next);
// any other error is a stream-level failure. Lines of the wire's own
// shape are decoded without reflection, every other line by
// encoding/json.
type Decoder struct {
	sc   *bufio.Scanner
	line int    // physical line number of the last scanned line
	ord  uint64 // request ordinal: counts consumed non-blank lines
}

// NewDecoder wraps r in a request decoder accepting lines up to
// MaxLineBytes.
func NewDecoder(r io.Reader) *Decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), MaxLineBytes)
	return &Decoder{sc: sc}
}

// Next returns the next request. At end of input it returns io.EOF. A
// malformed line returns a *LineError together with a Request whose ID
// is the line's assigned ordinal, so the caller can attribute an error
// response; decoding then continues on the following line.
func (d *Decoder) Next() (Request, error) {
	for d.sc.Scan() {
		d.line++
		line := bytes.TrimSpace(d.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		id := d.ord
		d.ord++
		req, ok := decodeLine(line)
		if !ok {
			var err error
			if req, err = unmarshalRequest(line); err != nil {
				return Request{ID: ptr(id)}, &LineError{Line: d.line, Err: err}
			}
		}
		if req.ID == nil {
			req.ID = ptr(id)
		}
		return req, nil
	}
	if err := d.sc.Err(); err != nil {
		return Request{}, fmt.Errorf("wire: read: %w", err)
	}
	return Request{}, io.EOF
}

// unmarshalRequest decodes a line decodeLine declined, with
// encoding/json's rules and error text.
func unmarshalRequest(line []byte) (Request, error) {
	var req Request
	err := json.Unmarshal(line, &req)
	return req, err
}

// ptr returns a pointer to a copy of id. Taking &id in Next itself
// would move id to the heap on every line, even on lines that carry an
// id of their own.
func ptr(id uint64) *uint64 { return &id }

// Compile parses the request's text into an evaluable engine request
// and reports its kind ("rq" or "pq"). The error, if any, is a per-line
// semantic error the caller should surface as an error response.
func (r *Request) Compile() (engine.Request, string, error) {
	if r.DeadlineMS < 0 {
		return engine.Request{}, "", fmt.Errorf("wire: negative deadline_ms %d", r.DeadlineMS)
	}
	// QoS fields ride on every query kind; the deadline budget starts
	// counting here, at server receipt.
	qos := engine.Request{Priority: r.Priority}
	if r.DeadlineMS > 0 {
		// Clamp before multiplying: a huge ms budget would overflow the
		// Duration to a negative value and shed the request on arrival.
		const maxMS = int64(24 * time.Hour / time.Millisecond)
		ms := r.DeadlineMS
		if ms > maxMS {
			ms = maxMS
		}
		qos.Deadline = time.Now().Add(time.Duration(ms) * time.Millisecond)
	}
	switch {
	case r.RQ != nil && r.PQ != "":
		return engine.Request{}, "", fmt.Errorf("wire: request sets both rq and pq")
	case r.RQ != nil:
		q, err := qlang.ParseRQ(r.RQ.From, r.RQ.To, r.RQ.Expr)
		if err != nil {
			return engine.Request{}, "rq", err
		}
		qos.RQ = &q
		return qos, "rq", nil
	case r.PQ != "":
		if r.Count {
			return engine.Request{}, "pq", fmt.Errorf("wire: count applies to rq requests only")
		}
		q, err := qlang.ParsePatternString(r.PQ)
		if err != nil {
			return engine.Request{}, "pq", err
		}
		qos.PQ = q
		return qos, "pq", nil
	default:
		return engine.Request{}, "", fmt.Errorf("wire: request needs rq or pq")
	}
}

// PairsOf converts an RQ answer to the wire representation.
func PairsOf(ps []reach.Pair) [][2]int64 {
	if len(ps) == 0 {
		return nil
	}
	out := make([][2]int64, len(ps))
	for i, p := range ps {
		out[i] = [2]int64{int64(p.From), int64(p.To)}
	}
	return out
}

// MatchOf converts a PQ answer to the wire representation; q must be
// the pattern the result answers (the result does not expose it).
func MatchOf(q *pattern.Query, res *pattern.Result) []MatchEdge {
	if q == nil || res.Empty() {
		return nil
	}
	out := make([]MatchEdge, q.NumEdges())
	for i := range out {
		e := q.Edge(i)
		out[i] = MatchEdge{
			From:  q.Node(e.From).Name,
			To:    q.Node(e.To).Name,
			Expr:  e.Expr.String(),
			Pairs: PairsOf(res.EdgePairs(i)),
		}
	}
	return out
}

// FromResult builds the response line for one engine result. kind and
// pq are what Compile reported for the originating request (pq may be
// nil for an RQ); count-only requests pass their streamed count and get
// no pairs array. The response id is the result's session id — callers
// that map session ids to client ids overwrite it.
func FromResult(res engine.Result, kind string, pq *pattern.Query, streamedCount int) Response {
	out := Response{
		ID:        res.ID,
		Kind:      kind,
		LatencyUS: float64(res.Elapsed.Nanoseconds()) / 1e3,
	}
	if res.Err != nil {
		out.Err = res.Err.Error()
		out.ErrKind = errKindOf(res.Err)
		return out
	}
	switch {
	case res.Match != nil:
		out.Match = MatchOf(pq, res.Match)
		out.Count = res.Match.Size()
	case res.Pairs != nil:
		out.Pairs = PairsOf(res.Pairs)
		out.Count = len(res.Pairs)
	default:
		// Streamed (Emit) or legitimately empty answer.
		out.Count = streamedCount
	}
	return out
}

// errKindOf classifies a result error for Response.ErrKind. The shed
// check must run before the generic deadline one: ErrDeadlineExpired
// deliberately also matches context.DeadlineExceeded under errors.Is.
func errKindOf(err error) string {
	switch {
	case errors.Is(err, engine.ErrDeadlineExpired):
		return "shed"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return ""
	}
}

// Encoder writes NDJSON lines (Response, Delta, or any other
// line-schema value). It is safe for concurrent use (the service
// writes parse errors from its reader goroutine and results from its
// consumer loop).
//
// Flushing is what puts a line on the socket, and it costs a write
// system call, so the encoder flushes once per burst rather than once
// per line: Write buffers a line and the caller flushes when it has
// nothing else ready (Flush), or Encode flushes unless another Encode
// is already waiting for the encoder — the waiting writer's flush then
// carries both lines. Either way a line waits only while a line that
// is already ready gets written; there is no timer and no line count.
type Encoder struct {
	mu      sync.Mutex
	waiting atomic.Int32 // Encode calls blocked on mu
	enc     *json.Encoder
	flush   func() error
}

// NewEncoder wraps w in a response encoder. Lines reach the client
// when w can flush. FlushError is preferred over Flush: net/http's
// response writer has both, and only FlushError reports a failed write.
func NewEncoder(w io.Writer) *Encoder {
	e := &Encoder{enc: json.NewEncoder(w), flush: func() error { return nil }}
	switch f := w.(type) {
	case interface{ FlushError() error }:
		e.flush = f.FlushError
	case interface{ Flush() error }:
		e.flush = f.Flush
	case interface{ Flush() }:
		e.flush = func() error { f.Flush(); return nil }
	}
	return e
}

// Write buffers one NDJSON line without flushing it.
func (e *Encoder) Write(v any) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.enc.Encode(v)
}

// Flush pushes every buffered line through to the client.
func (e *Encoder) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.flush()
}

// Encode writes one NDJSON line and flushes it, together with any line
// Write buffered before it — unless another Encode is already waiting
// for the encoder, whose flush then carries this line as well. A lone
// writer therefore flushes every line before Encode returns.
func (e *Encoder) Encode(v any) error {
	e.waiting.Add(1)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.waiting.Add(-1)
	err := e.enc.Encode(v)
	if e.waiting.Load() == 0 {
		if ferr := e.flush(); err == nil {
			err = ferr
		}
	}
	return err
}
