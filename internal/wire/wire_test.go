package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"regraph/internal/qlang"
	"regraph/internal/reach"
)

var update = flag.Bool("update", false, "rewrite the wire-schema golden files")

// goldenRequests are the canonical request lines: every feature of the
// request schema (explicit and implicit ids, rq, pq, count mode,
// quoted/empty predicates). Their encodings are pinned by
// testdata/requests.golden — a diff there is a wire-format change.
func goldenRequests() []Request {
	id := func(v uint64) *uint64 { return &v }
	return []Request{
		{ID: id(1), RQ: &RQSpec{From: "job = doctor", To: "*", Expr: "fa{2} fn"}},
		{ID: id(2), PQ: "node A\t*\nnode B\tjob = doctor\nedge A B\tfn+"},
		{ID: id(3), RQ: &RQSpec{From: "*", To: "*", Expr: "_+"}, Count: true},
		{RQ: &RQSpec{From: `cat = "Film & Animation", com <= 20`, Expr: "ic{2} dc+"}},
		{ID: id(5), RQ: &RQSpec{Expr: "fn"}, Priority: 6, DeadlineMS: 250},
		{ID: id(6), PQ: "node A\t*\nnode B\t*\nedge A B\tfa+", DeadlineMS: 1000},
	}
}

// goldenResponses are the canonical response lines: rq answers with and
// without pairs, a pq match, a count-only answer and a per-line error.
// Pinned by testdata/responses.golden.
func goldenResponses() []Response {
	return []Response{
		{ID: 1, Kind: "rq", Count: 2, Pairs: [][2]int64{{0, 3}, {7, 3}}, LatencyUS: 412},
		{ID: 2, Kind: "pq", Count: 1, Match: []MatchEdge{
			{From: "A", To: "B", Expr: "fn+", Pairs: [][2]int64{{4, 9}}},
		}, LatencyUS: 88.25},
		{ID: 3, Kind: "rq", Count: 12345, LatencyUS: 9.5},
		{ID: 4, Err: "wire: request needs rq or pq"},
		{ID: 5, Kind: "rq", Query: "RQ[* --fn--> *]", Count: 0, LatencyUS: 3.1},
		{ID: 6, Kind: "rq", Err: "engine: deadline expired before evaluation", ErrKind: "shed"},
		{ID: 7, Kind: "pq", Err: "context deadline exceeded", ErrKind: "deadline", LatencyUS: 251000},
		{ID: 8, Err: "router: no live replica available", ErrKind: ErrKindUnavailable},
		{ID: 9, Err: "router: stream canceled before the request was answered", ErrKind: "canceled"},
	}
}

// goldenDeltas are the canonical standing-query stream lines: the init
// snapshot, deltas with additions and removals, and both end shapes.
// Pinned by testdata/deltas.golden.
func goldenDeltas() []Delta {
	return []Delta{
		{Gen: 4, Kind: DeltaInit, Count: 2, Match: []MatchEdge{
			{From: "A", To: "B", Expr: "fn+", Pairs: [][2]int64{{0, 3}, {7, 3}}},
		}},
		{Gen: 5, Kind: DeltaDelta, Count: 3, Added: []MatchEdge{
			{From: "A", To: "B", Expr: "fn+", Pairs: [][2]int64{{9, 3}}},
		}},
		{Gen: 6, Kind: DeltaDelta, Count: 2,
			Added:   []MatchEdge{{From: "A", To: "B", Expr: "fn+", Pairs: [][2]int64{{2, 3}}}},
			Removed: []MatchEdge{{From: "A", To: "B", Expr: "fn+", Pairs: [][2]int64{{9, 3}}}}},
		{Gen: 6, Kind: DeltaEnd},
		{Gen: 7, Kind: DeltaEnd, Err: "lagged"},
	}
}

// goldenRouterStats is the canonical replica-router /v1/stats payload:
// every breaker state, readiness both ways, and all routing counters.
// Pinned by testdata/router_stats.golden.
func goldenRouterStats() RouterStats {
	return RouterStats{
		Replicas: []ReplicaStats{
			{URL: "http://replica-0:8081", State: "closed", Ready: true, InFlight: 3,
				Requests: 120, Failures: 1, BreakerOpens: 1, BreakerCloses: 1},
			{URL: "http://replica-1:8081", State: "open", Ready: false,
				Requests: 40, Failures: 9, BreakerOpens: 2, BreakerCloses: 1},
			{URL: "http://replica-2:8081", State: "half-open", Ready: true,
				Requests: 41, Failures: 3, BreakerOpens: 1, BreakerCloses: 0},
		},
		Draining:       false,
		StreamsActive:  2,
		StreamsTotal:   17,
		Requests:       180,
		Retries:        12,
		Hedges:         5,
		DupSuppressed:  4,
		Unavailable:    3,
		BudgetDenied:   2,
		ParseErrors:    1,
		WriteForwarded: 6,
		WriteRejected:  2,
		WriteErrors:    1,
	}
}

// encodeLines renders values the way the wire does: one JSON object per
// line via Encoder for responses, raw json.Marshal order for requests
// (clients encode requests with encoding/json directly).
func encodeResponses(t *testing.T, rs []Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, r := range rs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: wire schema drifted.\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestGoldenResponses pins the response schema byte for byte.
func TestGoldenResponses(t *testing.T) {
	goldenCompare(t, "responses.golden", encodeResponses(t, goldenResponses()))
}

// TestGoldenDeltas pins the standing-query stream schema: fixtures
// encode to the golden bytes, and the golden bytes decode back.
func TestGoldenDeltas(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, d := range goldenDeltas() {
		if err := enc.Encode(d); err != nil {
			t.Fatal(err)
		}
	}
	goldenCompare(t, "deltas.golden", buf.Bytes())

	data, err := os.ReadFile(filepath.Join("testdata", "deltas.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := goldenDeltas()
	for i, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var back Delta
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if !reflect.DeepEqual(back, want[i]) {
			t.Errorf("line %d: decoded %+v, want %+v", i+1, back, want[i])
		}
	}
}

// TestDeltaEdges: per-edge pair sets render to named MatchEdges with
// empty edges omitted.
func TestDeltaEdges(t *testing.T) {
	q, err := qlang.ParsePatternString("node A\t*\nnode B\t*\nnode C\t*\nedge A B\tfn+\nedge B C\tfa")
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]reach.Pair{nil, {{From: 4, To: 9}}}
	got := DeltaEdges(q, sets)
	want := []MatchEdge{{From: "B", To: "C", Expr: "fa", Pairs: [][2]int64{{4, 9}}}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DeltaEdges = %+v, want %+v", got, want)
	}
	if got := DeltaEdges(q, [][]reach.Pair{nil, nil}); got != nil {
		t.Errorf("all-empty sets rendered %+v, want nil", got)
	}
}

// TestGoldenRouterStats pins the router stats schema byte for byte, in
// the indented form the /v1/stats endpoint serves.
func TestGoldenRouterStats(t *testing.T) {
	got, err := json.MarshalIndent(goldenRouterStats(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "router_stats.golden", append(got, '\n'))

	// Round-trip: the golden bytes decode back to the fixture.
	var back RouterStats
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, goldenRouterStats()) {
		t.Errorf("router stats round-trip drifted:\n got %+v\nwant %+v", back, goldenRouterStats())
	}
}

// TestGoldenRequests pins the request schema: fixtures encode to the
// golden bytes, and the golden bytes decode back to the fixtures.
func TestGoldenRequests(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf) // reuse the line encoder's json settings
	for _, r := range goldenRequests() {
		if err := enc.enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	goldenCompare(t, "requests.golden", buf.Bytes())

	// Round-trip: decoding the golden file yields the fixtures (with the
	// implicit id filled in by ordinal).
	data, err := os.ReadFile(filepath.Join("testdata", "requests.golden"))
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(bytes.NewReader(data))
	want := goldenRequests()
	ord := uint64(3) // the id-less fixture is the 4th line
	want[3].ID = &ord
	for i := range want {
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("request %d: decoded %+v, want %+v", i, got, want[i])
		}
		if _, _, err := got.Compile(); err != nil {
			t.Errorf("request %d: compile: %v", i, err)
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("after last request: %v, want EOF", err)
	}
}

// TestCompileQoS: priority and deadline_ms thread through to the engine
// request — the deadline as an absolute time deadline_ms from receipt.
func TestCompileQoS(t *testing.T) {
	req := Request{RQ: &RQSpec{Expr: "fn"}, Priority: 3, DeadlineMS: 500}
	before := time.Now()
	ereq, kind, err := req.Compile()
	after := time.Now()
	if err != nil || kind != "rq" {
		t.Fatalf("compile: kind %q, err %v", kind, err)
	}
	if ereq.Priority != 3 {
		t.Errorf("priority %d, want 3", ereq.Priority)
	}
	lo := before.Add(500 * time.Millisecond)
	hi := after.Add(500 * time.Millisecond)
	if ereq.Deadline.Before(lo) || ereq.Deadline.After(hi) {
		t.Errorf("deadline %v outside [%v, %v]", ereq.Deadline, lo, hi)
	}
	// No deadline_ms: no deadline at all.
	plain := Request{PQ: "node A\t*\nnode B\t*\nedge A B\tfn", Priority: 1}
	preq, _, err := plain.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !preq.Deadline.IsZero() || preq.Priority != 1 {
		t.Errorf("plain request got deadline %v priority %d", preq.Deadline, preq.Priority)
	}
}

// TestDecoderRecoversPerLine: a malformed line yields a *LineError with
// the line's assigned id, and decoding continues with the next line.
func TestDecoderRecoversPerLine(t *testing.T) {
	input := strings.Join([]string{
		`{"rq":{"expr":"fn"}}`,
		`{definitely not json`,
		``, // blank lines are skipped, not numbered
		`{"id":9,"rq":{"expr":"fa"}}`,
	}, "\n")
	dec := NewDecoder(strings.NewReader(input))

	r0, err := dec.Next()
	if err != nil || *r0.ID != 0 {
		t.Fatalf("line 1: %+v, %v", r0, err)
	}
	r1, err := dec.Next()
	var le *LineError
	if !errors.As(err, &le) || le.Line != 2 {
		t.Fatalf("line 2: expected *LineError at line 2, got %v", err)
	}
	if r1.ID == nil || *r1.ID != 1 {
		t.Fatalf("malformed line must still carry its ordinal id, got %+v", r1)
	}
	r2, err := dec.Next()
	if err != nil || *r2.ID != 9 {
		t.Fatalf("line 4: %+v, %v", r2, err)
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("end: %v, want EOF", err)
	}
}

// TestDecoderOversizedLine: a line beyond MaxLineBytes is a
// stream-level (non-LineError) failure.
func TestDecoderOversizedLine(t *testing.T) {
	dec := NewDecoder(strings.NewReader(`{"pq":"` + strings.Repeat("x", MaxLineBytes+16) + `"}`))
	_, err := dec.Next()
	var le *LineError
	if err == nil || err == io.EOF || errors.As(err, &le) {
		t.Fatalf("oversized line: got %v, want a stream-level error", err)
	}
}

// TestCompileErrors: every invalid request shape is a structured error,
// and valid shapes compile to the right engine request kind.
func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name    string
		req     Request
		wantErr bool
		kind    string
	}{
		{"empty", Request{}, true, ""},
		{"both", Request{RQ: &RQSpec{Expr: "fn"}, PQ: "node A\t*"}, true, ""},
		{"count on pq", Request{PQ: "node A\t*", Count: true}, true, "pq"},
		{"bad predicate", Request{RQ: &RQSpec{From: "no operator here", Expr: "fn"}}, true, "rq"},
		{"bad expr", Request{RQ: &RQSpec{Expr: "(("}}, true, "rq"},
		{"bad pattern", Request{PQ: "edge A B\tfn"}, true, "pq"},
		{"rq ok", Request{RQ: &RQSpec{From: "*", To: "*", Expr: "fn"}}, false, "rq"},
		{"pq ok", Request{PQ: "node A\t*\nnode B\t*\nedge A B\tfn"}, false, "pq"},
		{"negative deadline", Request{RQ: &RQSpec{Expr: "fn"}, DeadlineMS: -5}, true, ""},
	}
	for _, c := range cases {
		ereq, kind, err := c.req.Compile()
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr %v", c.name, err, c.wantErr)
			continue
		}
		if kind != c.kind {
			t.Errorf("%s: kind = %q, want %q", c.name, kind, c.kind)
		}
		if err == nil {
			if (kind == "rq") != (ereq.RQ != nil) || (kind == "pq") != (ereq.PQ != nil) {
				t.Errorf("%s: compiled request %+v inconsistent with kind %q", c.name, ereq, kind)
			}
		}
	}
}

var errFlush = errors.New("flush failed")

// flushErrWriter flushes like http.ResponseWriter: Flush drops the
// error that FlushError reports.
type flushErrWriter struct{ bytes.Buffer }

func (*flushErrWriter) Flush()            {}
func (*flushErrWriter) FlushError() error { return errFlush }

// TestEncoderReportsFlushError: a failed flush is the failed write the
// service keeps its write deadline for, so Encode and Flush must return
// it rather than call the error-dropping Flush.
func TestEncoderReportsFlushError(t *testing.T) {
	enc := NewEncoder(&flushErrWriter{})
	if err := enc.Encode(Response{ID: 1}); !errors.Is(err, errFlush) {
		t.Fatalf("Encode: %v, want %v", err, errFlush)
	}
	if err := enc.Flush(); !errors.Is(err, errFlush) {
		t.Fatalf("Flush: %v, want %v", err, errFlush)
	}
}

// flushCounter records what each flush pushed through. Writes block
// until gate is closed.
type flushCounter struct {
	gate    chan struct{}
	mu      sync.Mutex
	pending bytes.Buffer
	flushed []string
}

func (w *flushCounter) Write(p []byte) (int, error) {
	<-w.gate
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pending.Write(p)
}

func (w *flushCounter) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flushed = append(w.flushed, w.pending.String())
	w.pending.Reset()
	return nil
}

// TestEncoderNoLineHeld: K lines ready at once cost fewer than K
// flushes, and no line is left unflushed — neither by Encode nor by
// Write followed by Flush.
func TestEncoderNoLineHeld(t *testing.T) {
	const k = 8
	w := &flushCounter{gate: make(chan struct{})}
	enc := NewEncoder(w)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := enc.Encode(Response{ID: uint64(i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	// One writer holds the encoder, blocked in Write; the others queue.
	for deadline := time.Now().Add(5 * time.Second); enc.waiting.Load() != k-1; {
		if time.Now().After(deadline) {
			t.Fatalf("%d writers waiting, want %d", enc.waiting.Load(), k-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(w.gate)
	wg.Wait()
	if len(w.flushed) >= k {
		t.Errorf("%d ready lines took %d flushes", k, len(w.flushed))
	}
	if w.pending.Len() != 0 {
		t.Fatalf("unflushed after the last Encode: %q", w.pending.String())
	}
	if n := strings.Count(strings.Join(w.flushed, ""), "\n"); n != k {
		t.Fatalf("flushed %d lines, want %d", n, k)
	}

	// A lone Encode flushes its own line; Write leaves it to Flush.
	w.flushed = nil
	if err := enc.Encode(Response{ID: 100}); err != nil || len(w.flushed) != 1 || w.pending.Len() != 0 {
		t.Fatalf("lone Encode: err %v, flushes %d, pending %q", err, len(w.flushed), w.pending.String())
	}
	for i := 0; i < 3; i++ {
		if err := enc.Write(Response{ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(w.flushed) != 1 {
		t.Fatalf("Write flushed: %d flushes", len(w.flushed))
	}
	if err := enc.Flush(); err != nil || len(w.flushed) != 2 || strings.Count(w.flushed[1], "\n") != 3 {
		t.Fatalf("Flush: err %v, flushes %q", err, w.flushed)
	}
}

// TestDecoderAllocs bounds the decoder on the benchmark's RQ line shape:
// the id, the RQSpec and its three strings.
func TestDecoderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const line = `{"id":4711,"rq":{"from":"cat = Music, age <= 30","to":"cat = \"Film \u0026 Animation\"","expr":"ic{2} dc+"},"count":true}` + "\n"
	const runs = 100
	dec := NewDecoder(strings.NewReader(strings.Repeat(line, runs+1)))
	if got := testing.AllocsPerRun(runs, func() {
		if _, err := dec.Next(); err != nil {
			t.Fatal(err)
		}
	}); got > 5 {
		t.Fatalf("Decoder.Next: %v allocations per line, want at most 5", got)
	}
}
