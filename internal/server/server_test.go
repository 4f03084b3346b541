package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"regraph/internal/engine"
	"regraph/internal/gen"
	"regraph/internal/graph"
	"regraph/internal/qlang"
	"regraph/internal/server"
	"regraph/internal/wire"
)

// testGraph is a small-but-nontrivial synthetic graph shared by the
// server tests.
func testGraph(seed int64) *graph.Graph {
	return gen.Synthetic(seed, 300, 1200, 3, gen.DefaultColors)
}

// wireBatch builds a deterministic mixed batch of wire requests — RQs
// (every third one count-only) and PQs as qlang text — with explicit
// ids 0..n-1. Queries are generated structurally and serialized to
// text, exactly what a remote client would send.
func wireBatch(t *testing.T, g *graph.Graph, n int, seed int64) []wire.Request {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	reqs := make([]wire.Request, n)
	for i := range reqs {
		id := uint64(i)
		if i%4 == 3 {
			pq := gen.Query(g, gen.Spec{Nodes: 3, Edges: 3, Preds: 2, Bound: 3, Colors: 2}, r)
			var b strings.Builder
			if err := qlang.WritePattern(&b, pq); err != nil {
				t.Fatal(err)
			}
			reqs[i] = wire.Request{ID: &id, PQ: b.String()}
		} else {
			q := gen.RQ(g, 2, 3, 1+r.Intn(3), r)
			reqs[i] = wire.Request{
				ID:    &id,
				RQ:    &wire.RQSpec{From: q.From.String(), To: q.To.String(), Expr: q.Expr.String()},
				Count: i%3 == 0,
			}
		}
	}
	return reqs
}

// wantResponses compiles the wire batch locally, runs it through
// Engine.RunBatch, and lifts the results through the same wire encoding
// the server uses — the reference the served stream must match bit for
// bit (modulo latency, which the caller zeroes).
func wantResponses(t *testing.T, e *engine.Engine, reqs []wire.Request) map[uint64]wire.Response {
	t.Helper()
	ereqs := make([]engine.Request, len(reqs))
	kinds := make([]string, len(reqs))
	for i := range reqs {
		var err error
		ereqs[i], kinds[i], err = reqs[i].Compile()
		if err != nil {
			t.Fatalf("request %d does not compile: %v", i, err)
		}
	}
	results := e.RunBatch(ereqs)
	want := map[uint64]wire.Response{}
	for i, res := range results {
		var resp wire.Response
		if reqs[i].Count {
			// Count-only on the wire: the materialized local answer gives
			// the expected cardinality, the wire carries no pairs.
			resp = wire.Response{ID: uint64(i), Kind: kinds[i], Count: len(res.Pairs)}
		} else {
			resp = wire.FromResult(res, kinds[i], ereqs[i].PQ, 0)
		}
		resp.ID = *reqs[i].ID
		resp.LatencyUS = 0
		want[resp.ID] = resp
	}
	return want
}

// postNDJSON sends the batch as one NDJSON body and decodes the full
// response stream.
func postNDJSON(t *testing.T, url string, reqs []wire.Request) []wire.Response {
	t.Helper()
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := range reqs {
		if err := enc.Encode(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url+"/v1/query", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/query: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	return decodeStream(t, resp.Body)
}

func decodeStream(t *testing.T, r io.Reader) []wire.Response {
	t.Helper()
	var out []wire.Response
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), wire.MaxResponseLineBytes)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var resp wire.Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatalf("malformed response line %q: %v", sc.Text(), err)
		}
		out = append(out, resp)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("response stream: %v", err)
	}
	return out
}

// TestServerMatchesRunBatch is the session≡RunBatch property lifted to
// the wire: a mixed RQ/PQ NDJSON batch streamed through POST /v1/query
// must yield exactly the responses obtained by compiling the same lines
// locally, running Engine.RunBatch, and encoding the results — in both
// cache and matrix engine modes.
func TestServerMatchesRunBatch(t *testing.T) {
	g := testGraph(7)
	reqs := wireBatch(t, g, 48, 11)
	for name, opts := range map[string]engine.Options{
		"cache":  {Workers: 4},
		"matrix": {Workers: 4, BackendKind: "matrix"},
	} {
		t.Run(name, func(t *testing.T) {
			e := engine.MustNew(g, opts)
			want := wantResponses(t, e, reqs)

			srv := server.New(e, server.Options{})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer srv.Close()

			got := postNDJSON(t, ts.URL, reqs)
			if len(got) != len(reqs) {
				t.Fatalf("got %d responses, want %d", len(got), len(reqs))
			}
			seen := map[uint64]bool{}
			for _, resp := range got {
				if seen[resp.ID] {
					t.Fatalf("duplicate response id %d", resp.ID)
				}
				seen[resp.ID] = true
				if resp.Err == "" && resp.LatencyUS <= 0 {
					t.Errorf("response %d: missing latency", resp.ID)
				}
				resp.LatencyUS = 0
				if w, ok := want[resp.ID]; !ok {
					t.Errorf("response for unknown id %d", resp.ID)
				} else if !reflect.DeepEqual(resp, w) {
					t.Errorf("id %d: wire result differs from RunBatch:\n got %+v\nwant %+v", resp.ID, resp, w)
				}
			}

			st := srv.Stats()
			if st.Submitted != uint64(len(reqs)) || st.Completed != uint64(len(reqs)) {
				t.Errorf("server stats after batch: %+v", st)
			}
			if st.ParseErrors != 0 || st.Dropped != 0 || st.StreamsTotal != 1 {
				t.Errorf("server stats after batch: %+v", st)
			}
		})
	}
}

// TestServerPerLineErrors: malformed lines — broken JSON, bad
// predicates, empty requests — get structured error responses tagged
// with the line's id while the stream keeps serving the valid lines.
func TestServerPerLineErrors(t *testing.T) {
	g := testGraph(3)
	e := engine.MustNew(g, engine.Options{Workers: 2})
	srv := server.New(e, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	body := strings.Join([]string{
		`this is not json`, // ordinal id 0
		`{"id":7,"rq":{"from":"no operator","expr":"fn"}}`, // bad predicate
		`{"id":8}`,                                      // empty request
		`{"id":9,"rq":{"expr":"fn"}}`,                   // valid
		`{"id":10,"pq":"node A\t*","count":true}`,       // count on pq
		`{"id":11,"rq":{"expr":"fn"},"pq":"node A\t*"}`, // both set
		`{"id":12,"pq":"edge A B\tfn"}`,                 // edge before node
	}, "\n")
	resp, err := http.Post(ts.URL+"/v1/query", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := decodeStream(t, resp.Body)
	if len(got) != 7 {
		t.Fatalf("got %d responses, want 7: %+v", len(got), got)
	}
	byID := map[uint64]wire.Response{}
	for _, r := range got {
		byID[r.ID] = r
	}
	wantErr := map[uint64]string{
		0:  "line 1",
		7:  "rq from",
		8:  "needs rq or pq",
		10: "count applies to rq",
		11: "both rq and pq",
		12: "unknown node",
	}
	for id, frag := range wantErr {
		if r, ok := byID[id]; !ok || !strings.Contains(r.Err, frag) {
			t.Errorf("id %d: response %+v, want error mentioning %q", id, byID[id], frag)
		}
	}
	if r := byID[9]; r.Err != "" || r.Kind != "rq" {
		t.Errorf("valid line answered with %+v", r)
	}

	st := srv.Stats()
	if st.ParseErrors != 6 {
		t.Errorf("parse errors = %d, want 6", st.ParseErrors)
	}
	if st.Submitted != 1 || st.Completed != 1 {
		t.Errorf("stats: %+v", st)
	}
}

// TestServerStatsBackend: /v1/stats names the distance backend that
// serves, whichever kind the engine was built with.
func TestServerStatsBackend(t *testing.T) {
	g := testGraph(3)
	for _, kind := range []string{"matrix", "twohop", "cache"} {
		srv := server.New(engine.MustNew(g, engine.Options{Workers: 1, BackendKind: kind}), server.Options{})
		ts := httptest.NewServer(srv.Handler())
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Backend string `json:"backend"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		ts.Close()
		srv.Close()
		if err != nil || st.Backend != kind {
			t.Errorf("%s engine: /v1/stats backend %q (%v)", kind, st.Backend, err)
		}
	}
}

// TestServerStatsAndHealth covers the two GET endpoints, including the
// draining flip.
func TestServerStatsAndHealth(t *testing.T) {
	g := testGraph(3)
	e := engine.MustNew(g, engine.Options{Workers: 2})
	srv := server.New(e, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp.Status, err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("readyz: %v %v", resp.Status, err)
	} else {
		resp.Body.Close()
	}
	postNDJSON(t, ts.URL, wireBatch(t, g, 8, 5))

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats payload: %v", err)
	}
	if st.Nodes != g.NumNodes() || st.Edges != g.NumEdges() || st.Workers != 2 {
		t.Errorf("stats shape: %+v", st)
	}
	if st.Submitted != 8 || st.Completed != 8 || st.Latency.Count != 8 {
		t.Errorf("stats counters: %+v", st)
	}

	// Draining: readiness turns 503 (with a Retry-After hint) and new
	// query streams are refused — but liveness stays 200, because a
	// draining process is alive and must not be killed mid-flush.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain with no live streams: %v", err)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz while draining: %v %v", resp.Status, err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %v %v", resp.Status, err)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining readyz carries no Retry-After header")
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Post(ts.URL+"/v1/query", "application/x-ndjson", strings.NewReader(`{"rq":{"expr":"fn"}}`)); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: %v %v", resp.Status, err)
	} else {
		resp.Body.Close()
	}
}

// TestServerStreamDeadline: a client-requested ?timeout_ms deadline
// ends a stream whose client goes silent while holding the connection
// open — the submitted query is still answered, the stream closes, and
// the session drains.
func TestServerStreamDeadline(t *testing.T) {
	g := testGraph(3)
	e := engine.MustNew(g, engine.Options{Workers: 2})
	srv := server.New(e, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query?timeout_ms=300", pr)
	if err != nil {
		t.Fatal(err)
	}
	respc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err != nil {
			errc <- err
			return
		}
		respc <- resp
	}()
	if _, err := io.WriteString(pw, `{"id":1,"rq":{"expr":"fn"}}`+"\n"); err != nil {
		t.Fatal(err)
	}
	var resp *http.Response
	select {
	case resp = <-respc:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("no response headers within 5s")
	}
	defer resp.Body.Close()
	// Never close pw: the client stays silent and the server-side
	// deadline must end the stream on its own.
	t0 := time.Now()
	got := decodeStream(t, resp.Body)
	if elapsed := time.Since(t0); elapsed > 4*time.Second {
		t.Fatalf("stream survived %v past its 300ms deadline", elapsed)
	}
	if len(got) == 0 || got[0].ID != 1 || got[0].Err != "" {
		t.Fatalf("submitted query not answered before the deadline: %+v", got)
	}
	pw.Close()

	waitNoStreams(t, srv)
	if st := srv.Stats(); st.Submitted != 1 || st.Completed != 1 {
		t.Errorf("stats after deadline: %+v", st)
	}
}

// waitNoStreams waits for every live stream to unregister.
func waitNoStreams(t *testing.T, srv *server.Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().StreamsActive > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("streams still live: %+v", srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
