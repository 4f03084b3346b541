package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"regraph/internal/engine"
	"regraph/internal/graph"
	"regraph/internal/mutate"
	"regraph/internal/server"
	"regraph/internal/wire"
)

// mutateGraph is the tiny deterministic graph the write-path tests
// mutate: a(t=1) --x--> b(t=2).
func mutateGraph() *graph.Graph {
	g := graph.New()
	a := g.AddNode("a", map[string]string{"t": "1"})
	b := g.AddNode("b", map[string]string{"t": "2"})
	g.AddEdge(a, b, "x")
	return g
}

// postMutations streams an NDJSON mutation body to /v1/mutate and
// returns the ack lines and the trailing summary.
func postMutations(t *testing.T, url, body string) ([]mutate.Ack, mutate.Summary) {
	t.Helper()
	resp, err := http.Post(url+"/v1/mutate", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/mutate: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var acks []mutate.Ack
	var sum mutate.Summary
	sawSummary := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if sawSummary {
			t.Fatalf("line after the summary: %q", line)
		}
		if strings.Contains(line, `"kind":"summary"`) {
			if err := json.Unmarshal([]byte(line), &sum); err != nil {
				t.Fatalf("summary line %q: %v", line, err)
			}
			sawSummary = true
			continue
		}
		var a mutate.Ack
		if err := json.Unmarshal([]byte(line), &a); err != nil {
			t.Fatalf("ack line %q: %v", line, err)
		}
		acks = append(acks, a)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawSummary {
		t.Fatal("mutation stream ended without a summary line")
	}
	return acks, sum
}

// TestServerMutate: a mixed JSON/text mutation stream with failing and
// malformed lines is chunked into generations, acked per op, and the
// committed data is visible to queries — while the stats reflect it.
func TestServerMutate(t *testing.T) {
	e := engine.MustNew(mutateGraph(), engine.Options{Workers: 2})
	srv := server.New(e, server.Options{MutateBatch: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	body := strings.Join([]string{
		"# grow the graph",
		"add_node c t=2",
		`{"op":"add_edge","from":"a","to":"c","color":"x"}`,
		`{"op":"set_attr","node":"zz","attrs":{"t":"3"}}`, // unknown node: error ack
		"frobnicate q", // malformed: error ack, stream continues
		"remove_edge a b x",
	}, "\n")
	acks, sum := postMutations(t, ts.URL, body)

	// MutateBatch 2: ops 0-1 commit as generation 1; the malformed line
	// is acked outside any chunk; ops 2 and 4 commit as generation 2
	// (op 2 fails inside it). Ordinals count ops, incl. the bad line.
	if len(acks) != 5 {
		t.Fatalf("got %d acks, want 5: %+v", len(acks), acks)
	}
	byID := map[uint64]mutate.Ack{}
	for _, a := range acks {
		byID[a.ID] = a
	}
	for id, wantGen := range map[uint64]uint64{0: 1, 1: 1, 4: 2} {
		if a := byID[id]; a.Gen != wantGen || a.Err != "" {
			t.Errorf("ack %d: %+v, want gen %d", id, a, wantGen)
		}
	}
	if a := byID[2]; !strings.Contains(a.Err, `unknown node "zz"`) {
		t.Errorf("ack 2: %+v, want unknown-node error", a)
	}
	if a := byID[3]; !strings.Contains(a.Err, "line 5") {
		t.Errorf("ack 3: %+v, want a line-5 parse error", a)
	}
	want := mutate.Summary{Kind: mutate.SummaryKind, Gen: 2, Applied: 3, Failed: 2, Nodes: 3, Edges: 1}
	if sum != want {
		t.Errorf("summary %+v, want %+v", sum, want)
	}

	// The committed generations answer queries: a->b is gone, a->c is
	// there (nodes a=0, c=2).
	got := postNDJSON(t, ts.URL, []wire.Request{{RQ: &wire.RQSpec{From: "*", To: "*", Expr: "x"}}})
	if len(got) != 1 || got[0].Err != "" {
		t.Fatalf("query after mutation: %+v", got)
	}
	if wantPairs := [][2]int64{{0, 2}}; !reflect.DeepEqual(got[0].Pairs, wantPairs) {
		t.Errorf("pairs after mutation = %v, want %v", got[0].Pairs, wantPairs)
	}

	st := srv.Stats()
	if st.Generation != 2 || st.MutateStreams != 1 || st.OpsApplied != 3 || st.OpsFailed != 2 {
		t.Errorf("write-path stats: %+v", st)
	}
	if st.ParseErrors != 1 {
		t.Errorf("parse errors = %d, want 1", st.ParseErrors)
	}
}

// TestServerMutateOversizedLine pins the oversized-line contract byte
// for byte: a line past mutate.MaxLineBytes is unrecoverable (a line
// decoder cannot resynchronize) and ends the stream, but every op
// decoded before it still commits, still acks, and the trailing
// summary line still arrives with the exact applied/failed counts and
// the sticky stream error. Mirrors the read path's oversized-line
// handling — the stream dies loudly, never silently.
func TestServerMutateOversizedLine(t *testing.T) {
	e := engine.MustNew(mutateGraph(), engine.Options{Workers: 2})
	srv := server.New(e, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	body := "add_node c t=2\n" +
		"add_edge a c x\n" +
		strings.Repeat("x", mutate.MaxLineBytes+1) + "\n" +
		"add_node never-reached\n" // after the poison line: must not apply
	resp, err := http.Post(ts.URL+"/v1/mutate", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "mutate_oversized.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("oversized-line response drifted.\n got:\n%s\nwant:\n%s", got, want)
	}
	// The committed prefix is durable engine state; the poison line and
	// everything after it never applied.
	if g := e.Graph(); g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Errorf("graph after aborted stream: %d nodes %d edges, want 3/2", g.NumNodes(), g.NumEdges())
	}
}

// TestServerSnapshotIsolationOverWire: a query stream opened before a
// mutation keeps answering from its pinned generation; a stream opened
// after it sees the new one.
func TestServerSnapshotIsolationOverWire(t *testing.T) {
	e := engine.MustNew(mutateGraph(), engine.Options{Workers: 2})
	srv := server.New(e, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", pr)
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
	ask := func() { // one count-only x-edge query on the pinned stream
		t.Helper()
		if _, err := io.WriteString(pw, `{"rq":{"expr":"x"},"count":true}`+"\n"); err != nil {
			t.Fatal(err)
		}
	}
	ask()
	var resp *http.Response
	select {
	case resp = <-respc:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("no response headers within 5s")
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	readResp := func() wire.Response {
		t.Helper()
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		var r wire.Response
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("response line %q: %v", line, err)
		}
		return r
	}
	if r := readResp(); r.Count != 1 || r.Err != "" {
		t.Fatalf("pre-mutation count = %+v, want 1", r)
	}

	// Commit a generation that changes the answer.
	if _, sum := postMutations(t, ts.URL, "add_node c t=2\nadd_edge a c x\n"); sum.Gen != 1 {
		t.Fatalf("mutation summary: %+v", sum)
	}

	// The pinned stream still answers from generation 0...
	ask()
	if r := readResp(); r.Count != 1 || r.Err != "" {
		t.Fatalf("pinned stream count after mutation = %+v, want 1 (snapshot isolation)", r)
	}
	// ...while a fresh stream sees generation 1.
	got := postNDJSON(t, ts.URL, []wire.Request{{RQ: &wire.RQSpec{Expr: "x"}, Count: true}})
	if len(got) != 1 || got[0].Count != 2 {
		t.Fatalf("fresh stream count = %+v, want 2", got)
	}
	pw.Close()
	waitNoStreams(t, srv)
}

// subscribeStream opens a /v1/subscribe stream for the pattern and
// returns a reader of its delta lines plus the pipe keeping it open.
func subscribeStream(t *testing.T, url, pq string) (readDelta func() wire.Delta, closeBody func()) {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/subscribe", pr)
	if err != nil {
		t.Fatal(err)
	}
	respc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errc <- err
			return
		}
		respc <- resp
	}()
	line, err := json.Marshal(wire.Request{PQ: pq})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	var resp *http.Response
	select {
	case resp = <-respc:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("no subscribe headers within 5s")
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/subscribe: %s", resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	readDelta = func() wire.Delta {
		t.Helper()
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("delta stream: %v (read %q)", err, line)
		}
		var d wire.Delta
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("delta line %q: %v", line, err)
		}
		return d
	}
	closeBody = func() { pw.Close(); resp.Body.Close() }
	return readDelta, closeBody
}

// TestServerSubscribe: a standing pattern query streams an init
// snapshot, then one delta per committed batch that changes its
// answer, and ends with a "draining" line when the server drains.
func TestServerSubscribe(t *testing.T) {
	e := engine.MustNew(mutateGraph(), engine.Options{Workers: 2})
	srv := server.New(e, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	// A(t=1) --x within 2--> B(t=2): initially a->b.
	readDelta, closeBody := subscribeStream(t, ts.URL, "node A\tt = 1\nnode B\tt = 2\nedge A B\tx{2}")
	defer closeBody()

	init := readDelta()
	wantInit := wire.Delta{Gen: 0, Kind: wire.DeltaInit, Count: 1, Match: []wire.MatchEdge{
		{From: "A", To: "B", Expr: "x{2}", Pairs: [][2]int64{{0, 1}}},
	}}
	if !reflect.DeepEqual(init, wantInit) {
		t.Fatalf("init line %+v, want %+v", init, wantInit)
	}
	if st := srv.Stats(); st.Subscriptions != 1 {
		t.Fatalf("subscriptions = %d, want 1", st.Subscriptions)
	}

	// Generation 1 adds c(t=2) and a->c: the answer gains a pair.
	postMutations(t, ts.URL, "add_node c t=2\nadd_edge a c x\n")
	d1 := readDelta()
	want1 := wire.Delta{Gen: 1, Kind: wire.DeltaDelta, Count: 2, Added: []wire.MatchEdge{
		{From: "A", To: "B", Expr: "x{2}", Pairs: [][2]int64{{0, 2}}},
	}}
	if !reflect.DeepEqual(d1, want1) {
		t.Fatalf("delta 1 %+v, want %+v", d1, want1)
	}

	// Generation 2 removes a->b: the answer loses the original pair.
	postMutations(t, ts.URL, "remove_edge a b x\n")
	d2 := readDelta()
	want2 := wire.Delta{Gen: 2, Kind: wire.DeltaDelta, Count: 1, Removed: []wire.MatchEdge{
		{From: "A", To: "B", Expr: "x{2}", Pairs: [][2]int64{{0, 1}}},
	}}
	if !reflect.DeepEqual(d2, want2) {
		t.Fatalf("delta 2 %+v, want %+v", d2, want2)
	}

	// A graceful drain releases the standing stream: the subscriber gets
	// its end line and Drain returns nil well before its deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain with a live subscription: %v", err)
	}
	end := readDelta()
	if end.Kind != wire.DeltaEnd || end.Err != "draining" || end.Gen != 2 {
		t.Fatalf("end line %+v, want kind end / error draining / gen 2", end)
	}
	if st := srv.Stats(); st.Subscriptions != 0 {
		t.Errorf("subscriptions after drain = %d, want 0", st.Subscriptions)
	}
}

// TestServerSubscribeRejects: non-pattern and malformed subscribe
// requests are refused with 400 before the stream starts.
func TestServerSubscribeRejects(t *testing.T) {
	e := engine.MustNew(mutateGraph(), engine.Options{Workers: 2})
	srv := server.New(e, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	for name, body := range map[string]string{
		"rq":        `{"rq":{"expr":"x"}}`,
		"malformed": `{broken`,
		"bad pq":    `{"pq":"edge A B\tx"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/subscribe", "application/x-ndjson", strings.NewReader(body+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %s, want 400", name, resp.Status)
		}
	}
}
