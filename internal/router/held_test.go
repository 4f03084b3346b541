package router_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"regraph/internal/engine"
	"regraph/internal/router"
	"regraph/internal/wire"
)

// TestNoLineHeld: response lines are flushed once per burst, so none
// may wait for a later request. Over real HTTP, against a replica and
// against a router in front of two, a ping-pong stream must receive
// each answer before it sends the next line, and a pipelined burst must
// have every id answered exactly once.
func TestNoLineHeld(t *testing.T) {
	defer leakCheck(t)()
	g := testGraph(7)
	reqs := wireBatch(t, g, 200, 5)
	want := wantResponses(t, engine.MustNew(g, engine.Options{Workers: 2}), reqs)
	reps := []*replicaProc{startReplica(t, g, nil), startReplica(t, g, nil)}
	defer func() {
		for _, r := range reps {
			r.stop()
		}
	}()
	_, routerURL, cleanup := startRouter(t, router.Options{ProbeInterval: -1}, reps...)
	defer cleanup()

	for _, tc := range []struct{ name, url string }{{"server", reps[0].url}, {"router", routerURL}} {
		t.Run(tc.name+"/ping-pong", func(t *testing.T) { pingPong(t, tc.url, reqs) })
		t.Run(tc.name+"/burst", func(t *testing.T) { checkExact(t, postNDJSON(t, tc.url, reqs), want) })
	}
}

// pingPong sends one request line at a time on a held-open stream and
// waits up to 2 s for its response before sending the next.
func pingPong(t *testing.T, url string, reqs []wire.Request) {
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/query", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/query: %s", resp.Status)
	}
	// Sized so the reader never blocks on a test that gave up early.
	lines := make(chan []byte, len(reqs)+1)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), wire.MaxResponseLineBytes)
		for sc.Scan() {
			lines <- append([]byte(nil), sc.Bytes()...)
		}
	}()
	enc := json.NewEncoder(pw)
	for i := range reqs {
		if err := enc.Encode(&reqs[i]); err != nil {
			t.Fatal(err)
		}
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("request %d: stream ended", i)
			}
			var r wire.Response
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatalf("request %d: malformed response %q: %v", i, line, err)
			}
			if r.ID != *reqs[i].ID {
				t.Fatalf("request %d: answered id %d", i, r.ID)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("request %d: no response within 2s; the line is held", i)
		}
	}
	pw.Close()
	for line := range lines {
		t.Errorf("unexpected line after the last response: %s", line)
	}
}
