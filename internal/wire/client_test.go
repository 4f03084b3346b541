package wire

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"regraph/internal/faultinject"
)

// echoServer serves /v1/query by answering every request line with a
// count-0 response carrying the request's id — just enough wire
// protocol to exercise the client. hits counts handler invocations.
func echoServer(t *testing.T, script *faultinject.Script, hits *atomic.Int64) (url string, fl *faultinject.Listener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl = faultinject.Wrap(ln, script)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		// Responses go out while the request body is still arriving, as
		// in the real server: without full duplex, Go's HTTP/1 server may
		// cut the body off after the first flush.
		if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
			t.Errorf("EnableFullDuplex: %v", err)
		}
		dec := NewDecoder(r.Body)
		enc := NewEncoder(w)
		for {
			req, err := dec.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				return
			}
			enc.Encode(Response{ID: *req.ID, Kind: "rq"})
		}
	})}
	go srv.Serve(fl)
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String() + "/v1/query", fl
}

func retryReqs(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		id := uint64(i)
		reqs[i] = Request{ID: &id, RQ: &RQSpec{Expr: "fn"}}
	}
	return reqs
}

// TestPostStreamRetryRefusedDial pins the headline behavior: the first
// two dials die at accept (RST — the shape of a server that has not
// come up yet), the third succeeds, and the batch is delivered exactly
// once with no callback invocations from the failed attempts.
func TestPostStreamRetryRefusedDial(t *testing.T) {
	var hits atomic.Int64
	url, _ := echoServer(t, &faultinject.Script{Refuse: map[int]bool{0: true, 1: true}}, &hits)
	seen := map[uint64]int{}
	err := PostStreamRetry(url, retryReqs(4), func(_ []byte, r *Response) error {
		seen[r.ID]++
		return nil
	}, 3, time.Millisecond)
	if err != nil {
		t.Fatalf("PostStreamRetry: %v", err)
	}
	if len(seen) != 4 {
		t.Fatalf("got %d distinct ids, want 4: %v", len(seen), seen)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("id %d answered %d times (exactly-once violated)", id, n)
		}
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("handler ran %d times, want 1", got)
	}
}

// TestPostStreamRetryExhausted pins the failure shape: a server that is
// down for good exhausts the budget and the transport error surfaces;
// the callback never runs.
func TestPostStreamRetryExhausted(t *testing.T) {
	var hits atomic.Int64
	url, fl := echoServer(t, nil, &hits)
	fl.SetRefuse(true)
	calls := 0
	err := PostStreamRetry(url, retryReqs(1), func(_ []byte, _ *Response) error {
		calls++
		return nil
	}, 2, time.Millisecond)
	if err == nil {
		t.Fatal("want transport error after exhausted retries, got nil")
	}
	if calls != 0 {
		t.Fatalf("callback ran %d times on a dead server", calls)
	}
	if got := hits.Load(); got != 0 {
		t.Fatalf("handler ran %d times, want 0", got)
	}
}

// TestPostStreamRetryNoRetryOnceConnected pins the retry-safety
// boundary: an HTTP-level failure (here a 503) is NOT retried even with
// budget left, because the server saw the request — re-sending could
// double-deliver.
func TestPostStreamRetryNoRetryOnceConnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		http.Error(w, "draining", http.StatusServiceUnavailable)
	})}
	go srv.Serve(ln)
	defer srv.Close()
	err = PostStreamRetry("http://"+ln.Addr().String()+"/v1/query", retryReqs(1),
		func(_ []byte, _ *Response) error { return nil }, 5, time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("want 503 error, got %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("handler ran %d times, want exactly 1 (no retry after a response)", got)
	}
}

// TestPostStreamMalformedResponse keeps the non-retry entry point
// honest about its error contract.
func TestPostStreamMalformedResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		fmt.Fprintln(w, "not json")
	})}
	go srv.Serve(ln)
	defer srv.Close()
	err = PostStream("http://"+ln.Addr().String()+"/v1/query", retryReqs(1),
		func(_ []byte, _ *Response) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "malformed response line") {
		t.Fatalf("want malformed-line error, got %v", err)
	}
}
