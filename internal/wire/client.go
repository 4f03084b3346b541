package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// PostStream is the client side of the wire: it streams the request
// lines to a /v1/query endpoint and invokes fn for every response line
// as it arrives, with both the raw line (for pass-through) and the
// decoded Response. The upload runs through a pipe, so a server
// stalling its body reads (admission-bound flow control) back-pressures
// request production here too. A non-nil error from fn stops the read
// loop and is returned. cmd/rgquery -remote reaches the same
// implementation through PostStreamRetry.
func PostStream(url string, reqs []Request, fn func(raw []byte, resp *Response) error) error {
	_, err := postStream(url, reqs, fn)
	return err
}

// PostStreamRetry is PostStream with a bounded dial-retry loop: when the
// POST fails at the transport level — connection refused because the
// server has not bound its port yet, or reset before a response arrived
// — the attempt is retried up to retries times, sleeping backoff, 2×
// backoff, 4× backoff (capped at 2s) between attempts. Only attempts
// that never produced an HTTP response are retried: once a status line
// has been read, fn may have observed response lines, and re-sending
// the batch could double-deliver — such errors return immediately.
// Requests on this path must therefore be idempotent reads, which every
// wire request is.
func PostStreamRetry(url string, reqs []Request, fn func(raw []byte, resp *Response) error, retries int, backoff time.Duration) error {
	const maxBackoff = 2 * time.Second
	d := backoff
	for attempt := 0; ; attempt++ {
		connected, err := postStream(url, reqs, fn)
		if err == nil || connected || attempt >= retries {
			return err
		}
		if d > 0 {
			time.Sleep(d)
			if d *= 2; d > maxBackoff {
				d = maxBackoff
			}
		}
	}
}

// postStream runs one POST attempt. connected reports whether an HTTP
// response arrived — the retry-safety boundary: while false, fn has
// never been invoked and the server never saw a complete request.
func postStream(url string, reqs []Request, fn func(raw []byte, resp *Response) error) (connected bool, err error) {
	pr, pw := io.Pipe()
	go func() {
		enc := json.NewEncoder(pw)
		for i := range reqs {
			if err := enc.Encode(&reqs[i]); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		pw.Close()
	}()
	return postLines(url, pr, func(line []byte) error {
		var resp Response
		if err := json.Unmarshal(line, &resp); err != nil {
			return fmt.Errorf("wire: malformed response line %q: %w", line, err)
		}
		return fn(line, &resp)
	})
}

// PostLines streams an arbitrary NDJSON body to url and invokes fn for
// every non-blank response line, raw — the transport under PostStream,
// exported for streams whose line schemas are not Request/Response
// (the mutation endpoint's Op/Ack/Summary lines, the subscribe
// endpoint's Delta lines). A non-nil error from fn stops the read loop
// and is returned. The body is consumed as the server reads it, so a
// server that stalls its reads (admission flow control, a chunked
// apply loop) back-pressures the producer behind body.
func PostLines(url string, body io.Reader, fn func(line []byte) error) error {
	_, err := postLines(url, body, fn)
	return err
}

// postLines is the shared POST core: send body, scan the NDJSON reply,
// hand every non-blank line to fn. connected reports whether an HTTP
// response arrived (the retry-safety boundary PostStreamRetry relies
// on); a non-200 status is rendered into an error with the (truncated)
// response body.
func postLines(url string, body io.Reader, fn func(line []byte) error) (connected bool, err error) {
	httpResp, err := http.Post(url, "application/x-ndjson", body)
	if err != nil {
		return false, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4<<10))
		return true, fmt.Errorf("wire: %s: %s", httpResp.Status, strings.TrimSpace(string(b)))
	}
	sc := bufio.NewScanner(httpResp.Body)
	sc.Buffer(make([]byte, 64<<10), MaxResponseLineBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if err := fn(line); err != nil {
			return true, err
		}
	}
	if err := sc.Err(); err != nil {
		return true, fmt.Errorf("wire: response stream: %w", err)
	}
	return true, nil
}
