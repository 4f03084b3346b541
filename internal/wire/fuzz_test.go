package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecode drives the NDJSON request decoder (and, for lines that
// decode, the qlang compile path behind it) with arbitrary input. The
// contract under fuzz: never panic, classify every line as either a
// request, a recoverable *LineError, or a terminal stream error — a
// malformed line must never take the stream down. It also holds the
// reflection-free line decoder to encoding/json (checkDecodeLine).
// Seed corpus lives in testdata/fuzz/FuzzDecode and runs on every plain
// `go test`.
func FuzzDecode(f *testing.F) {
	f.Add(`{"id":1,"rq":{"from":"job = doctor","to":"*","expr":"fa{2} fn"}}`)
	f.Add(`{"pq":"node A\t*\nnode B\t*\nedge A B\tfn+"}`)
	f.Add(`{"id":3,"rq":{"expr":"_+"},"count":true}` + "\n" + `{"id":4}`)
	f.Add("not json\n\n{\"rq\":{\"expr\":\"fn\"}}")
	f.Add(`{"id":18446744073709551615,"rq":{"expr":"fn{999999999999}"}}`)
	f.Add(`{"rq":{"from":"a = \"quo\\\"ted\"","expr":"fn"},"pq":"x"}`)
	f.Add(`{"rq":{"expr":"fn"},"priority":6,"deadline_ms":250}`)
	f.Add(`{"rq":{"expr":"fn"},"priority":-1,"deadline_ms":9223372036854775807}`)
	f.Add("\x00\xff\xfe")
	// Unknown fields (a response line fed back as a request, as a
	// confused router client might) must decode-and-ignore, not fail.
	f.Add(`{"id":8,"error":"router: no live replica available","error_kind":"unavailable","rq":{"expr":"fn"}}`)
	f.Fuzz(func(t *testing.T, input string) {
		for _, line := range strings.Split(input, "\n") {
			checkDecodeLine(t, bytes.TrimSpace([]byte(line)))
		}
		dec := NewDecoder(strings.NewReader(input))
		for i := 0; i < 1<<16; i++ { // hard stop; EOF must arrive long before
			req, err := dec.Next()
			if err == io.EOF {
				return
			}
			var le *LineError
			if errors.As(err, &le) {
				if le.Line <= 0 {
					t.Fatalf("LineError without a line number: %v", err)
				}
				if req.ID == nil {
					t.Fatal("malformed line lost its ordinal id")
				}
				continue
			}
			if err != nil {
				return // terminal stream error (e.g. oversized line): allowed
			}
			if req.ID == nil {
				t.Fatal("decoded request without an id")
			}
			// Compiling may fail (that is the structured per-line error the
			// service returns) but must never panic.
			ereq, kind, cerr := req.Compile()
			if cerr == nil {
				switch kind {
				case "rq":
					if ereq.RQ == nil {
						t.Fatal("rq compiled to empty request")
					}
				case "pq":
					if ereq.PQ == nil {
						t.Fatal("pq compiled to empty request")
					}
				default:
					t.Fatalf("compile succeeded with kind %q", kind)
				}
			}
		}
		t.Fatal("decoder failed to reach EOF")
	})
}

// checkDecodeLine: a line decodeLine accepts must be one encoding/json
// accepts too, decode to the same Request, and use only the keys the
// wire defines, spelled exactly (encoding/json also matches "ID" or
// "Count", but those lines are its to decode). A declined line goes to
// encoding/json, so the rest of FuzzDecode covers it.
func checkDecodeLine(t *testing.T, line []byte) {
	t.Helper()
	got, ok := decodeLine(line)
	if !ok {
		return
	}
	var want Request
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatalf("decodeLine accepted %q, which encoding/json rejects: %v", line, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeLine(%q) = %s, encoding/json gives %s", line, dump(got), dump(want))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		t.Fatalf("accepted line %q is not an object: %v", line, err)
	}
	for k, v := range top {
		switch k {
		case "id", "pq", "count", "priority", "deadline_ms":
		case "rq":
			var rq map[string]json.RawMessage
			if err := json.Unmarshal(v, &rq); err != nil {
				t.Fatalf("accepted line %q: rq is not an object: %v", line, err)
			}
			for k := range rq {
				if k != "from" && k != "to" && k != "expr" {
					t.Fatalf("decodeLine accepted rq key %q in %q", k, line)
				}
			}
		default:
			t.Fatalf("decodeLine accepted key %q in %q", k, line)
		}
	}
}

// dump renders a Request with its pointer fields followed.
func dump(r Request) string {
	b, _ := json.Marshal(r) // a Request always marshals
	return string(b)
}

// FuzzResponse drives the response-line schema with arbitrary bytes.
// The replica router machine-parses response lines from its upstreams
// (internal/router fans them back in by id), so this path is
// load-bearing, not just client convenience. Contract: never panic,
// and any line that parses must survive an encode/decode round trip
// byte-identically — otherwise a router re-encoding a replica's answer
// would corrupt the client's stream.
func FuzzResponse(f *testing.F) {
	f.Add(`{"id":1,"kind":"rq","count":2,"pairs":[[0,3],[7,3]],"latency_us":412}`)
	f.Add(`{"id":2,"kind":"pq","count":1,"match":[{"from":"A","to":"B","expr":"fn+","pairs":[[4,9]]}],"latency_us":88.25}`)
	f.Add(`{"id":8,"count":0,"error":"router: no live replica available","error_kind":"unavailable","latency_us":0}`)
	f.Add(`{"id":9,"count":0,"error":"router: stream canceled before the request was answered","error_kind":"canceled","latency_us":0}`)
	f.Add(`{"kind":"stream","count":0,"error":"request stream aborted: read tcp: reset","latency_us":0}`)
	f.Add(`{"id":18446744073709551615,"count":-1,"latency_us":-0.5}`)
	f.Add("\x00\xff\xfe")
	f.Fuzz(func(t *testing.T, input string) {
		var resp Response
		if err := json.Unmarshal([]byte(input), &resp); err != nil {
			return // not a response line; nothing to round-trip
		}
		first, err := json.Marshal(resp)
		if err != nil {
			t.Fatalf("decoded response failed to re-encode: %v", err)
		}
		var back Response
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("re-encoded response failed to decode: %v\n%s", err, first)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("response round trip not stable:\n first %s\nsecond %s", first, second)
		}
	})
}

// FuzzDelta drives the standing-query stream schema with arbitrary
// bytes under the same contract as FuzzResponse: never panic, and any
// line that parses must survive an encode/decode round trip
// byte-identically — a client folding delta lines into its local
// answer, or a proxy re-encoding them, must not corrupt the stream.
func FuzzDelta(f *testing.F) {
	f.Add(`{"gen":4,"kind":"init","count":2,"match":[{"from":"A","to":"B","expr":"fn+","pairs":[[0,3],[7,3]]}]}`)
	f.Add(`{"gen":5,"kind":"delta","count":3,"added":[{"from":"A","to":"B","expr":"fn+","pairs":[[9,3]]}]}`)
	f.Add(`{"gen":6,"kind":"delta","count":2,"removed":[{"from":"A","to":"B","expr":"fn+","pairs":[[9,3]]}]}`)
	f.Add(`{"gen":7,"kind":"end","count":0,"error":"lagged"}`)
	f.Add(`{"gen":18446744073709551615,"kind":"","count":-1}`)
	f.Add("\x00\xff\xfe")
	f.Fuzz(func(t *testing.T, input string) {
		var d Delta
		if err := json.Unmarshal([]byte(input), &d); err != nil {
			return // not a delta line; nothing to round-trip
		}
		first, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("decoded delta failed to re-encode: %v", err)
		}
		var back Delta
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("re-encoded delta failed to decode: %v\n%s", err, first)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("delta round trip not stable:\n first %s\nsecond %s", first, second)
		}
	})
}
