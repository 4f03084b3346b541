package load

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// Response is what the generator needs from one NDJSON response line:
// enough to match it to its request, to tell a failure from an answer,
// and to compare the answer with the oracle without keeping it.
type Response struct {
	ID        uint64
	Kind      string
	Count     int
	Err       string
	ErrKind   string
	LatencyUS float64
	// Hash identifies the returned pairs (RQ) or per-edge match sets
	// (PQ) independent of their order; 0 when none were returned.
	Hash uint64
}

type rawResponse struct {
	ID    *uint64         `json:"id"`
	Kind  string          `json:"kind"`
	Count int             `json:"count"`
	Pairs json.RawMessage `json:"pairs"`
	Match []struct {
		From  string          `json:"from"`
		To    string          `json:"to"`
		Expr  string          `json:"expr"`
		Pairs json.RawMessage `json:"pairs"`
	} `json:"match"`
	Err       string  `json:"error"`
	ErrKind   string  `json:"error_kind"`
	LatencyUS float64 `json:"latency_us"`
}

// ParseResponse decodes one response line. Pair arrays are hashed from
// their raw text, not decoded into slices: large answers are the point
// of one workload and the generator must stay cheaper than the server.
func ParseResponse(line []byte) (Response, error) {
	var raw rawResponse
	if err := json.Unmarshal(line, &raw); err != nil {
		return Response{}, fmt.Errorf("load: malformed response line %.120q: %w", line, err)
	}
	if raw.ID == nil {
		return Response{}, fmt.Errorf("load: response line without id: %.120q", line)
	}
	r := Response{
		ID: *raw.ID, Kind: raw.Kind, Count: raw.Count,
		Err: raw.Err, ErrKind: raw.ErrKind, LatencyUS: raw.LatencyUS,
		Hash: hashPairText(raw.Pairs),
	}
	for _, m := range raw.Match {
		r.Hash += EdgeHash(m.From, m.To, m.Expr, hashPairText(m.Pairs))
	}
	return r, nil
}

// PairHash is one pair's contribution to an order-independent answer
// hash; the hash of a pair set is the wrapping sum over its pairs.
func PairHash(from, to int64) uint64 {
	x := uint64(from)<<32 ^ uint64(to)
	// splitmix64 finaliser: adjacent ids must not cancel in the sum.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// EdgeHash is one pattern edge's contribution to a PQ answer hash.
func EdgeHash(from, to, expr string, pairs uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(from))
	h.Write([]byte{0})
	h.Write([]byte(to))
	h.Write([]byte{0})
	h.Write([]byte(expr))
	return PairHash(int64(h.Sum64()>>1), int64(pairs>>1))
}

// hashPairText sums PairHash over a JSON array of [from,to] pairs
// given as text: every two consecutive integers are one pair.
func hashPairText(b []byte) uint64 {
	var sum uint64
	var v [2]int64
	n, in := 0, false
	var cur int64
	for _, c := range b {
		if c >= '0' && c <= '9' {
			cur, in = cur*10+int64(c-'0'), true
			continue
		}
		if in {
			v[n], cur, in = cur, 0, false
			if n++; n == 2 {
				sum += PairHash(v[0], v[1])
				n = 0
			}
		}
	}
	return sum
}
