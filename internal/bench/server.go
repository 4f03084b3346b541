package bench

import (
	"context"
	"fmt"
	"net"
	"time"

	"regraph/internal/engine"
	"regraph/internal/gen"
	"regraph/internal/reach"
	"regraph/internal/server"
	"regraph/internal/wire"
)

// ServerThroughput measures what the HTTP/NDJSON wire costs over the
// in-process session API (ISSUE 5): the same count-only RQ batch is run
// once through Engine.Open directly and once through a real rgserve
// loopback server (POST /v1/query, responses streamed back and
// decoded). Count-only requests keep answer serialization out of both
// paths, so the gap is the protocol itself — JSON framing, HTTP, TCP,
// and the per-stream session plumbing. Table.Metrics records the
// overhead factor at the largest point.
func ServerThroughput(e *Env) *Table {
	t := &Table{
		ID:     "Server",
		Title:  "batch RQ: in-process session vs HTTP/NDJSON wire (YouTube, matrix)",
		XLabel: "#queries",
		Unit:   "s",
		Series: []string{"Session", "HTTP"},
	}
	g, _, _ := e.YouTube()
	en := engine.MustNew(g, engine.Options{BackendKind: "matrix"})
	srv := server.New(en, server.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("bench: server throughput needs a loopback listener: %v", err))
	}
	go srv.Serve(l)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	url := "http://" + l.Addr().String() + "/v1/query"

	var lastSess, lastHTTP float64
	for _, base := range []int{128, 512} {
		nq := base * e.Cfg.QueriesPerPoint
		r := e.Rand(int64(9910 + nq))
		qs := make([]reach.Query, nq)
		lines := make([]wire.Request, nq)
		for i := range qs {
			qs[i] = gen.RQ(g, 3, 5, 1+r.Intn(3), r)
			id := uint64(i)
			lines[i] = wire.Request{
				ID:    &id,
				RQ:    &wire.RQSpec{From: qs[i].From.String(), To: qs[i].To.String(), Expr: qs[i].Expr.String()},
				Count: true,
			}
		}

		// In-process session, Emit-counted (no answers materialized).
		counts := make([]int, nq)
		sess := timeIt(func() {
			s := en.Open(context.Background(), engine.SessionOptions{})
			go func() {
				for i := range qs {
					i := i
					req := engine.Request{RQ: &qs[i], Emit: func(reach.Pair) bool {
						counts[i]++
						return true
					}}
					if _, err := s.Submit(context.Background(), req); err != nil {
						return
					}
				}
				s.Close()
			}()
			for range s.Results() {
			}
		})
		pairs := 0
		for _, c := range counts {
			pairs += c
		}

		// Same batch over the wire against the loopback server.
		wirePairs := 0
		httpT := timeIt(func() {
			var err error
			wirePairs, err = postCountBatch(url, lines)
			if err != nil {
				panic(fmt.Sprintf("bench: wire batch: %v", err))
			}
		})
		if wirePairs != pairs {
			panic(fmt.Sprintf("bench: wire answered %d pairs, session %d", wirePairs, pairs))
		}

		t.Add(fmt.Sprint(nq), map[string]float64{"Session": sess, "HTTP": httpT})
		lastSess, lastHTTP = sess, httpT
	}
	if lastSess > 0 {
		t.Metric("wire-overhead-x", lastHTTP/lastSess)
	}
	return t
}

// postCountBatch streams the request lines to the server and sums the
// counts out of the response stream.
func postCountBatch(url string, lines []wire.Request) (int, error) {
	total, got := 0, 0
	err := wire.PostStream(url, lines, func(_ []byte, r *wire.Response) error {
		if r.Err != "" {
			return fmt.Errorf("response %d: %s", r.ID, r.Err)
		}
		total += r.Count
		got++
		return nil
	})
	if err != nil {
		return 0, err
	}
	if got != len(lines) {
		return 0, fmt.Errorf("got %d responses, want %d", got, len(lines))
	}
	return total, nil
}
