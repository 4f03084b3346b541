package bench

import (
	"context"
	"fmt"
	"net"
	"time"

	"regraph/internal/engine"
	"regraph/internal/gen"
	"regraph/internal/loadgen"
	"regraph/internal/server"
	"regraph/internal/wire"
)

// ServerLoad measures QoS under open-loop load (ISSUE 7): a loopback
// rgserve with adaptive admission is first calibrated closed-loop to
// find its saturation throughput, then driven by internal/loadgen at
// 0.5×, 1× and 2× that rate with a deadline-carrying RQ/PQ mix. Each
// row reports offered vs achieved QPS, exact p50/p99/p999 latency
// (from scheduled arrival — coordinated-omission corrected) and the
// shed / deadline-miss rates; the same numbers are exported as Metrics
// so BENCH_load.json records the whole saturation story. The expected
// shape: below saturation the tail is flat and nothing is shed; above
// it the open-loop backlog grows without bound and the deadline
// scheduler sheds the excess instead of letting every request time out
// mid-evaluation.
func ServerLoad(e *Env) *Table {
	t := &Table{
		ID:     "Load",
		Title:  "open-loop offered load: latency tail and shed rate (YouTube, matrix, adaptive admission)",
		XLabel: "offered",
		Series: []string{"offered-qps", "achieved-qps", "p50-ms", "p99-ms", "p999-ms", "shed-%", "miss-%"},
	}
	g, _, _ := e.YouTube()
	// A wide admission window puts the overload backlog inside the
	// deadline scheduler (where it can be shed and reordered) instead
	// of in TCP buffers where no QoS applies; adaptive admission then
	// shrinks the effective bound to what the deadline budgets allow.
	en := engine.MustNew(g, engine.Options{BackendKind: "matrix"})
	srv := server.New(en, server.Options{MaxInFlight: 4096, AdaptiveInFlight: true})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("bench: server load needs a loopback listener: %v", err))
	}
	go srv.Serve(l)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	url := "http://" + l.Addr().String() + "/v1/query"

	// The request template pool: count-only RQs with one PQ per six
	// requests (the serving mix), every third request high-priority.
	r := e.Rand(7701)
	const nTmpl = 24
	tmpl := make([]wire.Request, 0, nTmpl)
	for i := 0; i < nTmpl; i++ {
		q := gen.RQ(g, 3, 5, 1+r.Intn(3), r)
		var req wire.Request
		if i%6 == 5 {
			req = wire.Request{PQ: fmt.Sprintf("node A\t%s\nnode B\t%s\nedge A B\t%s",
				q.From, q.To, q.Expr)}
		} else {
			req = wire.Request{RQ: &wire.RQSpec{From: q.From.String(), To: q.To.String(), Expr: q.Expr.String()}, Count: true}
		}
		if i%3 == 0 {
			req.Priority = 6
		}
		tmpl = append(tmpl, req)
	}

	// Closed-loop calibration through the same wire path: capacity is
	// what the server sustains when the client waits for completions.
	calN := 300 * e.Cfg.QueriesPerPoint
	lines := make([]wire.Request, calN)
	for i := range lines {
		lines[i] = tmpl[i%len(tmpl)]
		id := uint64(i)
		lines[i].ID = &id
	}
	t0 := time.Now()
	if _, err := postCountBatch(url, lines); err != nil {
		panic(fmt.Sprintf("bench: load calibration: %v", err))
	}
	elapsed := time.Since(t0)
	capacity := float64(calN) / elapsed.Seconds()
	meanService := elapsed * time.Duration(en.Workers()) / time.Duration(calN)
	t.Metric("capacity-qps", capacity)

	// Deadline budget: a generous multiple of the calibrated mean
	// service time, so below saturation nothing is shed while above it
	// the unbounded open-loop backlog must be.
	budget := 25 * meanService
	if budget < 20*time.Millisecond {
		budget = 20 * time.Millisecond
	}
	if budget > 2*time.Second {
		budget = 2 * time.Second
	}
	qosTmpl := make([]wire.Request, len(tmpl))
	for i := range tmpl {
		qosTmpl[i] = tmpl[i]
		qosTmpl[i].DeadlineMS = budget.Milliseconds()
	}
	t.Metric("deadline-ms", float64(budget.Milliseconds()))

	for _, m := range []float64{0.5, 1, 2} {
		rate := capacity * m
		nArr := 400 * e.Cfg.QueriesPerPoint
		dur := time.Duration(float64(nArr) / rate * float64(time.Second))
		// Long enough for an above-saturation backlog to exceed the
		// deadline budget (the whole point of the 2x row), short enough
		// for CI.
		if min := 4 * budget; dur < min {
			dur = min
		}
		if dur > 3*time.Second {
			dur = 3 * time.Second
		}
		res, err := loadgen.Run(loadgen.Config{
			URL:      url,
			Rate:     rate,
			Duration: dur,
			Arrivals: loadgen.Poisson,
			Streams:  4,
			Seed:     e.Cfg.Seed*1_000_003 + int64(m*10),
			Requests: qosTmpl,
		})
		if err != nil {
			panic(fmt.Sprintf("bench: load run at %.1fx: %v", m, err))
		}
		label := fmt.Sprintf("%.1fx", m)
		answered := res.Sent
		shedPct := 100 * float64(res.Shed) / float64(answered)
		missPct := 100 * float64(res.DeadlineMiss) / float64(answered)
		t.Add(label, map[string]float64{
			"offered-qps":  res.OfferedQPS,
			"achieved-qps": res.AchievedQPS,
			"p50-ms":       ms(res.P50),
			"p99-ms":       ms(res.P99),
			"p999-ms":      ms(res.P999),
			"shed-%":       shedPct,
			"miss-%":       missPct,
		})
		t.Metric("offered-qps-"+label, res.OfferedQPS)
		t.Metric("achieved-qps-"+label, res.AchievedQPS)
		t.Metric("p50-ms-"+label, ms(res.P50))
		t.Metric("p99-ms-"+label, ms(res.P99))
		t.Metric("p999-ms-"+label, ms(res.P999))
		t.Metric("shed-pct-"+label, shedPct)
		t.Metric("miss-pct-"+label, missPct)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("deadline budget %v; latencies from scheduled arrival (open-loop)", budget))
	return t
}

// ms converts a duration to float milliseconds for table cells.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
