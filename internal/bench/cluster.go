package bench

import (
	"fmt"
	"net"
	"sync"
	"time"

	"regraph/internal/engine"
	"regraph/internal/faultinject"
	"regraph/internal/gen"
	"regraph/internal/loadgen"
	"regraph/internal/router"
	"regraph/internal/server"
	"regraph/internal/wire"
)

// Cluster measures the replica router (ISSUE 8): open-loop throughput
// scaling at 1, 2 and 4 rgserve replicas behind one rgrouter, plus a
// fault-schedule row where one of two replicas is RST-killed for the
// middle third of the run and then recovers. Each replica runs one
// engine worker, so a replica models one single-core process and the
// scaling rows measure the router tier, not intra-engine parallelism
// (on a single-core host every row collapses to the same capacity —
// the ≥1.7x 2-vs-1 scaling needs real cores, as in CI). The offered
// rate is a fixed multiple of the calibrated single-replica capacity,
// well above what any row can serve, so achieved QPS reads out each
// configuration's capacity; the fault rows run below capacity, where
// the interesting number is how little the kill window costs. The
// fault row must complete every request (the router retries the killed
// replica's in-flight ids) — unavailable/errored counts are part of
// the table, and nonzero is a correctness failure, not a slow run.
func Cluster(e *Env) *Table {
	t := &Table{
		ID:     "Cluster",
		Title:  "replica router: open-loop scaling and fault schedule (YouTube, 1 worker/replica)",
		XLabel: "config",
		Series: []string{"offered-qps", "achieved-qps", "p50-ms", "p99-ms", "unavailable", "errors"},
	}
	g, _, _ := e.YouTube()

	// Count-only RQ templates — the idempotent-read workload the
	// router's retry policy is sound for.
	r := e.Rand(8801)
	const nTmpl = 16
	tmpl := make([]wire.Request, nTmpl)
	for i := range tmpl {
		q := gen.RQ(g, 3, 5, 1+r.Intn(3), r)
		tmpl[i] = wire.Request{
			RQ:    &wire.RQSpec{From: q.From.String(), To: q.To.String(), Expr: q.Expr.String()},
			Count: true,
		}
	}

	// cluster starts n single-worker replicas on faultinject-wrapped
	// loopback listeners and a router in front of them.
	cluster := func(n int) (rt *router.Router, fls []*faultinject.Listener, url string, stop func()) {
		var stops []func()
		urls := make([]string, n)
		for i := 0; i < n; i++ {
			en := engine.MustNew(g, engine.Options{Workers: 1, BackendKind: "matrix"})
			srv := server.New(en, server.Options{MaxInFlight: 256})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				panic(fmt.Sprintf("bench: cluster replica listener: %v", err))
			}
			fl := faultinject.Wrap(l, nil)
			go srv.Serve(fl)
			fls = append(fls, fl)
			urls[i] = "http://" + l.Addr().String()
			stops = append(stops, func() { srv.Close() })
		}
		rt, err := router.New(router.Options{
			Replicas:      urls,
			ProbeInterval: 50 * time.Millisecond,
			FailThreshold: 2,
			Cooldown:      200 * time.Millisecond,
			RetryBackoff:  10 * time.Millisecond,
			Seed:          e.Cfg.Seed,
		})
		if err != nil {
			panic(fmt.Sprintf("bench: cluster router: %v", err))
		}
		rl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(fmt.Sprintf("bench: cluster router listener: %v", err))
		}
		go rt.Serve(rl)
		return rt, fls, "http://" + rl.Addr().String() + "/v1/query", func() {
			rt.Close()
			for _, s := range stops {
				s()
			}
		}
	}

	// row drives one open-loop run and records it.
	row := func(label string, url string, rate float64, dur time.Duration, seedOff int64) loadgen.Result {
		res, err := loadgen.Run(loadgen.Config{
			URL:      url,
			Rate:     rate,
			Duration: dur,
			Arrivals: loadgen.Poisson,
			Streams:  4,
			Seed:     e.Cfg.Seed*1_000_003 + seedOff,
			Requests: tmpl,
		})
		if err != nil {
			panic(fmt.Sprintf("bench: cluster row %s: %v", label, err))
		}
		t.Add(label, map[string]float64{
			"offered-qps":  res.OfferedQPS,
			"achieved-qps": res.AchievedQPS,
			"p50-ms":       ms(res.P50),
			"p99-ms":       ms(res.P99),
			"unavailable":  float64(res.Unavailable),
			"errors":       float64(res.Errored),
		})
		t.Metric("qps-"+label, res.AchievedQPS)
		t.Metric("p99-ms-"+label, ms(res.P99))
		return res
	}

	// Calibrate single-replica capacity closed-loop through the router
	// (so router overhead is inside the baseline), then saturate every
	// scaling row with the same offered rate: high enough that even 4
	// replicas are the bottleneck, so achieved QPS == capacity(n).
	rt1, _, url1, stop1 := cluster(1)
	calN := 200 * e.Cfg.QueriesPerPoint
	var wg sync.WaitGroup
	errs := make([]error, 2)
	t0 := time.Now()
	for s := 0; s < len(errs); s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			lines := make([]wire.Request, calN/2)
			for i := range lines {
				lines[i] = tmpl[(s+i)%len(tmpl)]
				id := uint64(i)
				lines[i].ID = &id
			}
			_, errs[s] = postCountBatch(url1, lines)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			panic(fmt.Sprintf("bench: cluster calibration: %v", err))
		}
	}
	capacity := float64(calN) / time.Since(t0).Seconds()
	t.Metric("capacity-1-qps", capacity)

	// Scaling rows: duration sized so the slowest row (n=1 absorbing
	// 5x its capacity) stays CI-friendly.
	satRate := 5 * capacity
	satDur := time.Second
	res1 := row("1", url1, satRate, satDur, 1)
	_ = rt1.Stats()
	stop1()

	rt2, fls2, url2, stop2 := cluster(2)
	res2 := row("2", url2, satRate, satDur, 2)
	t.Metric("scale-2v1", res2.AchievedQPS/res1.AchievedQPS)

	// Fault schedule on the 2-replica cluster, below its capacity: the
	// fault-free baseline first, then the same offered load with one
	// replica RST-killed for the middle third of the arrival window.
	faultRate := 0.55 * res2.AchievedQPS
	faultDur := 2400 * time.Millisecond
	base := row("2-ok", url2, faultRate, faultDur, 3)
	kill := time.AfterFunc(faultDur/3, func() {
		fls2[1].SetRefuse(true)
		fls2[1].AbortAll()
	})
	recover := time.AfterFunc(2*faultDur/3, func() { fls2[1].SetRefuse(false) })
	fault := row("2-fault", url2, faultRate, faultDur, 4)
	kill.Stop()
	recover.Stop()
	st := rt2.Stats()
	t.Metric("fault-retries", float64(st.Retries))
	t.Metric("fault-unavailable", float64(fault.Unavailable))
	t.Metric("fault-qps-ratio", fault.AchievedQPS/base.AchievedQPS)
	stop2()

	rt4, _, url4, stop4 := cluster(4)
	res4 := row("4", url4, satRate, satDur, 5)
	t.Metric("scale-4v1", res4.AchievedQPS/res1.AchievedQPS)
	_ = rt4.Stats()
	stop4()

	t.Notes = append(t.Notes,
		fmt.Sprintf("offered %0.f qps on the scaling rows (5x calibrated single-replica capacity)", satRate),
		"2-fault: replica #2 RST-killed at T/3, recovered at 2T/3; unavailable/errors must be 0")
	return t
}
