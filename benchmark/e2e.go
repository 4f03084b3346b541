package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"regraph/benchmark/load"
)

// setupRuns is how many times a run launches the servers from nothing
// before it measures: setup_s is the median, the last launch serves.
const setupRuns = 3

// cluster is the server side of one workload: one rgserve, or two
// one-worker replicas behind an rgrouter.
type cluster struct {
	children []*child
	front    string // base URL the generator talks to
}

func (c *cluster) kill() {
	if c == nil {
		return
	}
	for _, ch := range c.children {
		ch.kill()
	}
}

func (c *cluster) peakRSSMB() (float64, error) {
	var sum float64
	for _, ch := range c.children {
		mb, err := ch.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// launchCluster starts w's processes and returns once every /readyz
// answers 200, with the time that took from the first exec: graph
// load, backend and candidate-index build and, with a log in walDir,
// its replay.
func launchCluster(w *spec, binDir, graphPath, walDir string, client *http.Client) (*cluster, time.Duration, error) {
	t0 := time.Now()
	deadline := t0.Add(60 * time.Second)
	cl := &cluster{}
	serve := func(workers string) error {
		args := []string{"-graph", graphPath, "-backend", w.backend, "-workers", workers}
		if w.wal {
			args = append(args, "-wal-dir", walDir, "-fsync", "always")
		}
		ch, err := launch(filepath.Join(binDir, "rgserve"), args...)
		if err == nil {
			cl.children = append(cl.children, ch)
		}
		return err
	}
	fail := func(err error) (*cluster, time.Duration, error) {
		cl.kill()
		return nil, 0, err
	}
	if !w.routed {
		if err := serve("2"); err != nil {
			return fail(err)
		}
	} else {
		for i := 0; i < 2; i++ {
			if err := serve("1"); err != nil {
				return fail(err)
			}
		}
	}
	for _, ch := range cl.children {
		if err := ch.ready(client, deadline); err != nil {
			return fail(err)
		}
	}
	cl.front = cl.children[0].url
	if w.routed {
		// The router starts after its replicas answer, so its breakers
		// never see a refused probe.
		rt, err := launch(filepath.Join(binDir, "rgrouter"),
			"-replicas", cl.children[0].url+","+cl.children[1].url)
		if err != nil {
			return fail(err)
		}
		cl.children = append(cl.children, rt)
		if err := rt.ready(client, deadline); err != nil {
			return fail(err)
		}
		cl.front = rt.url
	}
	return cl, time.Since(t0), nil
}

// commit is the outcome of one mutation batch.
type commit struct {
	latency time.Duration // scheduled send to last ack
	failed  int           // ops not acknowledged as applied
	err     error
}

// postBatch sends one batch to /v1/mutate as a single POST, which the
// server commits as one generation, and reads every ack.
func postBatch(client *http.Client, url string, ops []mutOp) (failed int, err error) {
	var body bytes.Buffer
	for _, op := range ops {
		body.Write(mustJSON(op))
		body.WriteByte('\n')
	}
	resp, err := client.Post(url+"/v1/mutate", "application/x-ndjson", &body)
	if err != nil {
		return len(ops), err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return len(ops), fmt.Errorf("mutate: %s", resp.Status)
	}
	acked := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Kind string `json:"kind"`
			Gen  uint64 `json:"gen"`
			Err  string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return len(ops), fmt.Errorf("mutate: malformed ack %q: %w", sc.Bytes(), err)
		}
		switch {
		case line.Kind == "summary":
			if line.Err != "" {
				return len(ops) - acked, fmt.Errorf("mutate: %s", line.Err)
			}
		case line.Err == "" && line.Gen > 0:
			acked++
		}
	}
	return len(ops) - acked, sc.Err()
}

// writeBatches sends batches[i] at start+(i+½)·interval, one at a time, and
// reports each commit. It is the workload's single writer.
func writeBatches(client *http.Client, url string, batches [][]mutOp, start time.Time, interval time.Duration) []commit {
	out := make([]commit, len(batches))
	for i, ops := range batches {
		due := start.Add(time.Duration(i)*interval + interval/2)
		time.Sleep(time.Until(due))
		out[i].failed, out[i].err = postBatch(client, url, ops)
		out[i].latency = time.Since(due)
	}
	return out
}

// options are the settings of one run.
type options struct {
	seed    int64
	seconds float64
	size    float64 // 1 = as defined; the smoke test shrinks graphs, pools and rates
	root    string  // module root
}

func (o options) outDir() string { return filepath.Join(o.root, "benchmark", "out") }

// batches is how many mutation batches a wal workload commits: one per
// measured second.
func (o options) batches() int { return min(max(int(o.seconds), 1), maxBatches) }

// newRun makes the scratch directory of one run (the caller removes it)
// and generates the workload's inputs into it.
func newRun(w *spec, o options, prefix string) (res *runResult, in *inputs, runDir string, err error) {
	runDir = filepath.Join(o.outDir(), fmt.Sprintf("%s-%d", prefix, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, nil, "", err
	}
	if in, err = prepare(w, o.size, o.seed, runDir, o.outDir()); err != nil {
		os.RemoveAll(runDir)
		return nil, nil, "", err
	}
	res = &runResult{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Digests: in.digests,
		Metrics: map[string]metric{}, Diagnostics: map[string]metric{}}
	return res, in, runDir, nil
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Diagnostics are printed and kept in result files but are not part
	// of the gated set: see README, "Diagnostics".
	Diagnostics map[string]metric `json:"diagnostics,omitempty"`
	Digests     map[string]string `json:"digests"`
	Problems    []string          `json:"problems,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) problem(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// account folds one phase into the run's attempted/failed totals.
func (r *runResult) account(phase string, res load.Result) {
	r.Attempted += len(res.Samples)
	if f := res.Failed(); f > 0 {
		r.Failed += f
		r.problem("%s: %d of %d requests failed, were shed or differ from the oracle", phase, f, len(res.Samples))
	}
	for _, err := range res.Errs {
		r.problem("%s: %v", phase, err)
	}
	if len(res.Samples) == 0 {
		r.Failed++
		r.problem("%s: no request was sent", phase)
	}
}

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// runE2E measures one workload over HTTP against child processes:
// set-up (several launches), warm, closed loop, open loop, and for a
// wal workload verification, crash, recovery and verification again.
func runE2E(w *spec, o options) (*runResult, error) {
	res, in, runDir, err := newRun(w, o, "run")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	binDir := filepath.Join(o.outDir(), "bin")
	if err := buildBinaries(o.root, binDir); err != nil {
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}}
	defer client.CloseIdleConnections()

	var cl *cluster
	var setups []float64
	walDir := ""
	for i := 0; i < setupRuns; i++ {
		cl.kill()
		walDir = filepath.Join(runDir, fmt.Sprintf("wal-%d", i))
		var d time.Duration
		if cl, d, err = launchCluster(w, binDir, in.graphPath, walDir, client); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() { cl.kill() }()
	_, setup, _ := quartiles(setups)
	res.Metrics["setup_s"] = metric{setup, "s"}

	check := func(tmpl int, r *load.Response) bool {
		return r.Count == in.oracle[tmpl].Count && r.Hash == in.oracle[tmpl].Hash
	}
	if w.wal {
		// Query lines carry no generation, so a read that races a commit
		// has two right answers; reads are checked for errors here and
		// against the oracle once writes have stopped (verify).
		check = func(int, *load.Response) bool { return true }
	}
	cfg := load.Config{Client: client, URL: cl.front + "/v1/query", Pool: in.pool, Seq: in.seq,
		Streams: w.streams, Rotate: w.rotate, Check: check}

	warm := load.Closed(cfg, dur(o.seconds*0.15), window)
	res.account("warm", warm)
	cfg.Base += len(warm.Samples)

	closedFor, openFor := dur(o.seconds/4), dur(o.seconds*3/4)
	var commits chan []commit
	nBatches := o.batches()
	if w.wal {
		commits = make(chan []commit, 1)
		start := time.Now()
		go func() {
			commits <- writeBatches(client, cl.front, in.batches[:nBatches], start, dur(o.seconds)/time.Duration(nBatches))
		}()
	}
	closed := load.Closed(cfg, closedFor, window)
	res.account("closed", closed)
	cfg.Base += len(closed.Samples)
	// Throughput is the rate of correct answers per half-second window,
	// reduced over the windows by steady.
	perWindow := make([]float64, windows(closedFor, 500*time.Millisecond))
	width := closedFor / time.Duration(len(perWindow))
	for _, s := range closed.Samples {
		if k := int(s.Done / width); s.OK && k < len(perWindow) {
			perWindow[k] += 1 / width.Seconds()
		}
	}
	res.Metrics["throughput_qps"] = metric{steady(perWindow, true), "1/s"}

	open := load.Open(cfg, load.Poisson(o.seed, w.rate*o.size, openFor))
	res.account("open", open)
	openLatency(res, w, open, openFor)

	if w.wal {
		cs := <-commits
		var lat []float64
		for i, c := range cs {
			res.Attempted += batchOps
			res.Failed += c.failed
			if c.err != nil || c.failed > 0 {
				res.problem("batch %d: %d ops not acknowledged: %v", i, c.failed, c.err)
			}
			lat = append(lat, ms(c.latency))
		}
		sort.Float64s(lat)
		res.Diagnostics["commit_p50_ms"] = metric{load.Quantile(lat, 0.5), "ms"}
		res.Diagnostics["commit_max_ms"] = metric{lat[len(lat)-1], "ms"}
		res.Diagnostics["commit_batches"] = metric{float64(len(lat)), "count"}
	}

	rss, err := cl.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.Metrics["peak_rss_mb"] = metric{rss, "MB"}

	if w.wal {
		// Every acknowledged write must be readable: now that writes have
		// stopped, and again from the log alone after a crash.
		final, err := finalOracle(in, nBatches)
		if err != nil {
			return nil, err
		}
		cfg.Check = func(tmpl int, r *load.Response) bool {
			return r.Count == final[tmpl].Count && r.Hash == final[tmpl].Hash
		}
		res.account("verify", verify(cfg, len(in.pool)))
		cl.kill()
		var d time.Duration
		if cl, d, err = launchCluster(w, binDir, in.graphPath, walDir, client); err != nil {
			return nil, err
		}
		res.Diagnostics["recover_s"] = metric{d.Seconds(), "s"}
		cfg.URL = cl.front + "/v1/query"
		res.account("verify after recovery", verify(cfg, len(in.pool)))
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// verify asks every template once, all at the same instant.
func verify(cfg load.Config, n int) load.Result {
	cfg.Seq = make([]int32, n)
	for i := range cfg.Seq {
		cfg.Seq[i] = int32(i)
	}
	cfg.Base, cfg.Rotate = 0, 0
	return load.Open(cfg, make([]time.Duration, n))
}

// finalOracle replays the first n batches on the plain graph and
// evaluates the pool there.
func finalOracle(in *inputs, n int) ([]answer, error) {
	for _, ops := range in.batches[:n] {
		for _, op := range ops {
			if err := applyPlain(in.graph, op); err != nil {
				return nil, err
			}
		}
	}
	return oracleAnswers(in.graph, in.pool)
}

// openLatency derives the latency metrics of the open phase. Latency
// runs from the time a request was due, so a stalled server is charged
// for the requests that queued behind the stall.
func openLatency(res *runResult, w *spec, open load.Result, openFor time.Duration) {
	var lat, late []float64
	var evalUS, misses float64
	// The gated percentiles are each taken per one-second window of the
	// schedule and then reduced over the windows by steady; the whole-
	// phase percentiles below are diagnostics.
	perWindow := make([][]float64, windows(openFor, time.Second))
	width := openFor / time.Duration(len(perWindow))
	for _, s := range open.Samples {
		if !s.OK {
			misses++ // a failed request misses every limit
			continue
		}
		l := ms(s.Done - s.Sched)
		lat = append(lat, l)
		if k := int(s.Sched / width); k < len(perWindow) {
			perWindow[k] = append(perWindow[k], l)
		}
		late = append(late, ms(s.Sent-s.Sched))
		evalUS += s.Eval
		if l > w.limitMS {
			misses++
		}
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	n := len(lat)
	var p50s, p95s []float64
	for _, win := range perWindow {
		sort.Float64s(win)
		p50s = append(p50s, load.Quantile(win, 0.50))
		p95s = append(p95s, load.Quantile(win, 0.95))
	}
	res.Metrics["latency_p50_ms"] = metric{steady(p50s, false), "ms"}
	res.Metrics["latency_p95_ms"] = metric{steady(p95s, false), "ms"}
	d := res.Diagnostics
	d["latency_p50_all_ms"] = metric{load.Quantile(lat, 0.50), "ms"}
	d["latency_p95_all_ms"] = metric{load.Quantile(lat, 0.95), "ms"}
	d["open_samples"] = metric{float64(n), "count"}
	d["latency_p99_ms"] = metric{load.Quantile(lat, 0.99), "ms"}
	if n >= 10000 { // a percentile needs ten samples beyond it
		d["latency_p999_ms"] = metric{load.Quantile(lat, 0.999), "ms"}
	}
	if n > 0 {
		d["latency_max_ms"] = metric{lat[n-1], "ms"}
		d["eval_share"] = metric{evalUS / 1000 / sum(lat), "ratio"}
		d["slo_miss_share"] = metric{misses / float64(len(open.Samples)), "ratio"}
		d["lateness_p50_ms"] = metric{load.Quantile(late, 0.50), "ms"}
		d["lateness_p99_ms"] = metric{load.Quantile(late, 0.99), "ms"}
		d["lateness_max_ms"] = metric{late[n-1], "ms"}
	}
	d["offered_qps"] = metric{float64(len(open.Samples)) / open.Elapsed.Seconds(), "1/s"}
}

// steady reduces a metric's per-window values to the mean of the third
// of the windows on the side of the undisturbed machine: the highest
// rates, the lowest latencies. The 2-core VMs this runs on change speed
// by ±30 % from one second to the next, always downwards from what the
// program can do (an identical two-thread arithmetic loop took 63 to
// 136 ms per round while this was written), and whole-phase percentiles
// of one binary spread 12-40 % between runs. The windows on the good
// side measure the program, the others its neighbours; a change that
// slows the program slows every window, so it moves this mean like any
// other.
func steady(perWindow []float64, highest bool) float64 {
	s := append([]float64(nil), perWindow...)
	sort.Float64s(s)
	if highest {
		slices.Reverse(s)
	}
	return sum(s[:(len(s)+2)/3]) / float64((len(s)+2)/3)
}

// windows is how many whole windows of about the given width fit d.
func windows(d, width time.Duration) int {
	if n := int(d / width); n > 1 {
		return n
	}
	return 1
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// describe prints a run for people; the machine-readable line follows.
func (r *runResult) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  seed=%d seconds=%g  attempted=%d failed=%d\n", r.Workload, r.Seed, r.Seconds, r.Attempted, r.Failed)
	for _, set := range []map[string]metric{r.Metrics, r.Diagnostics} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "  %-24s %14.4f %s\n", n, set[n].Value, set[n].Unit)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(&b, "  PROBLEM: %s\n", p)
	}
	return b.String()
}
