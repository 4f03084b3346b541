package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"regraph/benchmark/load"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span that caused this one, -1 for the outermost span of
// a rung. Times are nanoseconds since the pass began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory; the file is written at the end.
type tracer struct {
	t0    time.Time
	spans []span
}

// do records a span around fn.
func (t *tracer) do(name string, parent, req int, fn func()) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	fn()
	t.spans[id].End = int64(time.Since(t.t0))
	return id
}

// add records a span whose duration a layer reported itself.
func (t *tracer) add(name string, parent, req int, start int64, d time.Duration) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: start + int64(d)})
	return id
}

func (t *tracer) duration(id int) time.Duration {
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// layerStat is one row of the per-layer table.
type layerStat struct {
	Calls int           `json:"calls"`
	Busy  time.Duration `json:"busy_ns"`
	Self  time.Duration `json:"self_ns"`
}

// selfTimes sums, per span name, the calls, the busy time and the self
// time: a span's duration minus the part of it its child spans cover.
func selfTimes(spans []span) map[string]layerStat {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[s.Parent] += hi - lo
		}
	}
	out := map[string]layerStat{}
	for i, s := range spans {
		st := out[s.Name]
		st.Calls++
		st.Busy += time.Duration(s.End - s.Start)
		if self := s.End - s.Start - covered[i]; self > 0 {
			st.Self += time.Duration(self)
		}
		out[s.Name] = st
	}
	return out
}

// lineClient is one persistent /v1/query stream with one request in
// flight: write a line, read its response line.
type lineClient struct {
	pw   *io.PipeWriter
	body io.ReadCloser
	rd   *bufio.Reader
}

func dialLines(url string) (*lineClient, error) {
	pr, pw := io.Pipe()
	resp, err := http.Post(url+"/v1/query", "application/x-ndjson", pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		pw.Close()
		return nil, fmt.Errorf("trace: %s", resp.Status)
	}
	return &lineClient{pw: pw, body: resp.Body, rd: bufio.NewReaderSize(resp.Body, 1<<20)}, nil
}

func (c *lineClient) roundTrip(line []byte) ([]byte, error) {
	if _, err := c.pw.Write(line); err != nil {
		return nil, err
	}
	return c.rd.ReadBytes('\n')
}

func (c *lineClient) close() {
	c.pw.Close()
	io.Copy(io.Discard, c.rd)
	c.body.Close()
}

// runTraced is the traced pass: the workload's first requests (and its
// batches) replayed one at a time, in process, up a ladder of ever
// taller stacks, with a span around every call into a layer. It never
// contributes to an end-to-end number.
func runTraced(w *spec, o options) (*runResult, error) {
	res, in, runDir, err := newRun(w, o, "trace")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	tr := &tracer{t0: time.Now()}
	fail := func(err error) (*runResult, error) { return nil, fmt.Errorf("traced pass: %w", err) }

	// ---- construction: what setup_s and peak_rss_mb are made of ----
	var g *dataGraph
	read := tr.do("graph.read_tsv", -1, -1, func() { g, err = readTSV(in.graphPath) })
	if err != nil {
		return fail(err)
	}
	index := tr.do("candidx.build", -1, -1, func() { buildIndex(g) })
	workers, walDir := procs, ""
	if w.routed {
		workers = 1
	}
	if w.wal {
		walDir = filepath.Join(runDir, "wal")
	}
	var st *stack
	build := tr.do("engine.new", -1, -1, func() { st, err = newStack(g, w.backend, workers, walDir) })
	if err != nil {
		return fail(err)
	}
	defer st.close()

	// ---- the requests ----
	n := int(float64(w.traceN) * o.size)
	if n < 8 {
		n = 8
	}
	lines := make([][]byte, n)
	qs := make([]*query, n)
	var all bytes.Buffer
	for i := range lines {
		lines[i] = load.AppendRequest(nil, i, in.pool[in.seq[i]])
		all.Write(lines[i])
		if qs[i], err = st.parse(lines[i]); err != nil {
			return fail(err)
		}
	}
	// One untraced pass first, so that every rung meets the same warm
	// memo and the cache's steady churn, not a cold start.
	for _, q := range qs {
		if _, err := st.evaluate(q.er, q.req.Count); err != nil {
			return fail(err)
		}
	}
	check := func(rung string, i int, line []byte) {
		res.Attempted++
		r, err := load.ParseResponse(line)
		ok := err == nil && r.ID == uint64(i) && r.Err == ""
		if ok && in.oracle != nil {
			a := in.oracle[in.seq[i]]
			ok = r.Count == a.Count && r.Hash == a.Hash
		}
		if !ok {
			res.Failed++
			res.problem("%s: request %d: wrong answer %.200q (%v)", rung, i, line, err)
		}
	}

	// Rung 1, dist: the lookups a single-atom evaluation makes.
	// A backend that counts hits and misses (the cache) has each lookup
	// filed under one of them.
	var lookups, hitN, missN int
	var lookupNS, missNS time.Duration
	for i, q := range qs {
		ps := st.probes(q, 16)
		tr.do("dist.probe", -1, i, func() {
			for _, p := range ps {
				h0, _, counted := st.distStats()
				t := time.Now()
				st.dist(p)
				d := time.Since(t)
				lookups, lookupNS = lookups+1, lookupNS+d
				if h1, _, _ := st.distStats(); !counted {
				} else if h1 > h0 {
					hitN++
				} else {
					missN, missNS = missN+1, missNS+d
				}
			}
		})
	}

	// Rung 2, candidx: every predicate through the memo, then through
	// the index alone.
	memoHits0, memoMiss0 := st.memoStats()
	for i, q := range qs {
		for _, p := range q.preds {
			tr.do("candidx.memo", -1, i, func() { st.memoLookup(p) })
		}
	}
	memoHits1, memoMiss1 := st.memoStats()
	for i, q := range qs {
		for _, p := range q.preds {
			tr.do("candidx.index", -1, i, func() { st.indexLookup(p) })
		}
	}

	// Rungs 3 to 6: the engine session under the wire codec (decode,
	// compile, submit-and-wait, encode; the session span's children are
	// the durations the engine reports for queueing and evaluation), then
	// server.New on loopback, then router.New in front of it.
	url, err := st.serve()
	if err != nil {
		return fail(err)
	}
	rurl := ""
	if w.routed {
		if rurl, err = st.route(url); err != nil {
			return fail(err)
		}
	}
	roundTrips := func(name, url string) error {
		c, err := dialLines(url)
		if err != nil {
			return err
		}
		defer c.close()
		for i := range lines {
			var out []byte
			tr.do(name, -1, i, func() { out, err = c.roundTrip(lines[i]) })
			if err != nil {
				return err
			}
			check(name, i, out)
		}
		return nil
	}
	climb := func() error {
		st.feed(all.Bytes())
		for i := range qs {
			tr.do("wire.request", -1, i, func() {
				parent := len(tr.spans) - 1
				var req wireRequest
				tr.do("wire.decode", parent, i, func() { req, err = st.decode() })
				if err != nil {
					return
				}
				var kind string
				er := qs[i].er
				tr.do("wire.compile", parent, i, func() { er, kind, err = st.compile(&req) })
				if err != nil {
					return
				}
				var ev evaluated
				sess := tr.do("engine.session", parent, i, func() { ev, err = st.evaluate(er, req.Count) })
				if err != nil {
					return
				}
				at := tr.spans[sess].Start
				tr.add("engine.queue_wait", sess, i, at, ev.wait)
				name := "reach.eval"
				if ev.pq {
					name = "pattern.eval"
				}
				tr.add(name, sess, i, at+int64(ev.wait), ev.elapsed)
				var out []byte
				tr.do("wire.encode", parent, i, func() { out, err = st.encode(ev, kind, er, uint64(i)) })
				if err == nil {
					check("wire", i, out)
				}
			})
			if err != nil {
				return err
			}
		}
		if err := roundTrips("server.roundtrip", url); err != nil {
			return err
		}
		if w.routed {
			return roundTrips("router.roundtrip", rurl)
		}
		return nil
	}
	// The rungs run one after another, and the machine's speed drifts
	// between them (see steady in e2e.go); a ladder whose self times do
	// not add up to its top is climbed again, at most three times.
	var lad ladder
	for mark, attempt := len(tr.spans), 1; ; attempt++ {
		if err := climb(); err != nil {
			return fail(err)
		}
		lad = ladderOf(selfTimes(tr.spans), w.routed)
		if lad.addsUp() {
			break
		}
		if attempt == 3 {
			res.Failed++
			res.problem("self times add up to %v, the server round trips to %v: more than 15%% apart in three climbs",
				lad.serving+lad.eval, lad.serverBusy)
			break
		}
		tr.spans = tr.spans[:mark]
	}

	// ---- the write path: commits, their parts, recovery ----
	var applyMS, recoverS float64
	var fsyncsPerCommit, writeAmp float64
	if w.wal {
		nb := o.batches()
		batches := in.batches[:nb]
		var inputBytes int
		var applied []float64
		for i, ops := range batches {
			for _, op := range ops {
				inputBytes += len(mustJSON(op)) + 1
			}
			var failed int
			id := tr.do("engine.apply", -1, i, func() { failed, err = st.apply(ops) })
			if err != nil {
				return fail(err)
			}
			res.Attempted += len(ops)
			res.Failed += failed
			applied = append(applied, ms(tr.duration(id)))
		}
		sort.Float64s(applied)
		applyMS = load.Quantile(applied, 0.5)
		records, logBytes, fsyncs := st.logStats()
		fsyncsPerCommit, writeAmp = float64(fsyncs)/float64(records), float64(logBytes)/float64(inputBytes)

		sg, err := readTSV(in.graphPath)
		if err != nil {
			return fail(err)
		}
		sh, err := newShadow(sg, filepath.Join(runDir, "wal-shadow"))
		if err != nil {
			return fail(err)
		}
		defer sh.close()
		for i, ops := range batches {
			tr.do("graph.derive", -1, i, func() { err = sh.derive(ops) })
			if err != nil {
				return fail(err)
			}
			tr.do("candidx.with_changes", -1, i, func() { sh.patch() })
			tr.do("dist.rebuild", -1, i, func() { sh.rebuild() })
			tr.do("wal.append", -1, i, func() { err = sh.append() })
			if err != nil {
				return fail(err)
			}
		}

		// The engine's own log, replayed over the seed graph as a
		// restarted server would.
		st.close()
		seedGraph, err := readTSV(in.graphPath)
		if err != nil {
			return fail(err)
		}
		var replayed int
		var gen uint64
		id := tr.do("engine.recover", -1, -1, func() { replayed, gen, err = recoverFrom(walDir, seedGraph, st.opts) })
		if err != nil {
			return fail(err)
		}
		res.Attempted++
		if replayed != nb || gen != uint64(nb) {
			res.Failed++
			res.problem("recovery replayed %d batches to generation %d, want %d", replayed, gen, nb)
		}
		recoverS = tr.duration(id).Seconds()
		res.Diagnostics["recover_batches"] = metric{float64(replayed), "count"}
	}

	// ---- the table and the metrics ----
	layers := selfTimes(tr.spans)
	mean := func(name string) float64 { // µs per call
		if st := layers[name]; st.Calls > 0 {
			return float64(st.Busy) / float64(st.Calls) / 1e3
		}
		return 0
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := res.Metrics
	us, ratioU := "us", "ratio"
	m["wire.decode_us"] = metric{mean("wire.decode"), us}
	m["wire.compile_us"] = metric{mean("wire.compile"), us}
	m["wire.encode_us"] = metric{mean("wire.encode"), us}
	m["server.roundtrip_us"] = metric{mean("server.roundtrip"), us}
	m["server.overhead_us"] = metric{mean("server.roundtrip") - mean("engine.session"), us}
	m["router.hop_us"] = metric{float64(lad.routerHop) / float64(n) / 1e3, us}
	m["engine.session_us"] = metric{mean("engine.session"), us}
	m["engine.queue_wait_us"] = metric{mean("engine.queue_wait"), us}
	m["candidx.memo_us"] = metric{mean("candidx.memo"), us}
	m["candidx.index_us"] = metric{mean("candidx.index"), us}
	m["candidx.memo_hit_ratio"] = metric{ratio(float64(memoHits1-memoHits0), float64(memoHits1-memoHits0+memoMiss1-memoMiss0)), ratioU}
	m["dist.lookup_ns"] = metric{ratio(float64(lookupNS), float64(lookups)), "ns"}
	m["dist.miss_ns"] = metric{ratio(float64(missNS), float64(missN)), "ns"}
	m["dist.cache_hit_ratio"] = metric{ratio(float64(hitN), float64(hitN+missN)), ratioU}
	m["reach.eval_us"] = metric{mean("reach.eval"), us}
	m["pattern.eval_us"] = metric{mean("pattern.eval"), us}
	m["serving_share"] = metric{ratio(float64(lad.serving), float64(lad.serverBusy)), ratioU}
	m["engine.apply_ms"] = metric{applyMS, "ms"}
	m["graph.derive_ms"] = metric{mean("graph.derive") / 1e3, "ms"}
	m["candidx.with_changes_ms"] = metric{mean("candidx.with_changes") / 1e3, "ms"}
	m["dist.rebuild_ms"] = metric{mean("dist.rebuild") / 1e3, "ms"}
	m["wal.append_ms"] = metric{mean("wal.append") / 1e3, "ms"}
	m["wal.fsyncs_per_commit"] = metric{fsyncsPerCommit, "count"}
	m["wal.bytes_per_byte"] = metric{writeAmp, ratioU}
	m["engine.recover_s"] = metric{recoverS, "s"}
	m["graph.read_tsv_s"] = metric{tr.duration(read).Seconds(), "s"}
	m["candidx.build_s"] = metric{tr.duration(index).Seconds(), "s"}
	// engine.New builds the candidate index and the distance backend;
	// what the index took on its own is taken off.
	m["dist.build_s"] = metric{max(tr.duration(build)-tr.duration(index), 0).Seconds(), "s"}

	res.Correct = res.Failed == 0
	file := struct {
		Workload string               `json:"workload"`
		Requests int                  `json:"requests"`
		Layers   map[string]layerStat `json:"layers"`
		Spans    []span               `json:"spans"`
	}{w.name, n, layers, tr.spans}
	b, err := json.Marshal(file)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(o.outDir(), "trace-"+w.name+".json"), b, 0o644); err != nil {
		return nil, err
	}
	fmt.Print(layerTable(layers, n))
	return res, nil
}

// ladder is what the rungs add up to. A rung's self time is its time
// minus the rung below: the server's is its round trips minus the same
// requests through the bare wire codec, the router's its round trips
// minus the server's.
type ladder struct {
	serverBusy time.Duration // every server round trip
	routerHop  time.Duration // router self time
	serving    time.Duration // self time of server, wire codec and engine session
	eval       time.Duration // time in the evaluators
}

func ladderOf(layers map[string]layerStat, routed bool) ladder {
	l := ladder{serverBusy: layers["server.roundtrip"].Busy}
	if routed {
		l.routerHop = max(layers["router.roundtrip"].Busy-l.serverBusy, 0)
	}
	serverSelf := max(l.serverBusy-layers["wire.request"].Busy, 0)
	l.serving = serverSelf + layers["wire.request"].Self + layers["wire.decode"].Busy + layers["wire.compile"].Busy +
		layers["wire.encode"].Busy + layers["engine.session"].Self + layers["engine.queue_wait"].Busy
	l.eval = layers["reach.eval"].Busy + layers["pattern.eval"].Busy
	return l
}

// addsUp reports whether the self times account for the round trips
// they were cut from, within 15 %.
func (l ladder) addsUp() bool {
	total, top := float64(l.serving+l.eval), float64(l.serverBusy)
	return total >= 0.85*top && total <= 1.15*top
}

// layerTable prints calls, busy and self time per span name.
func layerTable(layers map[string]layerStat, requests int) string {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	var b bytes.Buffer
	fmt.Fprintf(&b, "traced pass: %d requests, one at a time\n  %-22s %8s %12s %12s\n", requests, "span", "calls", "busy ms", "self ms")
	for _, n := range names {
		st := layers[n]
		fmt.Fprintf(&b, "  %-22s %8d %12.3f %12.3f\n", n, st.Calls, ms(st.Busy), ms(st.Self))
	}
	return b.String()
}
