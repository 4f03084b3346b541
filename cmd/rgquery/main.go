// Command rgquery loads a data graph and evaluates a reachability query
// or a graph pattern query against it.
//
// The graph file uses the TSV format of graph.WriteTSV:
//
//	node <name> [attr=value]...
//	edge <from> <to> <color>
//
// A reachability query is given with -from, -to and -expr:
//
//	rgquery -graph g.tsv -from 'job = biologist' -to 'job = doctor' -expr 'fa{2} fn'
//
// A pattern query is given with -pattern, one line per node or edge:
//
//	node <name> <predicate or *>
//	edge <from> <to> <regex>
//
// A batch of reachability queries is given with -batch, one query per
// tab-separated line (use * for an always-true predicate; # starts a
// comment), evaluated concurrently across -workers workers:
//
//	<from predicate> <TAB> <to predicate> <TAB> <expr>
//
// With -stream the batch runs through a streaming engine session and
// each result is printed as one NDJSON line (the wire format of
// internal/wire) on stdout the moment it completes (completion order,
// not input order), carrying the request id, the answer-pair count
// (streamed — pairs are never materialized) and the evaluation latency;
// the trailing summary goes to stderr so stdout stays machine-readable:
//
//	{"id":3,"kind":"rq","query":"RQ[...]","count":17,"latency_us":412}
//
// With -remote URL the query does not run locally at all: the batch (or
// the single -from/-to/-expr query, or the -pattern file) is streamed
// as NDJSON request lines to URL/v1/query on an rgserve instance and
// the server's response lines are passed through to stdout as they
// arrive.
//
// -remote also carries the write path. -mutate FILE streams a mutation
// script (NDJSON ops or the qlang text form of internal/mutate; "-"
// reads stdin) to URL/v1/mutate — the server commits it in
// snapshot-isolated generations — passing the per-op ack lines through
// to stdout and summarizing on stderr. -subscribe FILE registers the
// pattern file as a standing query on URL/v1/subscribe and passes the
// delta stream (init line, then one delta line per committed batch
// that changes the answer) through to stdout until the server ends it:
//
//	rgquery -remote http://localhost:8080 -mutate mutations.ndjson
//	rgquery -remote http://localhost:8080 -subscribe pattern.pq
//
// Local evaluation picks its distance backend with -backend: matrix
// (precomputed, fastest, (m+1)·|V|² bytes), twohop (2-hop labels —
// index-fast lookups on graphs whose matrix does not fit), cache (LRU
// over bidirectional search) or auto (matrix if it fits -membudget
// bytes, else 2-hop under the same budget, else cache). -grail K
// fronts a searching backend with a GRAIL negative reachability
// filter.
//
// With -demo the built-in Fig. 1 Essembly graph is used.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"regraph"
	"regraph/internal/graph"
	"regraph/internal/mutate"
	"regraph/internal/qlang"
	"regraph/internal/wire"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "graph file (TSV)")
		demo      = flag.Bool("demo", false, "use the built-in Fig. 1 Essembly graph")
		from      = flag.String("from", "", "RQ: source predicate")
		to        = flag.String("to", "", "RQ: destination predicate")
		expr      = flag.String("expr", "", "RQ: path regular expression (subclass F)")
		patPath   = flag.String("pattern", "", "PQ: pattern file")
		batchPath = flag.String("batch", "", "batch of RQs, one per tab-separated line")
		stream    = flag.Bool("stream", false, "batch: print each result as an NDJSON line the moment it completes")
		remote    = flag.String("remote", "", "rgserve base URL: run the queries over the wire instead of locally")
		mutFile   = flag.String("mutate", "", "remote: stream a mutation script (NDJSON or text ops, - = stdin) to URL/v1/mutate")
		subFile   = flag.String("subscribe", "", "remote: register the pattern file as a standing query on URL/v1/subscribe")
		priority  = flag.Int("priority", 0, "remote: scheduling priority for every request (0-7, higher = more weight)")
		deadline  = flag.Duration("deadline", 0, "remote: per-request deadline budget, e.g. 250ms (0 = none)")
		dialTries = flag.Int("dial-retries", 3, "remote: retries if the initial connection is refused (0 = fail on first refusal)")
		dialWait  = flag.Duration("dial-backoff", 100*time.Millisecond, "remote: first retry delay, doubled per attempt (capped at 2s)")
		workers   = flag.Int("workers", 0, "batch worker count (0 = GOMAXPROCS)")
		backend   = flag.String("backend", "matrix", "distance backend: matrix, twohop, cache or auto")
		memBudget = flag.Int64("membudget", 0, "auto backend: index memory budget in bytes (0 = 1 GiB; only with -backend auto)")
		grailK    = flag.Int("grail", 0, "install a GRAIL reachability filter with k traversals in front of the backend (0 = off; not with matrix)")
		candIdx   = flag.Bool("candidx", true, "use the attribute inverted index for predicate candidates (false = O(|V|) scan)")
		minimize  = flag.Bool("minimize", false, "PQ: minimize before evaluating")
	)
	flag.Parse()

	if *mutFile != "" || *subFile != "" {
		if *remote == "" {
			fatal(fmt.Errorf("-mutate and -subscribe need -remote URL (mutation is a serving-layer operation)"))
		}
	}
	if *remote != "" {
		base := strings.TrimRight(*remote, "/")
		var err error
		switch {
		case *mutFile != "":
			err = runMutate(base, *mutFile)
		case *subFile != "":
			err = runSubscribe(base, *subFile)
		default:
			err = runRemote(*remote, *batchPath, *patPath, *from, *to, *expr,
				*priority, *deadline, *dialTries, *dialWait)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	g, err := loadGraph(*graphPath, *demo)
	if err != nil {
		fatal(err)
	}
	banner := os.Stdout
	if *stream {
		banner = os.Stderr // keep stdout pure NDJSON in stream mode
	}
	fmt.Fprintf(banner, "graph: %d nodes, %d edges, colors %v\n", g.NumNodes(), g.NumEdges(), g.Colors())

	e, err := regraph.NewEngine(g, regraph.EngineOptions{
		Workers: *workers, DisableCandidateIndex: !*candIdx,
		BackendKind: *backend, MemoryBudget: *memBudget, ReachFilterK: *grailK,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(banner, "backend: %s\n", e.BackendKind())

	switch {
	case *batchPath != "":
		if err := runBatch(e, *batchPath, *stream); err != nil {
			fatal(err)
		}
	case *expr != "":
		if err := runRQ(e, *from, *to, *expr); err != nil {
			fatal(err)
		}
	case *patPath != "":
		if err := runPQ(e, *patPath, *minimize); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("nothing to do: give -expr (RQ), -pattern (PQ) or -batch (RQ file)"))
	}
}

// ---- remote mode -----------------------------------------------------------

// runRemote ships the requested queries to an rgserve (or rgrouter)
// instance as NDJSON request lines (internal/wire) and passes the
// response lines through to stdout as they arrive. The upload is a
// pipe, so the server's admission bound back-pressures request
// production too. A -priority or -deadline flag stamps every request
// line with the QoS fields; the deadline budget starts when the server
// receives the line. A refused initial dial is retried with backoff
// (-dial-retries / -dial-backoff) so a freshly launched server or a
// router mid-restart does not fail the whole batch.
func runRemote(base, batchPath, patPath, from, to, expr string,
	priority int, deadline time.Duration, dialRetries int, dialBackoff time.Duration) error {
	reqs, err := remoteRequests(batchPath, patPath, from, to, expr)
	if err != nil {
		return err
	}
	if priority != 0 || deadline > 0 {
		for i := range reqs {
			reqs[i].Priority = priority
			reqs[i].DeadlineMS = deadline.Milliseconds()
		}
	}
	// Pass lines through verbatim, tallying a stderr summary.
	t0 := time.Now()
	results, errors, pairs := 0, 0, 0
	kinds := map[string]int{}
	err = wire.PostStreamRetry(strings.TrimRight(base, "/")+"/v1/query", reqs,
		func(raw []byte, r *wire.Response) error {
			os.Stdout.Write(raw)
			os.Stdout.Write([]byte{'\n'})
			results++
			pairs += r.Count
			if r.Err != "" {
				errors++
				kinds[errKindLabel(r.ErrKind)]++
			}
			return nil
		}, dialRetries, dialBackoff)
	if err != nil {
		return fmt.Errorf("remote: %w", err)
	}
	fmt.Fprintf(os.Stderr, "remote: %d results (%d errors%s), %d pairs total, %v wall\n",
		results, errors, errKindSummary(kinds), pairs, time.Since(t0).Round(time.Microsecond))
	return nil
}

// runMutate streams a mutation script to the server's /v1/mutate
// endpoint, raw — the server parses the lines (JSON ops and the qlang
// text form interleave freely) and commits them in snapshot-isolated
// generations. Per-op ack lines pass through to stdout; the trailing
// summary goes to stderr so stdout stays machine-readable, mirroring
// -stream.
func runMutate(base, path string) error {
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	applied, failed := 0, 0
	var sum *mutate.Summary
	err := wire.PostLines(base+"/v1/mutate", in, func(line []byte) error {
		var probe struct {
			Kind string `json:"kind"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.Kind == mutate.SummaryKind {
			sum = new(mutate.Summary)
			if err := json.Unmarshal(line, sum); err != nil {
				return fmt.Errorf("malformed summary line %q: %w", line, err)
			}
			return nil
		}
		os.Stdout.Write(line)
		os.Stdout.Write([]byte{'\n'})
		var a mutate.Ack
		if json.Unmarshal(line, &a) == nil {
			if a.Err == "" {
				applied++
			} else {
				failed++
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("mutate: %w", err)
	}
	if sum == nil {
		return fmt.Errorf("mutate: stream ended without a summary line")
	}
	fmt.Fprintf(os.Stderr, "mutate: generation %d: %d applied, %d failed; graph now %d nodes, %d edges\n",
		sum.Gen, sum.Applied, sum.Failed, sum.Nodes, sum.Edges)
	if sum.Err != "" {
		return fmt.Errorf("mutate: %s", sum.Err)
	}
	return nil
}

// runSubscribe registers the pattern file as a standing query and
// passes the server's delta stream through to stdout until the server
// ends it (drain, or the subscriber lagging behind the commit stream).
// An abnormal end reason becomes the exit error.
func runSubscribe(base, patPath string) error {
	text, err := os.ReadFile(patPath)
	if err != nil {
		return err
	}
	line, err := json.Marshal(wire.Request{PQ: string(text)})
	if err != nil {
		return err
	}
	deltas := 0
	endErr := ""
	err = wire.PostLines(base+"/v1/subscribe", bytes.NewReader(append(line, '\n')), func(raw []byte) error {
		os.Stdout.Write(raw)
		os.Stdout.Write([]byte{'\n'})
		var d wire.Delta
		if json.Unmarshal(raw, &d) == nil {
			switch d.Kind {
			case wire.DeltaDelta:
				deltas++
			case wire.DeltaEnd:
				endErr = d.Err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}
	fmt.Fprintf(os.Stderr, "subscribe: stream ended after %d deltas\n", deltas)
	if endErr != "" {
		return fmt.Errorf("subscribe: %s", endErr)
	}
	return nil
}

// errKindLabel maps a response's error_kind to its summary bucket.
// Lines carrying an error but no kind (per-line parse errors and other
// request rejections) count as "invalid".
func errKindLabel(kind string) string {
	if kind == "" {
		return "invalid"
	}
	return kind
}

// errKindSummary renders the per-error_kind breakdown for the stderr
// summary, e.g. ": 2 shed, 1 unavailable" — empty when nothing failed,
// kinds sorted so the line is stable for scripts that scrape it.
func errKindSummary(kinds map[string]int) string {
	if len(kinds) == 0 {
		return ""
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i == 0 {
			b.WriteString(": ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d %s", kinds[k], k)
	}
	return b.String()
}

// remoteRequests builds the wire request lines for remote mode. Query
// text is shipped verbatim — parsing (and per-line parse errors) happen
// server-side, exactly as for any other client.
func remoteRequests(batchPath, patPath, from, to, expr string) ([]wire.Request, error) {
	switch {
	case batchPath != "":
		var reqs []wire.Request
		err := forEachBatchLine(batchPath, func(lineNo int, line string) error {
			from, to, qexpr, err := qlang.SplitRQLine(line)
			if err != nil {
				return fmt.Errorf("batch: line %d: %w", lineNo, err)
			}
			id := uint64(len(reqs))
			reqs = append(reqs, wire.Request{
				ID: &id,
				RQ: &wire.RQSpec{From: from, To: to, Expr: qexpr},
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
		return reqs, nil
	case patPath != "":
		text, err := os.ReadFile(patPath)
		if err != nil {
			return nil, err
		}
		id := uint64(0)
		return []wire.Request{{ID: &id, PQ: string(text)}}, nil
	case expr != "":
		id := uint64(0)
		return []wire.Request{{ID: &id, RQ: &wire.RQSpec{From: from, To: to, Expr: expr}}}, nil
	default:
		return nil, fmt.Errorf("-remote needs -batch, -pattern or -expr")
	}
}

// ---- local modes -----------------------------------------------------------

// runBatch parses the batch file and evaluates every query through a
// resident engine — buffered (one answer-count line per query, input
// order) or, with stream, as an NDJSON result stream in completion
// order.
func runBatch(e *regraph.Engine, path string, stream bool) error {
	qs, err := parseBatch(path)
	if err != nil {
		return err
	}
	if stream {
		return streamBatch(e, qs)
	}
	t0 := time.Now()
	results := e.RunRQs(qs)
	elapsed := time.Since(t0)
	total := 0
	for i, pairs := range results {
		fmt.Printf("%4d  %s: %d pairs\n", i, qs[i], len(pairs))
		total += len(pairs)
	}
	fmt.Printf("batch: %d queries, %d pairs total, %v on %d workers\n",
		len(qs), total, elapsed.Round(time.Microsecond), e.Workers())
	return nil
}

// streamBatch submits every query to a session and prints each result
// the moment it completes, as a wire.Response NDJSON line — the same
// schema rgserve speaks. Answers are streamed through per-request Emit
// counters, so no pair slice is ever materialized: resident answer
// memory is bounded by the session's in-flight cap regardless of batch
// size.
func streamBatch(e *regraph.Engine, qs []regraph.RQ) error {
	s := e.Open(context.Background(), regraph.SessionOptions{})
	counts := make([]int64, len(qs)) // one owner at a time: the evaluating worker, then the printer
	go func() {
		for i := range qs {
			i := i
			_, err := s.Submit(context.Background(), regraph.BatchRequest{
				RQ:   &qs[i],
				Emit: func(regraph.Pair) bool { counts[i]++; return true },
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "rgquery: submit:", err)
				break
			}
		}
		s.Close()
	}()
	enc := wire.NewEncoder(os.Stdout)
	t0 := time.Now()
	total := 0
	for r := range s.Results() {
		line := wire.FromResult(r, "rq", nil, int(counts[r.ID]))
		line.Query = qs[r.ID].String()
		total += line.Count
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	st := s.Stats()
	fmt.Fprintf(os.Stderr, "stream: %d queries, %d pairs total, %v wall, p50 %v p95 %v max in-flight %d\n",
		st.Delivered, total, time.Since(t0).Round(time.Microsecond),
		st.Latency.P50, st.Latency.P95, st.MaxInFlight)
	return nil
}

// parseBatch reads the tab-separated RQ batch format (qlang.ParseRQLine).
func parseBatch(path string) ([]regraph.RQ, error) {
	var qs []regraph.RQ
	err := forEachBatchLine(path, func(lineNo int, line string) error {
		q, err := qlang.ParseRQLine(line)
		if err != nil {
			return fmt.Errorf("batch: line %d: %w", lineNo, err)
		}
		qs = append(qs, q)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return qs, nil
}

// forEachBatchLine scans a -batch file and calls fn for every
// non-blank, non-comment line — the one owner of the file conventions
// (1MiB line bound, '#' comments) for local and remote batch modes.
func forEachBatchLine(path string, fn func(lineNo int, line string) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20) // generated predicates can exceed the 64KiB default
	lineNo, queries := 0, 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := fn(lineNo, line); err != nil {
			return err
		}
		queries++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if queries == 0 {
		return fmt.Errorf("batch: no queries in %s", path)
	}
	return nil
}

func loadGraph(path string, demo bool) (*regraph.Graph, error) {
	if demo {
		return regraph.Essembly(), nil
	}
	if path == "" {
		return nil, fmt.Errorf("need -graph FILE or -demo")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadTSV(f)
}

func runRQ(e *regraph.Engine, from, to, expr string) error {
	q, err := qlang.ParseRQ(from, to, expr)
	if err != nil {
		return err
	}
	g := e.Graph()
	pairs := e.RunRQs([]regraph.RQ{q})[0]
	fmt.Printf("%s: %d pairs\n", q, len(pairs))
	for _, p := range pairs {
		fmt.Printf("  %s -> %s\n", g.Node(p.From).Name, g.Node(p.To).Name)
	}
	return nil
}

func runPQ(e *regraph.Engine, path string, minimize bool) error {
	q, err := loadPattern(path)
	if err != nil {
		return err
	}
	if minimize {
		before := q.Size()
		q = regraph.Minimize(q)
		fmt.Printf("minimized: size %d -> %d\n", before, q.Size())
	}
	r := e.RunBatch([]regraph.BatchRequest{{PQ: q}})[0]
	if r.Err != nil {
		return r.Err
	}
	if r.Match.Empty() {
		fmt.Println("no matches")
		return nil
	}
	fmt.Print(r.Match.String(e.Graph()))
	return nil
}

func loadPattern(path string) (*regraph.PQ, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return qlang.ParsePattern(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rgquery:", err)
	os.Exit(1)
}
