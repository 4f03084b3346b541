// Command rgserve serves a data graph as an HTTP query service speaking
// the NDJSON wire format of internal/wire (see internal/server for the
// endpoint contract).
//
//	rgserve -demo -addr :8080
//	rgserve -graph g.tsv -addr :8080 -workers 8 -stream-timeout 30s
//
// Query it by streaming NDJSON request lines to POST /v1/query:
//
//	curl -sN -X POST --data-binary @queries.ndjson localhost:8080/v1/query
//	curl -s localhost:8080/v1/stats
//
// or with cmd/rgquery's -remote mode:
//
//	rgquery -remote http://localhost:8080 -batch queries.tsv
//
// Mutate it by streaming NDJSON mutation lines (or the equivalent
// qlang text form) to POST /v1/mutate — each -mutate-batch chunk
// commits as one snapshot-isolated generation — and follow a standing
// pattern query with POST /v1/subscribe:
//
//	curl -sN -X POST --data-binary @mutations.ndjson localhost:8080/v1/mutate
//	rgquery -remote http://localhost:8080 -mutate mutations.ndjson
//	rgquery -remote http://localhost:8080 -subscribe pattern.pq
//
// The engine builds (and per generation rebuilds) its own backend, so
// every -backend kind accepts mutations.
//
// With -wal-dir the server is durable: every committed mutation batch
// is appended to a write-ahead log before it is acknowledged, and on
// restart the engine recovers by loading the log's latest snapshot and
// replaying the tail through the ordinary apply path — the log's
// snapshot (when one exists) wins over the -graph seed, so -graph only
// matters on the very first run. -fsync picks the durability/latency
// trade-off (always, interval, none — see internal/wal):
//
//	rgserve -demo -wal-dir /var/lib/regraph/wal -fsync always
//	rgserve -wal-dir /var/lib/regraph/wal -fsync interval   # seedless restart
//
// On SIGINT/SIGTERM the server drains: new streams are refused, live
// ones run to completion, and after -drain-timeout any stragglers'
// sessions are cancelled (their remaining requests answered with
// context errors) before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"regraph"
	"regraph/internal/engine"
	"regraph/internal/graph"
	"regraph/internal/server"
	"regraph/internal/wal"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		graphPath     = flag.String("graph", "", "graph file (TSV, see graph.WriteTSV)")
		demo          = flag.Bool("demo", false, "use the built-in Fig. 1 Essembly graph")
		workers       = flag.Int("workers", 0, "engine worker count (0 = GOMAXPROCS)")
		backend       = flag.String("backend", "matrix", "distance backend: matrix, twohop, cache or auto")
		memBudget     = flag.Int64("membudget", 0, "auto backend: index memory budget in bytes (0 = 1 GiB; only with -backend auto)")
		grailK        = flag.Int("grail", 0, "install a GRAIL reachability filter with k traversals in front of the backend (0 = off; not with matrix)")
		candIdx       = flag.Bool("candidx", true, "build the attribute inverted index")
		maxInFlight   = flag.Int("maxinflight", 0, "per-stream admission bound (0 = 2x workers)")
		adaptive      = flag.Bool("adaptive", false, "adaptive admission: shrink the in-flight bound when p99 latency nears the requests' deadline budgets")
		streamTimeout = flag.Duration("stream-timeout", 0, "max duration of one query stream (0 = none)")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain budget")
		mutateBatch   = flag.Int("mutate-batch", 0, "ops per committed mutation generation on /v1/mutate (0 = 1024)")
		subBuffer     = flag.Int("sub-buffer", 0, "commits a /v1/subscribe client may lag before being dropped (0 = 16)")
		maxPendingOps = flag.Int("max-pending-ops", 0, "per-mutation-stream admission bound on unacked ops (0 = 4096)")
		maxPendingB   = flag.Int64("max-pending-bytes", 0, "per-mutation-stream admission bound on unacked input bytes (0 = 8 MiB)")
		walDir        = flag.String("wal-dir", "", "write-ahead log directory: append every committed batch, recover from it at startup")
		fsync         = flag.String("fsync", "always", "WAL durability policy: always, interval or none")
		walSegBytes   = flag.Int64("wal-segment-bytes", 0, "rotate WAL segments past this size (0 = 64 MiB)")
	)
	flag.Parse()

	// With a WAL whose snapshot will win anyway, the seed is optional: a
	// bare `rgserve -wal-dir DIR` restarts from the log alone. A log with
	// batches but no snapshot yet (a first run that never restarted) is
	// refused by engine.Recover, which then needs the seed. A -graph
	// that was asked for but fails to load is still fatal either way.
	var g *regraph.Graph
	if *graphPath == "" && !*demo && *walDir != "" {
		g = nil
	} else {
		var err error
		if g, err = loadGraph(*graphPath, *demo); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rgserve: graph: %d nodes, %d edges, colors %v\n",
			g.NumNodes(), g.NumEdges(), g.Colors())
	}

	// The engine judges the flag combination (a budget or -grail the
	// backend would ignore is an error) and builds the backend itself.
	opts := regraph.EngineOptions{
		Workers: *workers, DisableCandidateIndex: !*candIdx,
		BackendKind: *backend, MemoryBudget: *memBudget, ReachFilterK: *grailK,
	}
	t0 := time.Now()
	var e *regraph.Engine
	if *walDir == "" {
		var err error
		if e, err = regraph.NewEngine(g, opts); err != nil {
			fatal(err)
		}
	} else {
		w, err := wal.Open(wal.Options{Dir: *walDir, Fsync: *fsync, SegmentBytes: *walSegBytes})
		if err != nil {
			fatal(err)
		}
		var info engine.RecoverInfo
		if e, info, err = engine.Recover(w, g, opts); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rgserve: wal: recovered to generation %d in %v (snapshot gen %d + %d batches / %d ops, fsync=%s)\n",
			info.LastGen, info.Duration.Round(time.Millisecond), info.SnapshotGen, info.Batches, info.Ops, *fsync)
		if info.Batches > 0 {
			// Fold the replayed tail into a fresh snapshot so the next
			// restart replays only what commits from here on.
			if err := e.CompactWAL(); err != nil {
				fatal(fmt.Errorf("wal: compact after recovery: %w", err))
			}
		}
	}
	fmt.Fprintf(os.Stderr, "rgserve: %s backend ready in %v\n", e.BackendKind(), time.Since(t0).Round(time.Millisecond))
	srv := server.New(e, server.Options{
		MaxInFlight:      *maxInFlight,
		AdaptiveInFlight: *adaptive,
		StreamTimeout:    *streamTimeout,
		MutateBatch:      *mutateBatch,
		SubscribeBuffer:  *subBuffer,
		MaxPendingOps:    *maxPendingOps,
		MaxPendingBytes:  *maxPendingB,
	})

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	fmt.Fprintf(os.Stderr, "rgserve: listening on %s (%d workers, backend=%s)\n", *addr, e.Workers(), e.BackendKind())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "rgserve: %v: draining (budget %v)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "rgserve: forced shutdown: %v\n", err)
		}
		st := srv.Stats()
		fmt.Fprintf(os.Stderr, "rgserve: served %d streams, %d queries (%d completed, %d cancelled, %d failed, %d shed, %d deadline-missed), p95 %v p99 %v\n",
			st.StreamsTotal, st.Submitted, st.Completed, st.Cancelled, st.Failed, st.Expired, st.Missed, st.Latency.P95, st.Latency.P99)
		if st.MutateStreams > 0 {
			fmt.Fprintf(os.Stderr, "rgserve: write path: generation %d after %d mutation streams (%d ops applied, %d failed)\n",
				st.Generation, st.MutateStreams, st.OpsApplied, st.OpsFailed)
		}
		// A buffered WAL (fsync interval/none) flushes on Close: a graceful
		// drain loses nothing regardless of policy.
		if w := e.WAL(); w != nil {
			ws := w.Stats()
			if err := w.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "rgserve: wal: close: %v\n", err)
			}
			fmt.Fprintf(os.Stderr, "rgserve: wal: %d batches (%d bytes) appended, %d fsyncs, %d rotations, %d segments at generation %d\n",
				ws.Appended, ws.AppendedBytes, ws.Fsyncs, ws.Rotations, ws.Segments, ws.LastGen)
		}
	}
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rgserve:", err)
	os.Exit(1)
}
