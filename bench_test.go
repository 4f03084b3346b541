// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 6), one per figure, plus the ablation studies called
// out in DESIGN.md. Each benchmark iteration runs the full parameter sweep
// of its figure and reports the paper-style series through -v output of
// cmd/experiments; here the aggregate wall time is what testing.B records.
//
// Dataset scale is controlled by REGRAPH_BENCH_SCALE (default 0.25 of the
// paper's sizes — every curve's shape is preserved; see DESIGN.md §4)
// and the per-point query count by REGRAPH_BENCH_QUERIES.
package regraph_test

import (
	"sync"
	"testing"

	"regraph/internal/bench"
)

var (
	envOnce  sync.Once
	sharedEn *bench.Env
)

// benchEnv shares datasets and distance matrices across benchmarks, as
// cmd/experiments does (the paper likewise amortizes its M-Index across
// queries).
func benchEnv() *bench.Env {
	envOnce.Do(func() {
		sharedEn = bench.NewEnv(bench.DefaultConfig())
	})
	return sharedEn
}

func runDriver(b *testing.B, fn func(*bench.Env) *bench.Table) {
	b.Helper()
	env := benchEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := fn(env)
		if len(tab.Rows) == 0 {
			b.Fatal("driver produced no rows")
		}
	}
}

// Exp-1: effectiveness (Fig. 9).

func BenchmarkFig9aRealLifeQueries(b *testing.B)   { runDriver(b, bench.Fig9a) }
func BenchmarkFig9bFMeasure(b *testing.B)          { runDriver(b, bench.Fig9b) }
func BenchmarkFig9cEffectivenessTime(b *testing.B) { runDriver(b, bench.Fig9c) }

// Exp-2: minimization (Fig. 10a).

func BenchmarkFig10aMinimization(b *testing.B) { runDriver(b, bench.Fig10a) }

// Exp-3: RQ evaluation methods (Fig. 10b).

func BenchmarkFig10bRQ(b *testing.B) { runDriver(b, bench.Fig10b) }

// Exp-4: PQ efficiency on YouTube (Fig. 11).

func BenchmarkFig11aVaryVp(b *testing.B)    { runDriver(b, bench.Fig11a) }
func BenchmarkFig11bVaryEp(b *testing.B)    { runDriver(b, bench.Fig11b) }
func BenchmarkFig11cVaryPred(b *testing.B)  { runDriver(b, bench.Fig11c) }
func BenchmarkFig11dVaryBound(b *testing.B) { runDriver(b, bench.Fig11d) }

// Exp-4: PQ scalability on synthetic graphs (Fig. 12).

func BenchmarkFig12aVaryV(b *testing.B)    { runDriver(b, bench.Fig12a) }
func BenchmarkFig12bVaryE(b *testing.B)    { runDriver(b, bench.Fig12b) }
func BenchmarkFig12cVaryVp(b *testing.B)   { runDriver(b, bench.Fig12c) }
func BenchmarkFig12dVaryEp(b *testing.B)   { runDriver(b, bench.Fig12d) }
func BenchmarkFig12eVaryPred(b *testing.B) { runDriver(b, bench.Fig12e) }
func BenchmarkFig12fSubIso(b *testing.B)   { runDriver(b, bench.Fig12f) }

// Engine: batch RQ throughput, serial loop vs resident worker pool.

func BenchmarkEngineBatch(b *testing.B) { runDriver(b, bench.EngineBatch) }

// Engine: candidate scan vs inverted index + predicate memo (ISSUE 3).

func BenchmarkEngineBatchMemo(b *testing.B) { runDriver(b, bench.EngineMemo) }

// Streaming session vs RunBatch (ISSUE 4): wall times per configuration
// plus the retained-answer-bytes side metrics, which are forwarded
// through ReportMetric so BENCH_session.json records the memory story
// alongside ns/op.
func BenchmarkEngineSession(b *testing.B) {
	env := benchEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := bench.EngineSession(env)
		if len(tab.Rows) == 0 {
			b.Fatal("driver produced no rows")
		}
		for unit, v := range tab.Metrics {
			b.ReportMetric(v, unit)
		}
	}
}

// HTTP/NDJSON serving layer vs in-process session (ISSUE 5): wall times
// for the same count-only batch both ways, plus the wire-overhead
// factor forwarded through ReportMetric so BENCH_server.json records it
// alongside ns/op.
func BenchmarkServerThroughput(b *testing.B) {
	env := benchEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := bench.ServerThroughput(env)
		if len(tab.Rows) == 0 {
			b.Fatal("driver produced no rows")
		}
		for unit, v := range tab.Metrics {
			b.ReportMetric(v, unit)
		}
	}
}

// Distance backends (ISSUE 6): 2-hop labels vs matrix vs cold cache on
// the single-atom RQ workload, at the configured scale and on a graph
// whose matrix exceeds that scale's byte budget. Label build time,
// bytes/node and the cold-cache-over-twohop factor are forwarded
// through ReportMetric into BENCH_twohop.json.
func BenchmarkTwoHop(b *testing.B) {
	env := benchEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := bench.TwoHop(env)
		if len(tab.Rows) == 0 {
			b.Fatal("driver produced no rows")
		}
		for unit, v := range tab.Metrics {
			b.ReportMetric(v, unit)
		}
	}
}

// QoS under open-loop load (ISSUE 7): a loopback rgserve with
// adaptive admission driven below, at and above its calibrated
// saturation rate by internal/loadgen. The per-rate offered/achieved
// QPS, exact p50/p99/p999 and shed/deadline-miss rates are forwarded
// through ReportMetric so BENCH_load.json records the saturation story.
func BenchmarkServerLoad(b *testing.B) {
	env := benchEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := bench.ServerLoad(env)
		if len(tab.Rows) == 0 {
			b.Fatal("driver produced no rows")
		}
		for unit, v := range tab.Metrics {
			b.ReportMetric(v, unit)
		}
	}
}

// Served write path (ISSUE 9): incremental attribute-index maintenance
// (candidx.WithChanges vs a full Build, per graph size) and mixed
// read/write throughput of the generation engine against a
// stop-the-world rebuild baseline. The per-size speedup and the
// read-QPS ratio are forwarded through ReportMetric so
// BENCH_mutate.json records both write-path stories.
func BenchmarkMutate(b *testing.B) {
	env := benchEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := bench.Mutate(env)
		if len(tab.Rows) == 0 {
			b.Fatal("driver produced no rows")
		}
		for unit, v := range tab.Metrics {
			b.ReportMetric(v, unit)
		}
	}
}

// Durable write path (ISSUE 10): commit throughput of the same
// mutation stream with the write-ahead log under each fsync policy
// (none, interval, always) against the no-WAL engine. The per-policy
// commit QPS is forwarded through ReportMetric so BENCH_wal.json
// records what each durability promise costs next to BENCH_mutate's
// in-memory commit rates.
func BenchmarkWAL(b *testing.B) {
	env := benchEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := bench.WAL(env)
		if len(tab.Rows) == 0 {
			b.Fatal("driver produced no rows")
		}
		for unit, v := range tab.Metrics {
			b.ReportMetric(v, unit)
		}
	}
}

// Replica router tier (ISSUE 8): open-loop throughput scaling at 1, 2
// and 4 single-worker replicas behind one router, plus the fault
// schedule (one of two replicas RST-killed for the middle third of the
// run). The per-row achieved QPS, the 2-vs-1 scaling factor and the
// fault-vs-fault-free QPS ratio are forwarded through ReportMetric so
// BENCH_cluster.json records the scaling and fault-tolerance story.
func BenchmarkCluster(b *testing.B) {
	env := benchEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := bench.Cluster(env)
		if len(tab.Rows) == 0 {
			b.Fatal("driver produced no rows")
		}
		for unit, v := range tab.Metrics {
			b.ReportMetric(v, unit)
		}
	}
}

// Ablations (DESIGN.md §5).

func BenchmarkAblationContainment(b *testing.B) { runDriver(b, bench.AblationContainment) }
func BenchmarkAblationTopoOrder(b *testing.B)   { runDriver(b, bench.AblationTopoOrder) }
func BenchmarkAblationCache(b *testing.B)       { runDriver(b, bench.AblationCache) }
func BenchmarkAblationFilter(b *testing.B)      { runDriver(b, bench.AblationFilter) }
func BenchmarkAblationIncremental(b *testing.B) { runDriver(b, bench.AblationIncremental) }
