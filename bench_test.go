// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 6), one per figure, plus the engine and distance
// backend drivers and the ablation studies called out in DESIGN.md. Each
// benchmark iteration runs the full parameter sweep of its figure; the
// series themselves are printed by cmd/experiments, and here testing.B
// records the aggregate wall time plus any side metrics the driver
// reports. Served-path measurement (wire, router, write path, WAL) lives
// in the benchmark/ ledger, not here.
//
// Dataset scale is controlled by REGRAPH_BENCH_SCALE (default 0.25 of the
// paper's sizes — every curve's shape is preserved; see DESIGN.md §4)
// and the per-point query count by REGRAPH_BENCH_QUERIES; a malformed
// value fails the benchmark.
package regraph_test

import (
	"sync"
	"testing"

	"regraph/internal/bench"
)

var (
	envOnce  sync.Once
	sharedEn *bench.Env
	envErr   error
)

// benchEnv shares datasets and distance matrices across benchmarks, as
// cmd/experiments does (the paper likewise amortizes its M-Index across
// queries).
func benchEnv(b *testing.B) *bench.Env {
	envOnce.Do(func() {
		var cfg bench.Config
		cfg, envErr = bench.DefaultConfig()
		sharedEn = bench.NewEnv(cfg)
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return sharedEn
}

// runDriver times one driver per iteration and forwards the table's
// side metrics through ReportMetric.
func runDriver(b *testing.B, fn func(*bench.Env) *bench.Table) {
	b.Helper()
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := fn(env)
		if len(tab.Rows) == 0 {
			b.Fatal("driver produced no rows")
		}
		for unit, v := range tab.Metrics {
			b.ReportMetric(v, unit)
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

// Distance backends: 2-hop labels vs cold cache on the single-atom RQ
// workload, with label build time, bytes/node and the
// cold-cache-over-twohop factor as side metrics.

func BenchmarkTwoHop(b *testing.B) { runDriver(b, bench.TwoHop) }

// Ablations (DESIGN.md §5).

func BenchmarkAblationContainment(b *testing.B) { runDriver(b, bench.AblationContainment) }
func BenchmarkAblationTopoOrder(b *testing.B)   { runDriver(b, bench.AblationTopoOrder) }
func BenchmarkAblationCache(b *testing.B)       { runDriver(b, bench.AblationCache) }
func BenchmarkAblationFilter(b *testing.B)      { runDriver(b, bench.AblationFilter) }
func BenchmarkAblationIncremental(b *testing.B) { runDriver(b, bench.AblationIncremental) }
