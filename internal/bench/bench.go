// Package bench regenerates every table and figure of the paper's
// experimental study (Section 6). Each Fig* function is a driver that runs
// one experiment's parameter sweep and returns a Table with the same
// series the paper plots; cmd/experiments prints them, and the root-level
// bench_test.go wraps them as testing.B benchmarks.
//
// Absolute numbers depend on the host (the paper used a 2.3 GHz Athlon
// 64×2); what must reproduce is the *shape*: which algorithm wins, by
// roughly what factor, and where crossovers fall (DESIGN.md §4).
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"regraph/internal/dist"
	"regraph/internal/gen"
	"regraph/internal/graph"
)

// Config scales the experiments. The paper's full sizes take hours on one
// core; the defaults reproduce every curve's shape in minutes. Raise
// YouTubeScale/SyntheticScale to 1.0 for paper-sized runs.
type Config struct {
	Seed            int64
	YouTubeScale    float64 // fraction of the paper's 8,350-node crawl
	SyntheticScale  float64 // fraction of the paper's synthetic sizes
	QueriesPerPoint int     // the paper averages 20 queries per point
	CacheSize       int     // LRU distance-cache entries
}

// DefaultConfig is used by cmd/experiments and bench_test.go; the
// REGRAPH_BENCH_SCALE and REGRAPH_BENCH_QUERIES environment variables
// override the scale factors and per-point query count. A value that
// is not a positive number is an error naming the variable: silently
// falling back to the default scale would turn a smoke run into one
// that takes minutes.
func DefaultConfig() (Config, error) {
	cfg := Config{
		Seed:            1,
		YouTubeScale:    0.25,
		SyntheticScale:  0.25,
		QueriesPerPoint: 3,
		CacheSize:       1 << 16,
	}
	if v := os.Getenv("REGRAPH_BENCH_SCALE"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f > 0) || math.IsInf(f, 0) {
			return Config{}, fmt.Errorf("REGRAPH_BENCH_SCALE=%q: want a positive number", v)
		}
		cfg.YouTubeScale = f
		cfg.SyntheticScale = f
	}
	if v := os.Getenv("REGRAPH_BENCH_QUERIES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return Config{}, fmt.Errorf("REGRAPH_BENCH_QUERIES=%q: want a positive integer", v)
		}
		cfg.QueriesPerPoint = n
	}
	return cfg, nil
}

// Env lazily builds and caches the datasets and their distance matrices so
// several experiments can share them.
type Env struct {
	Cfg Config

	yt       *graph.Graph
	ytMx     *dist.Matrix
	ytMxTime time.Duration

	terror       *graph.Graph
	terrorMx     *dist.Matrix
	terrorMxTime time.Duration

	synth     map[string]*graph.Graph
	synthMx   map[string]*dist.Matrix
	synthTime map[string]time.Duration
}

// NewEnv creates an experiment environment.
func NewEnv(cfg Config) *Env {
	return &Env{
		Cfg:       cfg,
		synth:     map[string]*graph.Graph{},
		synthMx:   map[string]*dist.Matrix{},
		synthTime: map[string]time.Duration{},
	}
}

// YouTube returns the shared YouTube-like graph, its distance matrix and
// the matrix build time (the paper's M-Index series).
func (e *Env) YouTube() (*graph.Graph, *dist.Matrix, time.Duration) {
	if e.yt == nil {
		e.yt = gen.YouTube(e.Cfg.Seed, e.Cfg.YouTubeScale)
		t0 := time.Now()
		e.ytMx = dist.NewMatrix(e.yt)
		e.ytMxTime = time.Since(t0)
	}
	return e.yt, e.ytMx, e.ytMxTime
}

// Terror returns the shared terrorist-organization graph and matrix.
func (e *Env) Terror() (*graph.Graph, *dist.Matrix, time.Duration) {
	if e.terror == nil {
		e.terror = gen.Terror(e.Cfg.Seed)
		t0 := time.Now()
		e.terrorMx = dist.NewMatrix(e.terror)
		e.terrorMxTime = time.Since(t0)
	}
	return e.terror, e.terrorMx, e.terrorMxTime
}

// Synthetic returns a cached synthetic graph with the given shape (already
// scaled by the caller) and its matrix.
func (e *Env) Synthetic(nodes, edges int) (*graph.Graph, *dist.Matrix, time.Duration) {
	key := fmt.Sprintf("%d/%d", nodes, edges)
	if _, ok := e.synth[key]; !ok {
		g := gen.Synthetic(e.Cfg.Seed, nodes, edges, 3, gen.DefaultColors)
		t0 := time.Now()
		e.synth[key] = g
		e.synthMx[key] = dist.NewMatrix(g)
		e.synthTime[key] = time.Since(t0)
	}
	return e.synth[key], e.synthMx[key], e.synthTime[key]
}

// ScaleN applies the synthetic scale factor to a paper-sized count,
// keeping at least a small floor so sweeps stay monotone.
func (e *Env) ScaleN(n int) int {
	v := int(float64(n) * e.Cfg.SyntheticScale)
	if v < 16 {
		v = 16
	}
	return v
}

// Rand returns a fresh deterministic source offset from the config seed.
func (e *Env) Rand(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(e.Cfg.Seed*1_000_003 + offset))
}

// ---- result tables ----------------------------------------------------------

// Row is one x-axis point of a figure.
type Row struct {
	Label  string
	Values map[string]float64
}

// Table is one regenerated figure: the x axis, the series the paper plots
// and one row per sweep point.
type Table struct {
	ID     string // e.g. "Fig. 9(b)"
	Title  string
	XLabel string
	Unit   string // "s", "F-measure", "count", ...
	Series []string
	Rows   []Row
	Notes  []string

	// Metrics are scalar side measurements outside the row/series grid
	// (e.g. label bytes per node), keyed by a space-free unit label so
	// the benchmark wrappers can forward them through b.ReportMetric.
	Metrics map[string]float64
}

// Add appends a row.
func (t *Table) Add(label string, values map[string]float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// Metric records a scalar side measurement (see Metrics).
func (t *Table) Metric(unit string, v float64) {
	if t.Metrics == nil {
		t.Metrics = map[string]float64{}
	}
	t.Metrics[unit] = v
}

// Format renders the table as fixed-width text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s", t.ID, t.Title)
	if t.Unit != "" {
		fmt.Fprintf(&b, " [%s]", t.Unit)
	}
	b.WriteByte('\n')
	width := 14
	fmt.Fprintf(&b, "%-*s", width, t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, "%*s", width, s)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", width, r.Label)
		for _, s := range t.Series {
			v, ok := r.Values[s]
			if !ok {
				fmt.Fprintf(&b, "%*s", width, "-")
				continue
			}
			fmt.Fprintf(&b, "%*s", width, formatValue(v))
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	if len(t.Metrics) > 0 {
		keys := make([]string, 0, len(t.Metrics))
		for k := range t.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  metric: %s = %s\n", k, formatValue(t.Metrics[k]))
		}
	}
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e6:
		return strconv.FormatInt(int64(v), 10)
	case v >= 100:
		return strconv.FormatFloat(v, 'f', 1, 64)
	case v >= 0.01:
		return strconv.FormatFloat(v, 'f', 4, 64)
	default:
		return strconv.FormatFloat(v, 'g', 3, 64)
	}
}

// timeIt runs fn and returns elapsed seconds.
func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// All returns every experiment driver keyed by a short name, in a stable
// order (used by cmd/experiments).
func All() []NamedDriver {
	return []NamedDriver{
		{"fig9a", Fig9a},
		{"fig9b", Fig9b},
		{"fig9c", Fig9c},
		{"fig10a", Fig10a},
		{"fig10b", Fig10b},
		{"fig11a", Fig11a},
		{"fig11b", Fig11b},
		{"fig11c", Fig11c},
		{"fig11d", Fig11d},
		{"fig12a", Fig12a},
		{"fig12b", Fig12b},
		{"fig12c", Fig12c},
		{"fig12d", Fig12d},
		{"fig12e", Fig12e},
		{"fig12f", Fig12f},
		{"engine-batch", EngineBatch},
		{"engine-memo", EngineMemo},
		{"twohop", TwoHop},
		{"ablation-containment", AblationContainment},
		{"ablation-filter", AblationFilter},
		{"ablation-incremental", AblationIncremental},
		{"ablation-topo", AblationTopoOrder},
		{"ablation-cache", AblationCache},
	}
}

// NamedDriver pairs an experiment name with its driver.
type NamedDriver struct {
	Name string
	Run  func(*Env) *Table
}

// Names lists driver names in order.
func Names() []string {
	ds := All()
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}
