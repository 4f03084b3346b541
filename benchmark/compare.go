package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// gate is one gated metric: its direction and the share of the old
// median by which it may get worse before that counts as a regression.
type gate struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// extraGates are the served-path metrics only mixed-twohop-wal has.
// BENCHMARK.json cannot hold them (every end_to_end metric there must
// exist on every workload), so -compare gates them from here.
var extraGates = []gate{
	{"commit_p50_ms", "lower", 0.15},
	{"recover_s", "lower", 0.15},
}

// gates reads the end-to-end metrics and bounds from BENCHMARK.json,
// the one place they are fixed, and adds extraGates.
func gates(root string) ([]gate, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []gate `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return append(def.EndToEnd, extraGates...), nil
}

// quartiles returns the first, second and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) does (the exclusive method),
// so that spreads agree with the driver's. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// series is one (workload, metric) pair of a result file.
type series struct {
	median, spread float64 // spread: (q3-q1)/median, 0 for a single run
	n              int
}

func seriesOf(f *resultFile, workload, name string) series {
	var xs []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		} else if m, ok := r.Diagnostics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	switch len(xs) {
	case 0:
		return series{}
	case 1:
		return series{median: xs[0], n: 1}
	}
	q1, med, q3 := quartiles(xs)
	return series{median: med, spread: (q3 - q1) / med, n: len(xs)}
}

// verdict classifies one (metric, workload) pair. worse is the share of
// the old median by which the new one is worse (negative: better).
func verdict(g gate, old, cur series) (worse float64, word string) {
	worse = (cur.median - old.median) / old.median
	if g.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > g.Bound:
		return worse, "REGRESSED"
	case worse < -g.Bound:
		return worse, "improved"
	case old.spread > g.Bound || cur.spread > g.Bound:
		// The inputs' own runs disagree by more than the bound: nothing
		// this small can be called unchanged.
		return worse, "unresolved"
	}
	return worse, "unchanged"
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// sameInputs refuses pairs of files whose numbers mean different
// things: another GOMAXPROCS, other inputs, another run length.
func sameInputs(a, b *resultFile) error {
	if a.Env["GOMAXPROCS"] != b.Env["GOMAXPROCS"] {
		return fmt.Errorf("GOMAXPROCS differs: %s and %s", a.Env["GOMAXPROCS"], b.Env["GOMAXPROCS"])
	}
	pins := map[string]*runResult{}
	for _, f := range []*resultFile{a, b} {
		for _, r := range f.Runs {
			p, seen := pins[r.Workload]
			if !seen {
				pins[r.Workload] = r
				continue
			}
			if p.Digests["graph"] != r.Digests["graph"] || p.Digests["pool"] != r.Digests["pool"] {
				return fmt.Errorf("%s: input fingerprints differ", r.Workload)
			}
			if p.Seconds != r.Seconds {
				return fmt.Errorf("%s: run length differs: %g s and %g s", r.Workload, p.Seconds, r.Seconds)
			}
		}
	}
	return nil
}

// compareFiles prints one row per gated (metric, workload) pair with
// both medians and returns the exit code: 1 when a metric regressed.
func compareFiles(oldPath, newPath string) int {
	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	gs, err := gates(root)
	if err != nil {
		fatal(err)
	}
	old, err := readResults(oldPath)
	if err != nil {
		fatal(err)
	}
	cur, err := readResults(newPath)
	if err != nil {
		fatal(err)
	}
	if err := sameInputs(old, cur); err != nil {
		fatal(fmt.Errorf("not comparable: %w", err))
	}
	fmt.Printf("old %s (commit %s, %s)\nnew %s (commit %s, %s)\n", oldPath, old.Env["commit"], old.Env["go"], newPath, cur.Env["commit"], cur.Env["go"])
	fmt.Printf("%-18s %-16s %12s %12s %8s %7s %7s %6s  %s\n", "workload", "metric", "old median", "new median", "worse", "spread", "spread", "bound", "")
	code := 0
	for _, w := range workloads {
		for _, g := range gs {
			o, c := seriesOf(old, w.name, g.Name), seriesOf(cur, w.name, g.Name)
			if o.n == 0 || c.n == 0 {
				continue
			}
			worse, word := verdict(g, o, c)
			if word == "REGRESSED" {
				code = 1
			}
			fmt.Printf("%-18s %-16s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				w.name, g.Name, o.median, c.median, 100*worse, 100*o.spread, 100*c.spread, 100*g.Bound, word)
		}
	}
	return code
}
