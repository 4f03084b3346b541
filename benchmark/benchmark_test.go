package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeArithmetic(t *testing.T) {
	// request 0..100 with children 10..30 and 30..70; the second child
	// has its own child 40..50 and one that sticks out past it, 60..90.
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "decode", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "session", Start: 30, End: 70},
		{ID: 3, Parent: 2, Name: "eval", Start: 40, End: 50},
		{ID: 4, Parent: 2, Name: "eval", Start: 60, End: 90},
		{ID: 5, Parent: -1, Name: "request", Start: 200, End: 260},
	}
	got := selfTimes(spans)
	want := map[string]layerStat{
		"request": {Calls: 2, Busy: 160, Self: 40 + 60},
		"decode":  {Calls: 1, Busy: 20, Self: 20},
		"session": {Calls: 1, Busy: 40, Self: 40 - 10 - 10}, // the overhang past 70 is not session time
		"eval":    {Calls: 2, Busy: 40, Self: 40},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	// Self times of a tree add up to its root: here 100, of which the
	// overhanging child claims 20 beyond its parent.
	var sum time.Duration
	for _, st := range got {
		sum += st.Self
	}
	if sum != 100+60+20 {
		t.Errorf("self times add up to %d, want 180", sum)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{3, 1, 2, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.xs, i, got, c.want[i])
			}
		}
	}
}

func TestSteadyAveragesTheUndisturbedThird(t *testing.T) {
	rates := []float64{100, 60, 98, 40, 99, 97, 55, 96, 20}
	if got := steady(rates, true); got != 99 {
		t.Errorf("best third of rates = %v, want mean(100, 99, 98)", got)
	}
	lat := []float64{1.0, 5.0, 1.2, 9.0, 1.1, 1.3, 7.0}
	if got := steady(lat, false); math.Abs(got-1.1) > 1e-12 {
		t.Errorf("best third of latencies = %v, want mean(1.0, 1.1, 1.2)", got)
	}
	if got := steady([]float64{4}, false); got != 4 {
		t.Errorf("one window = %v, want 4", got)
	}
	if rates[1] != 60 {
		t.Error("steady must not reorder its input")
	}
}

func TestVerdicts(t *testing.T) {
	file := func(values ...float64) *resultFile {
		f := &resultFile{}
		for _, v := range values {
			f.Runs = append(f.Runs, &runResult{Workload: "w", Metrics: map[string]metric{"m": {Value: v}}})
		}
		return f
	}
	lower := gate{Name: "m", Better: "lower", Bound: 0.10}
	higher := gate{Name: "m", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name     string
		g        gate
		old, cur *resultFile
		want     string
	}{
		{"latency up 20%", lower, file(100, 101, 99), file(120, 121, 119), "REGRESSED"},
		{"latency down 20%", lower, file(100, 101, 99), file(80, 81, 79), "improved"},
		{"latency up 5%", lower, file(100, 101, 99), file(105, 106, 104), "unchanged"},
		{"throughput down 20%", higher, file(100, 101, 99), file(80, 81, 79), "REGRESSED"},
		{"throughput up 20%", higher, file(100, 101, 99), file(120, 121, 119), "improved"},
		{"own spread wider than the bound", lower, file(100, 130, 80), file(103, 104, 102), "unresolved"},
		{"single runs", lower, file(100), file(104), "unchanged"},
	} {
		_, got := verdict(c.g, seriesOf(c.old, "w", "m"), seriesOf(c.cur, "w", "m"))
		if got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSameInputsRefusesOtherInputs(t *testing.T) {
	mk := func(procs, graph string, seconds float64) *resultFile {
		return &resultFile{Env: map[string]string{"GOMAXPROCS": procs},
			Runs: []*runResult{{Workload: "w", Seconds: seconds, Digests: map[string]string{"graph": graph, "pool": "p"}}}}
	}
	if err := sameInputs(mk("2", "g", 20), mk("2", "g", 20)); err != nil {
		t.Errorf("equal files refused: %v", err)
	}
	for name, other := range map[string]*resultFile{
		"GOMAXPROCS": mk("8", "g", 20), "fingerprint": mk("2", "h", 20), "run length": mk("2", "g", 10),
	} {
		if sameInputs(mk("2", "g", 20), other) == nil {
			t.Errorf("files differing in %s were accepted", name)
		}
	}
}

// TestBenchmarkJSON keeps the definition file and the code in step.
func TestBenchmarkJSON(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []gate                       `json:"end_to_end"`
		PerLayer  []struct{ Name string }      `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
	}
	for _, g := range def.EndToEnd {
		if g.Bound <= 0 || g.Bound > 0.25 || (g.Better != "lower" && g.Better != "higher") {
			t.Errorf("end_to_end %+v: bad bound or direction", g)
		}
	}
}

// TestSmoke runs all four workloads end to end against real child
// processes, and their traced passes, at a tenth of the size with
// one-second phases: the benchmark must keep building, launching,
// verifying and recovering. It asserts correctness only, never speed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches child processes")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 1, seconds: 1, size: 0.1, root: root}
	for i := range workloads {
		w := &workloads[i]
		for _, mode := range []struct {
			name string
			run  func(*spec, options) (*runResult, error)
			want []string
		}{
			{"e2e", runE2E, []string{"throughput_qps", "latency_p50_ms", "latency_p95_ms", "setup_s", "peak_rss_mb"}},
			{"traced", runTraced, []string{"server.roundtrip_us", "engine.session_us", "wire.decode_us"}},
		} {
			t.Run(w.name+"/"+mode.name, func(t *testing.T) {
				res, err := mode.run(w, o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Problems)
				}
				for _, name := range mode.want {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s = %v, want a positive value", name, res.Metrics[name].Value)
					}
				}
				if w.wal && mode.name == "e2e" {
					for _, name := range []string{"commit_p50_ms", "recover_s"} {
						if res.Diagnostics[name].Value <= 0 {
							t.Errorf("%s = %v, want a positive value", name, res.Diagnostics[name].Value)
						}
					}
				}
				if hop := res.Metrics["router.hop_us"].Value; hop != 0 && !w.routed {
					t.Errorf("router.hop_us = %v on a workload without a router", hop)
				}
			})
		}
	}
}
