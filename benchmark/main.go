// Command benchmark is the repository's one performance benchmark: it
// builds cmd/rgserve and cmd/rgrouter from this checkout, runs them as
// child processes over generated inputs, drives them over HTTP with its
// own load generator, checks every answer against a plain-graph oracle
// and prints every metric by name. See README.md in this directory.
//
//	go run ./benchmark --workload rq-matrix-direct --seed 1 --seconds 16 --trace 0
//	go run ./benchmark -passes 3 -out benchmark/out/mine.json
//	go run ./benchmark -compare benchmark/baseline.json benchmark/out/mine.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// resultFile is what -out writes and -compare reads: the environment
// and every run of one or more passes.
type resultFile struct {
	Env  map[string]string `json:"env"`
	Runs []*runResult      `json:"runs"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four)")
		seed     = flag.Int64("seed", 1, "orders the requests and fixes their arrival times; reaches only the generator")
		seconds  = flag.Float64("seconds", 16, "measured time per run: a quarter closed loop, three quarters open loop")
		trace    = flag.Int("trace", 0, "1 = traced in-process pass (per-layer metrics) in place of the end-to-end run")
		passes   = flag.Int("passes", 1, "repeat the chosen workloads this many times, with seeds seed, seed+1, ...")
		out      = flag.String("out", "", "also write every run to this result file")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare old.json new.json"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	chosen := workloads
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		chosen = []spec{*w}
	}
	file := resultFile{Env: environment(root)}
	ok := true
	var last *runResult
	for p := 0; p < *passes; p++ {
		for i := range chosen {
			o := options{seed: *seed + int64(p), seconds: *seconds, size: 1, root: root}
			run := runE2E
			if *trace != 0 {
				run = runTraced
			}
			res, err := run(&chosen[i], o)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", chosen[i].name, err))
			}
			res.Trace = *trace
			fmt.Print(res.describe())
			file.Runs = append(file.Runs, res)
			ok = ok && res.Correct
			last = res
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	// The last line is the result of the (last) run, in the shape the
	// benchmark's contract fixes.
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, last.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

// environment records what a result may be compared with.
func environment(root string) map[string]string {
	commit := "unknown" // a checkout without .git, as the driver makes
	if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"GOMAXPROCS": fmt.Sprint(procs),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, filepath.Base(os.Args[0])+":", err)
	os.Exit(2)
}
