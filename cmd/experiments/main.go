// Command experiments regenerates the tables and figures of the paper's
// experimental study (Section 6). With no arguments it runs every
// experiment; otherwise each argument names one driver (see -list).
//
// Usage:
//
//	experiments [-scale f] [-queries n] [-seed s] [-list] [name ...]
//
// Scale 1.0 reproduces the paper's dataset sizes (slow on one core); the
// default 0.25 preserves every curve's shape in a fraction of the time.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"regraph/internal/bench"
)

func main() {
	var (
		scale   = flag.Float64("scale", 0, "dataset scale factor (0 = default/env)")
		queries = flag.Int("queries", 0, "queries per sweep point (0 = default/env)")
		seed    = flag.Int64("seed", 1, "generator seed")
		list    = flag.Bool("list", false, "list experiment names and exit")
	)
	flag.Parse()

	if *list {
		for _, n := range bench.Names() {
			fmt.Println(n)
		}
		return
	}
	cfg, err := bench.DefaultConfig()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	cfg.Seed = *seed
	if *scale > 0 {
		cfg.YouTubeScale = *scale
		cfg.SyntheticScale = *scale
	}
	if *queries > 0 {
		cfg.QueriesPerPoint = *queries
	}
	env := bench.NewEnv(cfg)

	selected := flag.Args()
	drivers := bench.All()
	if len(selected) > 0 {
		byName := map[string]bench.NamedDriver{}
		for _, d := range drivers {
			byName[d.Name] = d
		}
		drivers = drivers[:0]
		for _, name := range selected {
			d, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (try -list)\n", name)
				os.Exit(2)
			}
			drivers = append(drivers, d)
		}
	}
	fmt.Printf("# regraph experiments  seed=%d  youtube-scale=%.2f  synthetic-scale=%.2f  queries/point=%d\n\n",
		cfg.Seed, cfg.YouTubeScale, cfg.SyntheticScale, cfg.QueriesPerPoint)
	for _, d := range drivers {
		t0 := time.Now()
		tab := d.Run(env)
		fmt.Println(tab.Format())
		fmt.Printf("  (%s finished in %v)\n\n", d.Name, time.Since(t0).Round(time.Millisecond))
	}
}
