// Command mqobench regenerates the paper's experiments. With no flags it
// runs every experiment; -experiment selects one of: fig6, q2ni, fig7,
// fig8, fig9, fig10, monotonicity, sharability, nosharing, memory, scale,
// space, parallel, multipick, calibrate, resultcache, ssb, observe, tiered,
// paramcache.
// With -json the results are emitted as a machine-readable JSON array
// (one element per experiment) instead of the human-readable tables —
// the format CI archives as a benchmark trajectory.
//
//	mqobench -experiment fig6
//	mqobench -experiment fig6 -json > fig6.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"mqo/internal/bench"
)

func main() {
	which := flag.String("experiment", "all", "experiment to run (fig6|q2ni|fig7|fig8|fig9|fig10|monotonicity|sharability|nosharing|memory|scale|space|parallel|multipick|calibrate|resultcache|ssb|observe|tiered|paramcache|all)")
	maxCQ := flag.Int("maxcq", 3, "largest PSP composite for the ablation experiments (1-5)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker count for the parallel what-if costing, multi-pick and calibration experiments")
	multipick := flag.Int("multipick", 4, "multi-pick width k for the multipick experiment")
	rcBudget := flag.Int64("rcbudget", 16<<20, "result-cache byte budget for the resultcache and ssb experiments")
	rcRAM := flag.Int64("rcram", 0, "tiered experiment's tight RAM budget in bytes (0: auto, smaller than the SSB working set)")
	rcWarm := flag.Int64("rcwarm", 0, "tiered experiment's warm-tier budget in bytes (0: 16 MB)")
	sf := flag.Float64("sf", 0.01, "scale factor for the ssb experiment's generated data")
	seed := flag.Int64("seed", 11, "generator seed for the ssb experiment")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	flag.Parse()

	type runner struct {
		name string
		run  func() (*bench.Experiment, error)
	}
	runners := []runner{
		{"fig6", bench.Figure6},
		{"q2ni", bench.Q2NotIn},
		{"fig7", bench.Figure7},
		{"fig8", bench.Figure8},
		{"fig9", bench.Figure9},
		{"fig10", bench.Figure10},
		{"monotonicity", func() (*bench.Experiment, error) { return bench.AblationMonotonicity(*maxCQ) }},
		{"sharability", func() (*bench.Experiment, error) { return bench.AblationSharability(*maxCQ) }},
		{"nosharing", bench.NoSharingOverhead},
		{"memory", bench.MemorySensitivity},
		{"scale", bench.ScaleSensitivity},
		{"space", bench.SpaceBudgetCurve},
		{"parallel", func() (*bench.Experiment, error) { return bench.ParallelSpeedup(*parallel) }},
		{"multipick", func() (*bench.Experiment, error) { return bench.MultiPickSpeedup(*parallel, *multipick) }},
		{"calibrate", func() (*bench.Experiment, error) { return bench.Calibrate(*parallel) }},
		{"resultcache", func() (*bench.Experiment, error) { return bench.ResultCacheReplay(*rcBudget) }},
		{"ssb", func() (*bench.Experiment, error) { return bench.SSB(*sf, *seed, *rcBudget) }},
		{"observe", func() (*bench.Experiment, error) { return bench.Observe(*sf, *seed) }},
		{"tiered", func() (*bench.Experiment, error) {
			return bench.TieredReplay(*sf, *seed, *rcRAM, *rcWarm)
		}},
		{"paramcache", func() (*bench.Experiment, error) {
			return bench.ParamCache(*sf, *seed, *rcBudget)
		}},
	}

	var results []*bench.Experiment
	for _, r := range runners {
		if *which != "all" && *which != r.name {
			continue
		}
		exp, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mqobench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		if !*asJSON {
			fmt.Println(exp)
		}
		results = append(results, exp)
	}
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "mqobench: unknown experiment %q\n", *which)
		os.Exit(2)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "mqobench: %v\n", err)
			os.Exit(1)
		}
	}
}
