// Command mqopaper regenerates the paper's experiments (§6: Figures 6-10,
// the §6.3 ablations, the §6.4 sensitivity checks). With no flags it runs
// every experiment; -experiment selects one by name (-h lists them).
// With -json the results are emitted as a machine-readable JSON array
// (one element per experiment) instead of the human-readable tables —
// the format CI archives as BENCH_paper.json.
//
//	mqopaper -experiment fig6
//	mqopaper -experiment fig6 -json > fig6.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mqo/internal/bench"
)

func main() {
	maxCQ := flag.Int("maxcq", 3, "largest PSP composite for the ablation experiments (1-5)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	var names []string
	for _, r := range bench.Experiments(*maxCQ) {
		names = append(names, r.Name)
	}
	valid := strings.Join(names, "|") + "|all"

	which := flag.String("experiment", "all", "experiment to run ("+valid+")")
	flag.Parse()
	if *maxCQ < 1 || *maxCQ > 5 {
		fmt.Fprintf(os.Stderr, "mqopaper: -maxcq %d outside 1-5\n", *maxCQ)
		os.Exit(2)
	}

	var results []*bench.Experiment
	for _, r := range bench.Experiments(*maxCQ) { // after Parse: the ablations take -maxcq
		if *which != "all" && *which != r.Name {
			continue
		}
		exp, err := r.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mqopaper: %s: %v\n", r.Name, err)
			os.Exit(1)
		}
		if !*asJSON {
			fmt.Println(exp)
		}
		results = append(results, exp)
	}
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "mqopaper: unknown experiment %q (want %s)\n", *which, valid)
		os.Exit(2)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "mqopaper: %v\n", err)
			os.Exit(1)
		}
	}
}
