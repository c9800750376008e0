// Command benchmark measures the repository end to end and layer by layer
// over the workloads BENCHMARK.json names. See README.md.
//
//	bash benchmark/run.sh --workload dss_batch_cold --seed 11 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object: whether every
// checked answer was correct, how many operations were attempted and
// failed, and the declared metrics — end to end with --trace 0, per layer
// with --trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload name from BENCHMARK.json, or all")
		seed     = flag.Int64("seed", 11, "workload seed: drives data, constants, draws and arrival gaps")
		seconds  = flag.Float64("seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1: traced run printing per-layer metrics and writing benchmark/out/trace_<workload>.json")
		repeat   = flag.Int("repeat", 1, "runs per workload")
		out      = flag.String("out", "", "also write every run's result to this JSON file")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments: old.json new.json")
		micro    = flag.Bool("micro", false, "tiny scale, for smoke tests")
		corrupt  = flag.Bool("corrupt", false, "change the first answer before it is checked; the run must fail")
	)
	flag.Parse()
	sp, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two files: old.json new.json"))
		}
		if err := compareFiles(os.Stdout, sp, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	}
	sc := fullScale
	if *micro {
		sc = microScale
	}

	doc := resultsDoc{Seed: *seed, Seconds: *seconds, Trace: *trace}
	correct := true
	for _, name := range names {
		for i := 0; i < *repeat; i++ {
			res, err := runWorkload(context.Background(), sp, name, *seed, *seconds, *trace == 1, sc, *corrupt)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			doc.Runs = append(doc.Runs, *res)
			correct = correct && res.Correct
			printOutcome(res)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(doc, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// resultsDoc is the file -out writes and -compare reads.
type resultsDoc struct {
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Trace   int       `json:"trace"`
	Runs    []outcome `json:"runs"`
}

// newRunEnv generates the inputs of one run from the seed.
func newRunEnv(seed int64, seconds float64, trace bool, sc scale, corrupt bool) *runEnv {
	e := &runEnv{sc: sc, seconds: seconds, trace: trace, orc: &oracle{corrupt: corrupt}}
	e.shape = shapeFor(sc, seconds, trace)
	e.in = Generate(seed, e.shape)
	if trace {
		e.tr = newTracer()
	}
	return e
}

// measure runs the named workload on e's inputs.
func (e *runEnv) measure(ctx context.Context, name string) (*measure, *opLog, error) {
	run, ok := workloads[name]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload (BENCHMARK.json names the workloads)")
	}
	m := newMeasure()
	log, err := run(ctx, e, m)
	if err != nil {
		return nil, nil, err
	}
	if e.trace {
		m.set("bench.verify_s", e.orc.verifyS, len(e.orc.want))
		m.set("bench.calib_s", e.calibS, 1)
	}
	return m, log, nil
}

// runWorkload makes one run of one workload and returns what it measured,
// as the metrics BENCHMARK.json declares for the mode.
func runWorkload(ctx context.Context, sp *spec, name string, seed int64, seconds float64,
	trace bool, sc scale, corrupt bool) (*outcome, error) {

	e := newRunEnv(seed, seconds, trace, sc, corrupt)
	m, log, err := e.measure(ctx, name)
	if err != nil {
		return nil, err
	}
	if trace {
		if err := e.tr.write(filepath.Join(sp.root, "benchmark", "out", "trace_"+name+".json")); err != nil {
			return nil, err
		}
	}
	metrics, err := m.finish(sp, trace)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# %s: calibration kernel %.2f ms (nominal %.2f ms): times scaled by %.3f\n",
		name, e.calibS*1e3, calibNominalS*1e3, calibNominalS/e.calibS)
	for _, key := range e.orc.mismatch {
		fmt.Fprintf(os.Stderr, "benchmark: %s: wrong rows for %.60q\n", name, key)
	}
	return &outcome{Workload: name, Correct: log.failed == 0, Attempted: log.attempted,
		Failed: log.failed, Metrics: metrics}, nil
}

// printOutcome prints every metric by name with its unit and sample count,
// then the result line the driver reads.
func printOutcome(res *outcome) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s: attempted %d, failed %d\n", res.Workload, res.Attempted, res.Failed)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Printf("%-32s %16.6g %-6s n=%d\n", name, v.Value, v.Unit, v.Samples)
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]valueUnit{}
	for name, v := range res.Metrics {
		metrics[name] = valueUnit{v.Value, v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}
