package main

import (
	"context"
	"encoding/json"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mqo"
	"mqo/internal/ssb"
)

var testShape = Shape{OptCells: 44, Bindings: 6, Variants: 2, Prefix: 20, Closed: 50,
	OpenRates: []int{10, 20}, OpenSeconds: 1}

func inputFile(t *testing.T, seed int64) []byte {
	t.Helper()
	data, err := json.Marshal(Generate(seed, testShape))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := inputFile(t, 11), inputFile(t, 11), inputFile(t, 12)
	if string(a) != string(b) {
		t.Error("same seed gave different input files")
	}
	if string(a) == string(c) {
		t.Error("different seeds gave the same input file")
	}
	in := Generate(11, testShape)
	if len(in.Pool) < 29 {
		t.Errorf("pool has %d texts, want at least 29", len(in.Pool))
	}
	shared := 0
	for _, m := range in.BindingsB {
		for _, a := range in.BindingsA {
			if m == a {
				shared++
			}
		}
	}
	if shared == 0 || shared == len(in.BindingsB) {
		t.Errorf("binding sets A %v and B %v should overlap in part", in.BindingsA, in.BindingsB)
	}
}

// The program under test gets the generated inputs and nothing else: they
// must name neither the seed nor any workload.
func TestInputsCarryNeitherSeedNorWorkloadName(t *testing.T) {
	const seed = 987654321
	file := string(inputFile(t, seed))
	if strings.Contains(file, strconv.Itoa(seed)) {
		t.Error("input file contains the seed")
	}
	for name := range workloads {
		if strings.Contains(file, name) {
			t.Errorf("input file contains workload name %s", name)
		}
	}
}

func TestOracleCountsACorruptedRowAsFailed(t *testing.T) {
	const sf = 0.001
	db := mqo.NewDB(128)
	if err := ssb.LoadDB(db, sf, 7); err != nil {
		t.Fatal(err)
	}
	opt, err := mqo.Open(ssb.Catalog(sf), mqo.WithDB(db))
	if err != nil {
		t.Fatal(err)
	}
	// Q1.1 is a scalar aggregate, so it returns a row at any scale; an empty result
	// would test only the added-row branch.
	text := ssb.QuerySQL(1, 0)
	e := &runEnv{orc: &oracle{}}
	if err := e.orc.add(db, []oracleItem{oracleQuery("q", ssb.Query(1, 0))}); err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run(context.Background(), mqo.Batch{SQL: text, Algorithm: mqo.Greedy})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries[0].Rows) == 0 {
		t.Fatal("query returned no rows; pick one that does")
	}
	if !e.orc.check("q", res.Queries[0]) {
		t.Fatal("correct answer rejected")
	}
	if e.orc.check("q", corruptResult(res.Queries[0])) {
		t.Error("corrupted row not caught")
	}
	if e.orc.check("q", mqo.QueryResult{Schema: res.Queries[0].Schema}) {
		t.Error("missing rows not caught")
	}

	log := &opLog{}
	item := batchItem{sql: text, keys: []string{"q"}}
	e.runItem(context.Background(), opt, nil, item, log)
	e.orc.corrupt = true
	e.runItem(context.Background(), opt, nil, item, log)
	if log.attempted != 2 || log.failed != 1 {
		t.Errorf("attempted %d failed %d, want 2 and 1", log.attempted, log.failed)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload once at micro scale, traced — a traced run
// measures the end-to-end metrics too — and checks that the names emitted
// are the names BENCHMARK.json declares, so the two cannot drift.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(d.Name) || declared[d.Name] {
			t.Errorf("bad or repeated metric name %q", d.Name)
		}
		declared[d.Name] = true
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	var mu sync.Mutex
	emitted := map[string]bool{}
	t.Run("workloads", func(t *testing.T) {
		for _, w := range sp.Workloads {
			if workloads[w.Name] == nil {
				t.Errorf("workload %s is declared but not implemented", w.Name)
				continue
			}
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel() // timings do not matter here
				m, log, err := newRunEnv(11, 0.1, true, microScale, false).measure(context.Background(), w.Name)
				if err != nil {
					t.Fatal(err)
				}
				if log.failed != 0 || log.attempted == 0 {
					t.Errorf("attempted %d, failed %d", log.attempted, log.failed)
				}
				mu.Lock()
				defer mu.Unlock()
				for name, v := range m.vals {
					emitted[name] = true
					if !declared[name] {
						t.Errorf("undeclared metric %s", name)
					}
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s = %v", name, v)
					}
				}
				for _, mode := range []bool{false, true} {
					if _, err := m.finish(sp, mode); err != nil {
						t.Errorf("trace %v: %v", mode, err)
					}
				}
			})
		}
	})
	for name := range declared {
		if !emitted[name] {
			t.Errorf("declared metric %s is emitted by no workload", name)
		}
	}
}

func TestCorruptedRunIsNotCorrect(t *testing.T) {
	_, log, err := newRunEnv(11, 0.1, false, microScale, true).measure(context.Background(), "dss_batch_cold")
	if err != nil {
		t.Fatal(err)
	}
	if log.failed != 1 {
		t.Errorf("failed = %d, want 1", log.failed)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "pass_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "slo_attainment", Better: "higher", Bound: 0.1}
	for _, tc := range []struct {
		d        metricSpec
		old, new []float64
		want     string
	}{
		{lower, []float64{1, 1.01, 0.99}, []float64{1.02, 1, 1.01}, "same"},
		{lower, []float64{1, 1.01, 0.99}, []float64{1.2, 1.21, 1.19}, "worse"},
		{lower, []float64{1, 1.01, 0.99}, []float64{0.8, 0.81, 0.79}, "better"},
		{higher, []float64{1, 1.01, 0.99}, []float64{0.8, 0.81, 0.79}, "worse"},
		{lower, []float64{1, 1.5, 0.7}, []float64{1.2, 1.21, 1.19}, "unresolved"},
		{metricSpec{Name: "exec.run_s", Better: "lower"}, []float64{1}, []float64{2}, "-"},
	} {
		if _, got := verdict(tc.d, tc.old, tc.new); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.d.Name, tc.old, tc.new, got, tc.want)
		}
	}
}

// Quartiles must be the ones Python's statistics.quantiles(xs, n=4) gives,
// which the acceptance rule for spreads is stated in.
func TestQuantileMatchesPythonExclusive(t *testing.T) {
	xs := []float64{9, 1, 4, 7, 2, 8, 3, 10, 6, 5}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
