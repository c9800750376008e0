package mqo

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"mqo/internal/catalog"
	"mqo/internal/exec"
	"mqo/internal/psp"
	"mqo/internal/ssb"
	"mqo/internal/tpcd"
)

// memoSignature renders everything of a Result that must not depend on
// whether its logical DAG was built for it or taken from the session's memo:
// the cost's bits, the materialized set, every Stats counter (DAG sizes and
// derivations, waves, benefit recomputations) and the plan.
func memoSignature(res *Result) string {
	st := res.Stats
	st.OptTime, st.Phases = 0, nil
	mats := make([]int, len(res.Materialized))
	for i, m := range res.Materialized {
		mats[i] = m.ID
	}
	return fmt.Sprintf("%v cost=%x noshare=%x mats=%v stats=%+v\n%s", res.Algorithm,
		math.Float64bits(float64(res.Cost)), math.Float64bits(float64(res.NoShareCost)), mats, st, res.Plan)
}

// TestDAGMemoMatchesFreshSession: one session optimizes each golden batch
// under Greedy, Volcano, Volcano-RU, Volcano-SH and Greedy again — every
// call after the first on the logical DAG the first one expanded — and each
// Result must equal what a fresh session returns for the same call. A
// Result handed out earlier must still print the plan it printed then: the
// later calls' physical DAGs are their own.
func TestDAGMemoMatchesFreshSession(t *testing.T) {
	tc, pc, sc := tpcd.Catalog(1), psp.Catalog(1), ssb.Catalog(1)
	type batch struct {
		name    string
		cat     *catalog.Catalog
		queries []*Query
	}
	var batches []batch
	for i := 1; i <= 5; i++ {
		batches = append(batches, batch{fmt.Sprintf("bq%d", i), tc, tpcd.BatchQueries(i)},
			batch{fmt.Sprintf("cq%d", i), pc, psp.CQ(i)})
	}
	batches = append(batches,
		batch{"q2", tc, tpcd.Q2(1)}, batch{"q2ni", tc, tpcd.Q2NI(1)}, batch{"q2d", tc, tpcd.Q2D()},
		batch{"q11", tc, []*Query{tpcd.Q11()}}, batch{"q15", tc, []*Query{tpcd.Q15()}})
	for f := 1; f <= ssb.NumFlights; f++ {
		batches = append(batches, batch{fmt.Sprintf("ssb%d", f), sc, ssb.Flight(f)})
	}

	ctx := context.Background()
	order := []Algorithm{Greedy, Volcano, VolcanoRU, VolcanoSH, Greedy}
	for _, b := range batches {
		opt, err := Open(b.cat)
		if err != nil {
			t.Fatal(err)
		}
		hits := dagMemoHit.Value()
		var results []*Result
		var plans []string
		for _, alg := range order {
			res, err := opt.OptimizeBatch(ctx, b.queries, alg)
			if err != nil {
				t.Fatalf("%s %v: %v", b.name, alg, err)
			}
			fresh, err := Open(b.cat)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.OptimizeBatch(ctx, b.queries, alg)
			if err != nil {
				t.Fatalf("%s %v, fresh session: %v", b.name, alg, err)
			}
			if got, want := memoSignature(res), memoSignature(want); got != want {
				t.Errorf("%s %v: the session's result differs from a fresh session's:\n%s\nwant:\n%s", b.name, alg, got, want)
			}
			results, plans = append(results, res), append(plans, res.Plan.String())
		}
		for i, res := range results {
			if res.Plan.String() != plans[i] {
				t.Errorf("%s call %d (%v): the plan changed after later calls", b.name, i, order[i])
			}
		}
		if got := dagMemoHit.Value() - hits; got != int64(len(order)-1) {
			t.Errorf("%s: %d memo hits over %d calls, want %d", b.name, got, len(order), len(order)-1)
		}
		if n := len(opt.dags.byKey); n != 1 {
			t.Errorf("%s: the session holds %d logical DAGs, want 1", b.name, n)
		}
	}
}

// TestDAGMemoIsBounded: a session that has optimized more distinct
// compositions than the memo holds keeps exactly dagMemoCap of them, the
// most recently used: the last is still held and the first was evicted.
func TestDAGMemoIsBounded(t *testing.T) {
	const extra = 5
	opt, err := Open(ssb.Catalog(1))
	if err != nil {
		t.Fatal(err)
	}
	texts := ssb.AllQuerySQL()
	var batches [][]*Query
	for i := 0; len(batches) < dagMemoCap+extra; i++ {
		text := texts[i%len(texts)]
		if i >= len(texts) { // then pairs, a composition of their own
			text += ";" + texts[(i+1)%len(texts)]
		}
		qs, err := opt.ParseSQL(text)
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, qs)
	}
	ctx := context.Background()
	for _, qs := range batches {
		if _, err := opt.OptimizeBatch(ctx, qs, Volcano); err != nil {
			t.Fatal(err)
		}
	}
	if n, l := len(opt.dags.byKey), opt.dags.lru.Len(); n != dagMemoCap || l != dagMemoCap {
		t.Fatalf("after %d distinct compositions the memo holds %d (list %d), want %d", len(batches), n, l, dagMemoCap)
	}
	for _, c := range []struct {
		qs   []*Query
		hits int64
	}{{batches[len(batches)-1], 1}, {batches[0], 0}} {
		hits := dagMemoHit.Value()
		if _, err := opt.OptimizeBatch(ctx, c.qs, Volcano); err != nil {
			t.Fatal(err)
		}
		if got := dagMemoHit.Value() - hits; got != c.hits {
			t.Errorf("composition %q: %d memo hits, want %d", treesKey(c.qs), got, c.hits)
		}
	}
	if n := len(opt.dags.byKey); n != dagMemoCap {
		t.Errorf("the memo holds %d, want %d", n, dagMemoCap)
	}
}

// TestDAGMemoConcurrentRuns: goroutines run one composition at once under
// every algorithm, on one session — with and without a result cache — so
// their physical DAGs are built, armed, searched and executed over one
// shared logical DAG. Every answer must equal the reference evaluator's
// (run under -race).
func TestDAGMemoConcurrentRuns(t *testing.T) {
	const sf, goroutines, rounds = 0.0005, 8, 3
	db := NewDB(512)
	if err := ssb.LoadDB(db, sf, 1); err != nil {
		t.Fatal(err)
	}
	queries := ssb.Flight(3)
	want := make([]QueryResult, len(queries))
	for i, q := range queries {
		rows, schema, err := exec.Reference(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = QueryResult{Schema: schema, Rows: rows}
	}
	for _, opts := range [][]Option{nil, {WithResultCache(8<<20, 0)}} {
		opt, err := Open(ssb.Catalog(sf), append([]Option{WithDB(db)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(alg Algorithm) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					res, err := opt.Run(context.Background(), Batch{Queries: queries, Algorithm: alg})
					if err != nil {
						t.Error(err)
						return
					}
					for i := range queries {
						if !exec.EqualRows(res.Queries[i], want[i], 1e-9) {
							t.Errorf("%v, query %d: %d rows differ from the reference's %d",
								alg, i, len(res.Queries[i].Rows), len(want[i].Rows))
						}
					}
				}
			}(Algorithms()[g%len(Algorithms())])
		}
		wg.Wait()
		if n := len(opt.dags.byKey); n != 1 {
			t.Errorf("the session holds %d logical DAGs, want 1", n)
		}
		opt.Close()
	}
}
