package mqo

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"mqo/internal/catalog"
	"mqo/internal/core"
	"mqo/internal/exec"
	"mqo/internal/physical"
	"mqo/internal/psp"
	"mqo/internal/ssb"
	"mqo/internal/tpcd"
)

// memoSignature renders everything of a Result that must not depend on
// whether its DAGs were built for it or taken from the session's memo: the
// cost's bits, the materialized set, every Stats counter (DAG sizes and
// derivations, waves, benefit recomputations), the plan and the cost each of
// its nodes reports.
func memoSignature(res *Result) string {
	st := res.Stats
	st.OptTime, st.Phases = 0, nil
	mats := make([]int, len(res.Materialized))
	for i, m := range res.Materialized {
		mats[i] = m.ID
	}
	return fmt.Sprintf("%v cost=%x noshare=%x mats=%v stats=%+v\n%s%s", res.Algorithm,
		math.Float64bits(float64(res.Cost)), math.Float64bits(float64(res.NoShareCost)), mats, st, res.Plan, planCosts(res.Plan))
}

// planCosts renders the cost every node of a plan reports, its bits, in
// topological order.
func planCosts(p *Plan) string {
	nodes := make([]*physical.PlanNode, 0, len(p.Nodes))
	for i := range p.Nodes {
		nodes = append(nodes, &p.Nodes[i])
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].N.Topo < nodes[j].N.Topo })
	var b strings.Builder
	for _, pn := range nodes {
		fmt.Fprintf(&b, "%d:%x ", pn.N.ID, math.Float64bits(float64(pn.Cost)))
	}
	return b.String()
}

// TestDAGMemoMatchesFreshSession: one session optimizes each golden batch
// under Greedy, Volcano, Volcano-RU, Volcano-SH and Greedy again — every
// call after the first on the logical DAG the first one expanded and the
// physical DAG the call before it searched — and each Result must equal what
// a fresh session returns for the same call. A Result handed out earlier
// must still print the plan it printed then, with the costs it had then,
// though later calls have re-costed the DAG its plan points into.
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
		hits, reused := dagMemoHit.Value(), physicalReused.Value()
		var results []*Result
		var plans, costs []string
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
			results = append(results, res)
			plans, costs = append(plans, res.Plan.String()), append(costs, planCosts(res.Plan))
		}
		for i, res := range results {
			if res.Plan.String() != plans[i] || planCosts(res.Plan) != costs[i] {
				t.Errorf("%s call %d (%v): the plan changed after later calls", b.name, i, order[i])
			}
		}
		if got := dagMemoHit.Value() - hits; got != int64(len(order)-1) {
			t.Errorf("%s: %d memo hits over %d calls, want %d", b.name, got, len(order), len(order)-1)
		}
		if got := physicalReused.Value() - reused; got != int64(len(order)-1) {
			t.Errorf("%s: %d physical DAGs re-costed over %d calls, want %d", b.name, got, len(order), len(order)-1)
		}
		if n, _ := opt.memo.dagCounts(); n != 1 {
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
	if n, counted := opt.memo.dagCounts(); n != dagMemoCap || counted != dagMemoCap || len(opt.memo.entries) != dagMemoCap {
		t.Fatalf("after %d distinct compositions the memo holds %d DAGs (counted %d) in %d entries, want %d",
			len(batches), n, counted, len(opt.memo.entries), dagMemoCap)
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
			t.Errorf("composition %q: %d memo hits, want %d", opt.stmts.treesKey(c.qs), got, c.hits)
		}
	}
	if n, counted := opt.memo.dagCounts(); n != dagMemoCap || counted != dagMemoCap || len(opt.memo.entries) != dagMemoCap {
		t.Errorf("the memo holds %d DAGs (counted %d) in %d entries, want %d", n, counted, len(opt.memo.entries), dagMemoCap)
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
		if n, _ := opt.memo.dagCounts(); n != 1 {
			t.Errorf("the session holds %d logical DAGs, want 1", n)
		}
		opt.Close()
	}
}

// TestPhysicalDAGReuseConcurrent: eight goroutines share one session per
// catalog and optimize BQ5x6, CQ5 and the four SSB flights under all four
// algorithms, each goroutine starting at another batch and algorithm, so the
// calls hand each composition's idle physical DAG on from one to the next and
// overlap on it. Every Result must equal a fresh session's, bit for bit. The
// SSB session has a database attached, and as many calls again are Runs with
// Analyze: their executors read plans whose DAG a later call may be
// re-costing meanwhile, and every est_cost they report must equal a fresh
// session's. A fourth session, with a result cache that already holds the
// flights' answers, Runs them too: every call arms the DAG it checks out,
// lays it out again and strips it at checkin, while other calls execute
// plans that read the CacheScans armed on it before. What it plans depends
// on what the store holds by then, so its answers' rows are what must equal
// a fresh session's (run under -race).
func TestPhysicalDAGReuseConcurrent(t *testing.T) {
	const sf, goroutines = 0.0005, 8
	db := NewDB(512)
	if err := ssb.LoadDB(db, sf, 1); err != nil {
		t.Fatal(err)
	}
	// Every task runs on its catalog's session: tpcd's tenants, psp, ssb, and
	// ssb with a result cache.
	const cached = 3
	sessions := []func() (*Optimizer, error){
		func() (*Optimizer, error) { return Open(tpcd.TenantCatalog(1, 6)) },
		func() (*Optimizer, error) { return Open(psp.Catalog(1)) },
		func() (*Optimizer, error) { return Open(ssb.Catalog(sf), WithDB(db)) },
		func() (*Optimizer, error) { return Open(ssb.Catalog(sf), WithDB(db), WithResultCache(8<<20, 0)) },
	}
	type task struct {
		name    string
		session int
		queries []*Query
		alg     Algorithm
		run     bool
	}
	var tasks []task
	for _, alg := range Algorithms() {
		tasks = append(tasks, task{"BQ5x6", 0, tpcd.TenantBatch(5, 6), alg, false}, task{"CQ5", 1, psp.CQ(5), alg, false})
		for f := 1; f <= ssb.NumFlights; f++ {
			name := fmt.Sprintf("SSB%d", f)
			tasks = append(tasks, task{name, 2, ssb.Flight(f), alg, false}, task{name + " run", 2, ssb.Flight(f), alg, true},
				task{name + " cached", cached, ssb.Flight(f), alg, true})
		}
	}
	ctx := context.Background()
	do := func(opt *Optimizer, tk task) (string, []QueryResult, error) {
		if !tk.run {
			res, err := opt.OptimizeBatch(ctx, tk.queries, tk.alg)
			if err != nil {
				return "", nil, err
			}
			return memoSignature(res), nil, nil
		}
		res, err := opt.Run(ctx, Batch{Queries: tk.queries, Algorithm: tk.alg, Analyze: true})
		if err != nil {
			return "", nil, err
		}
		if tk.session == cached {
			return "", res.Queries, nil
		}
		var est strings.Builder
		res.Exec.Profile.Visit(func(p *exec.NodeProfile) {
			fmt.Fprintf(&est, "%d:%x ", p.Node, math.Float64bits(p.EstCost))
		})
		return memoSignature(res.Result) + "est_cost " + est.String(), nil, nil
	}

	want, wantRows := make([]string, len(tasks)), make([][]QueryResult, len(tasks))
	for i, tk := range tasks {
		fresh, err := sessions[tk.session]()
		if err != nil {
			t.Fatal(err)
		}
		if want[i], wantRows[i], err = do(fresh, tk); err != nil {
			t.Fatalf("%s %v, fresh session: %v", tk.name, tk.alg, err)
		}
		fresh.Close()
	}
	shared := make([]*Optimizer, len(sessions))
	for i, open := range sessions {
		var err error
		if shared[i], err = open(); err != nil {
			t.Fatal(err)
		}
		defer shared[i].Close()
	}
	// Store the flights' answers, so that every concurrent Run arms its DAG.
	for f := 1; f <= ssb.NumFlights; f++ {
		if _, err := shared[cached].Run(ctx, Batch{Queries: ssb.Flight(f), Algorithm: Greedy}); err != nil {
			t.Fatal(err)
		}
	}
	hits := shared[cached].ResultCacheStats().HitBatches
	reused := physicalReused.Value()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range tasks {
				j := (g*5 + i) % len(tasks)
				tk := tasks[j]
				got, rows, err := do(shared[tk.session], tk)
				if err != nil {
					t.Errorf("goroutine %d, %s %v: %v", g, tk.name, tk.alg, err)
					return
				}
				for i := range rows {
					if !exec.EqualRows(rows[i], wantRows[j][i], 1e-9) {
						t.Errorf("goroutine %d, %s %v, query %d: %d rows differ from a fresh session's %d",
							g, tk.name, tk.alg, i, len(rows[i].Rows), len(wantRows[j][i].Rows))
					}
				}
				if got != want[j] {
					t.Errorf("goroutine %d, %s %v: the shared session's result differs from a fresh session's:\n%s\nwant:\n%s",
						g, tk.name, tk.alg, got, want[j])
				}
			}
		}(g)
	}
	wg.Wait()
	if physicalReused.Value() == reused {
		t.Error("no call re-costed a physical DAG another had searched")
	}
	if shared[cached].ResultCacheStats().HitBatches == hits {
		t.Error("no call read a stored answer")
	}
}

// TestArmedDAGIsNotReused: the second Run of an SSB flight reads answers the
// first stored, so the result cache armed its DAG with CacheScans. The session
// keeps the DAG but not the armed alternatives: the next optimize-only call of
// the composition builds no DAG, and its plan reads nothing from the store and
// equals a fresh session's, physical node count and all.
func TestArmedDAGIsNotReused(t *testing.T) {
	const sf = 0.0005
	db := NewDB(256)
	if err := ssb.LoadDB(db, sf, 1); err != nil {
		t.Fatal(err)
	}
	opt, err := Open(ssb.Catalog(sf), WithDB(db), WithResultCache(8<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer opt.Close()
	ctx, queries := context.Background(), ssb.Flight(1)
	readsStore := func(p *Plan) bool {
		found := false
		p.Root.Walk(func(pn *physical.PlanNode) { found = found || pn.E.Kind == physical.CacheScanOp })
		return found
	}
	var hit *ExecResult
	for i := 0; i < 2; i++ {
		if hit, err = opt.Run(ctx, Batch{Queries: queries, Algorithm: Greedy}); err != nil {
			t.Fatal(err)
		}
	}
	if !readsStore(hit.Plan) {
		t.Fatal("the second Run read nothing from the store: no DAG was armed")
	}
	built := physicalBuilt.Value()
	res, err := opt.OptimizeBatch(ctx, queries, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if got := physicalBuilt.Value() - built; got != 0 {
		t.Errorf("the optimize-only call built %d physical DAGs, want 0: the armed one was not kept", got)
	}
	if readsStore(res.Plan) {
		t.Error("an optimize-only plan reads the store")
	}
	fresh, err := Open(ssb.Catalog(sf))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.OptimizeBatch(ctx, queries, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PhysNodes != want.Stats.PhysNodes {
		t.Errorf("%d physical nodes, a fresh build has %d", res.Stats.PhysNodes, want.Stats.PhysNodes)
	}
	if got, want := memoSignature(res), memoSignature(want); got != want {
		t.Errorf("the result differs from a fresh session's:\n%s\nwant:\n%s", got, want)
	}
}

// TestArmedReplayReusesDAGs: SSB's sixteen drill-down steps, one query a
// batch, are run three times through a session with a result cache and no plan
// cache, and so is flight 1's parameterized drill-down through another, with
// bindings that overlap the first pass's. Pass 1 builds every DAG and stores
// answers; passes 2 and 3 plan over DAGs the store arms. Checkin strips the
// armed alternatives and keeps the DAG, so pass 3 builds none. Each pass-3
// plan must equal one planned over a DAG built aside, armed against the same
// store and aborted — costs, plan-node costs and every armed alternative's
// saving to the bit: the strip must restore the costs Arm reads before it arms
// the DAG again.
func TestArmedReplayReusesDAGs(t *testing.T) {
	const sf = 0.0005
	db := NewDB(256)
	if err := ssb.LoadDB(db, sf, 1); err != nil {
		t.Fatal(err)
	}
	var steps []Batch
	for f := 1; f <= ssb.NumFlights; f++ {
		for _, step := range ssb.DrillDown(f, ssb.MaxDrillSteps) {
			steps = append(steps, Batch{Queries: step, Algorithm: Greedy})
		}
	}
	// Each pass binds months pass 1 stored one of, and another: its plan serves
	// them in part from the store.
	param := Batch{Queries: ssb.DrillParam(2), Algorithm: Greedy}
	months := [][]int64{{1, 2}, {2, 3}, {1, 4}}
	// savings renders the saving of every armed alternative a plan reads.
	savings := func(p *Plan) string {
		var b strings.Builder
		p.Root.Walk(func(pn *physical.PlanNode) {
			if arm := pn.E.Arm; arm != nil {
				fmt.Fprintf(&b, "%d:%s:%x", pn.N.ID, pn.E.Kind, math.Float64bits(arm.Saving))
				for _, bs := range arm.BindScans {
					fmt.Fprintf(&b, ",%s:%x", bs.Bind, math.Float64bits(bs.Saving))
				}
				b.WriteByte(' ')
			}
		})
		return b.String()
	}
	ctx := context.Background()
	read := map[physical.AlgKind]int{}
	for _, batches := range [][]Batch{steps, {param}} {
		// SF 0.01 statistics: over them a binding's answer is worth storing
		// (ssb.DrillParam).
		opt, err := Open(ssb.Catalog(0.01), WithDB(db), WithResultCache(16<<20, 0))
		if err != nil {
			t.Fatal(err)
		}
		store := opt.ResultCache()
		for pass := 1; pass <= 3; pass++ {
			built := physicalBuilt.Value()
			for i, b := range batches {
				if b.Queries[0] == param.Queries[0] {
					b.ParamSets = ssb.DrillParamBindings(months[pass-1]...)
				}
				var want string
				if pass == 3 {
					pd, err := core.BuildDAG(opt.cat, opt.model, b.Queries)
					if err != nil {
						t.Fatal(err)
					}
					ticket := store.Arm(pd, b.ParamSets)
					res, err := core.Optimize(ctx, pd, b.Algorithm, opt.opts)
					ticket.Abort()
					if err != nil {
						t.Fatal(err)
					}
					want = memoSignature(res) + savings(res.Plan)
				}
				er, err := opt.Run(ctx, b)
				if err != nil {
					t.Fatalf("pass %d, batch %d: %v", pass, i, err)
				}
				if pass < 3 {
					continue
				}
				if got := memoSignature(er.Result) + savings(er.Plan); got != want {
					t.Errorf("batch %d: the plan over the reused DAG differs from one over a DAG armed aside:\n%s\nwant:\n%s", i, got, want)
				}
				er.Plan.Root.Walk(func(pn *physical.PlanNode) { read[pn.E.Kind]++ })
			}
			want := int64(0)
			if pass == 1 {
				want = int64(len(batches))
			}
			if got := physicalBuilt.Value() - built; got != want {
				t.Errorf("%d batches, pass %d built %d physical DAGs, want %d", len(batches), pass, got, want)
			}
		}
		opt.Close()
	}
	if read[physical.CacheScanOp] == 0 || read[physical.InvokePartial] == 0 {
		t.Errorf("pass 3 read %d stored answers and %d stored binding sets, want both",
			read[physical.CacheScanOp], read[physical.InvokePartial])
	}
}
