package cache

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/exec"
	"mqo/internal/storage"
)

// paramQuery is a parameterized aggregate over the R⋈S join: the body sums
// R.num over an id window [?lo, ?hi] intersected with thresholds on R.num
// and S.num, wrapped in Invoke so the batch's ParamSets drive it. The
// predicate spans three columns deliberately: eager aggregation only
// decorrelates parameter filters over at most two columns, so the body
// stays a full filter-and-aggregate over the shared join per invocation —
// the regime where caching each binding's one-row result pays.
func paramQuery(times int64) *algebra.Tree {
	j := algebra.JoinT(algebra.ColEq(algebra.Col("R", "fk"), algebra.Col("S", "id")),
		algebra.ScanT("R"), algebra.ScanT("S"))
	base := algebra.SelectT(
		algebra.Cmp(algebra.Col("S", "num"), algebra.GE, algebra.IntVal(20)), j)
	tight := algebra.SelectT(
		algebra.CmpParam(algebra.Col("R", "id"), algebra.GE, "lo").
			And(algebra.CmpParam(algebra.Col("R", "id"), algebra.LE, "hi")).
			And(algebra.CmpParam(algebra.Col("R", "num"), algebra.GE, "nmin")).
			And(algebra.CmpParam(algebra.Col("S", "num"), algebra.LE, "smax")),
		base)
	agg := algebra.AggT(nil,
		[]algebra.AggExpr{{Func: algebra.Sum, Arg: algebra.ColOf("R", "num"), As: algebra.Col("pq", "total")}},
		tight)
	return algebra.NewTree(algebra.Invoke{Times: times}, agg)
}

// windowSets builds one binding per window start: a 50-id window [s, s+49]
// with deterministic per-window num thresholds.
func windowSets(starts ...int64) []map[string]algebra.Value {
	sets := make([]map[string]algebra.Value, len(starts))
	for i, s := range starts {
		sets[i] = map[string]algebra.Value{
			"lo":   algebra.IntVal(s),
			"hi":   algebra.IntVal(s + 49),
			"nmin": algebra.IntVal(1 + s%5),
			"smax": algebra.IntVal(100 - s%7),
		}
	}
	return sets
}

// runParamBatch is runTicket for one parameterized query, returning the
// canonicalized rows plus the optimized plan string.
func runParamBatch(t *testing.T, m *Manager, db *storage.DB, cat *catalog.Catalog,
	q *algebra.Tree, sets []map[string]algebra.Value) ([]string, string) {
	t.Helper()
	results, _, plan, _ := runTicket(t, m, db, cat, []*algebra.Tree{q}, sets)
	var rows []string
	for _, qr := range results {
		rows = append(rows, exec.Canonicalize(qr.Schema, qr.Rows)...)
	}
	return rows, plan.String()
}

// TestBindingAdmissionRace races two batches with overlapping binding sets
// through Arm → PlanSpools → execute → Commit against one store under a
// budget tight enough to force eviction during admission. Run with -race:
// the point is that concurrent per-binding admission, single-flight claiming
// and eviction stay data-race free and the store's accounting stays
// consistent.
func TestBindingAdmissionRace(t *testing.T) {
	db, cat := makeWorld(t)
	// Budget of a few binding entries: concurrent admission has to evict.
	m := newTestStore(t, db, cost.DefaultModel(), 24<<10, 0)
	q := paramQuery(4)

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 6; iter++ {
				// Overlapping windows: goroutine 0 starts at 1, 101, …;
				// goroutine 1 at 51, 151, … — half of each set collides
				// with the other goroutine's previous set.
				base := int64(1 + 50*g + 100*(iter%3))
				sets := windowSets(base, base+100, base+200, base+300)
				runParamBatch(t, m, db, cat, q, sets)
			}
		}(g)
	}
	wg.Wait()

	st := m.Stats()
	if st.BindingAdmissions == 0 {
		t.Fatalf("race workload admitted no binding entries: %+v", st)
	}
	if st.UsedBytes > st.BudgetBytes {
		t.Fatalf("used %d exceeds budget %d", st.UsedBytes, st.BudgetBytes)
	}
}

// TestBindingCacheEquivalence checks the binding cache's correctness
// invariant: with the binding cache on, a parameterized replay returns
// byte-identical rows to the cache-off run, and its second pass is served by
// a partial hit.
func TestBindingCacheEquivalence(t *testing.T) {
	q := paramQuery(4)
	pass1, pass2 := windowSets(1, 101, 201, 301), windowSets(201, 301, 401, 501)

	// Cache-off baseline.
	dbOff, catOff := makeWorld(t)
	off1, _ := runParamBatch(t, nil, dbOff, catOff, q, pass1)
	off2, _ := runParamBatch(t, nil, dbOff, catOff, q, pass2)

	db, cat := makeWorld(t)
	m := newTestStore(t, db, cost.DefaultModel(), 16<<20, 0)
	on1, _ := runParamBatch(t, m, db, cat, q, pass1)
	on2, plan2 := runParamBatch(t, m, db, cat, q, pass2)
	if fmt.Sprint(on1) != fmt.Sprint(off1) {
		t.Fatalf("pass1 rows diverged\non:  %v\noff: %v", on1, off1)
	}
	if fmt.Sprint(on2) != fmt.Sprint(off2) {
		t.Fatalf("pass2 rows diverged\non:  %v\noff: %v", on2, off2)
	}
	if !strings.Contains(plan2, "InvokePartial") {
		t.Fatalf("second pass did not arm a partial hit:\n%s", plan2)
	}
	st := m.Stats()
	if st.BindingPartialHits < 1 || st.BindingHits < 1 {
		t.Fatalf("no binding hits recorded: %+v", st)
	}
}

// TestPinPlanRevalidatesBindings checks that PinPlan rejects a cached plan
// whose InvokePartial node undershoots the store: once a binding that was
// residual when the plan was optimized becomes ready, pinning must fail so
// the caller re-optimizes against the fuller binding summary.
func TestPinPlanRevalidatesBindings(t *testing.T) {
	db, cat := makeWorld(t)
	m := newTestStore(t, db, cost.DefaultModel(), 16<<20, 0)
	model := cost.DefaultModel()
	q := paramQuery(4)

	// Warm two windows, then optimize (without executing) a four-window
	// batch: two bindings arm as cached scans, two stay residual.
	runParamBatch(t, m, db, cat, q, windowSets(1, 101))
	sets := windowSets(1, 101, 201, 301)
	pd, err := core.BuildDAG(cat, model, []*algebra.Tree{q})
	if err != nil {
		t.Fatal(err)
	}
	ticket := m.Arm(pd, sets)
	res, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ticket.Abort()
	if !strings.Contains(res.Plan.String(), "InvokePartial") {
		t.Fatalf("no partial hit armed:\n%s", res.Plan)
	}

	// While the residual set is still unserved, the plan pins fine.
	pin, ok := m.PinPlan(res.Plan)
	if !ok {
		t.Fatal("PinPlan rejected a plan whose residual bindings are still cold")
	}
	pin.Abort()

	// Serve one of the residual windows so its binding becomes ready: the
	// plan now undershoots the store and must be rejected.
	runParamBatch(t, m, db, cat, q, windowSets(201))
	if st := m.Stats(); st.BindingEntries < 3 {
		t.Fatalf("residual window was not admitted: %+v", st)
	}
	if _, ok := m.PinPlan(res.Plan); ok {
		t.Fatal("PinPlan accepted a plan whose residual binding has since become ready")
	}
}

// TestBindingPartialHitPlanAcrossTiers checks that an armed partial hit
// renders the same plan string whether the cached bindings live in RAM or
// in the warm tier: the InvokePartial rendering carries counts only, so
// tier placement (and the tier-aware costing behind it) never leaks into
// plan equality.
func TestBindingPartialHitPlanAcrossTiers(t *testing.T) {
	q := paramQuery(4)
	pass1, pass2 := windowSets(1, 101, 201, 301), windowSets(201, 301, 401, 501)

	planFor := func(demote bool) string {
		db, cat := makeWorld(t)
		m := newTestStore(t, db, cost.DefaultModel(), 16<<20, 16<<20)
		runParamBatch(t, m, db, cat, q, pass1)
		if demote {
			m.SetBudgets(1, 16<<20) // demote every unpinned RAM entry to warm
			m.SetBudgets(16<<20, 16<<20)
		}
		rows, plan := runParamBatch(t, m, db, cat, q, pass2)
		if len(rows) == 0 {
			t.Fatal("no rows")
		}
		if !strings.Contains(plan, "InvokePartial") {
			t.Fatalf("no partial hit armed (demote=%v):\n%s", demote, plan)
		}
		if demote {
			st := m.Stats()
			if st.WarmEntries == 0 {
				t.Fatalf("demotion did not move entries to the warm tier: %+v", st)
			}
		}
		return plan
	}

	ram := planFor(false)
	warm := planFor(true)
	if ram != warm {
		t.Fatalf("partial-hit plan differs across cache tiers:\n--- RAM:\n%s\n--- warm:\n%s", ram, warm)
	}
}
