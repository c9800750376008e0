package mqo

import (
	"container/list"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mqo/internal/ssb"
	"mqo/internal/tpcd"
)

// dagCounts reports how many logical DAGs the memo's entries hold and how
// many it counts.
func (m *memo) dagCounts() (held, counted int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ent := range m.entries {
		if ent.ld != nil {
			held++
		}
	}
	return held, m.nDAGs
}

// lruModel is the reference the session memo is held to: a list of at most
// cap keys, front most recently used, each with a value.
type lruModel[V any] struct {
	cap     int
	order   *list.List // of *lruItem[V]
	byKey   map[string]*list.Element
	evicted int
}

type lruItem[V any] struct {
	key string
	v   V
}

func newLRUModel[V any](n int) *lruModel[V] {
	return &lruModel[V]{cap: n, order: list.New(), byKey: map[string]*list.Element{}}
}

// peek returns key's value, leaving the order alone.
func (m *lruModel[V]) peek(key string) (V, bool) {
	if el, ok := m.byKey[key]; ok {
		return el.Value.(*lruItem[V]).v, true
	}
	var zero V
	return zero, false
}

// use moves key to the front.
func (m *lruModel[V]) use(key string) { m.order.MoveToFront(m.byKey[key]) }

func (m *lruModel[V]) remove(key string) {
	m.order.Remove(m.byKey[key])
	delete(m.byKey, key)
}

// put puts key at the front with value v and drops the least recently used
// keys beyond cap.
func (m *lruModel[V]) put(key string, v V) {
	if _, ok := m.byKey[key]; ok {
		m.remove(key)
	}
	m.byKey[key] = m.order.PushFront(&lruItem[V]{key, v})
	for m.order.Len() > m.cap {
		m.remove(m.order.Back().Value.(*lruItem[V]).key)
		m.evicted++
	}
}

// TestMemoMatchesLRUModel drives one session, with a plan cache of three and
// a result cache, through a seeded random sequence of OptimizeBatch and Run
// calls: more compositions than the session keeps DAGs for, all four
// algorithms, executed batches with and without parameter bindings. After
// every call the session must agree with a reference model of two
// independent LRUs — plans by their full key, DAGs by the batch's trees — on
// the plan cache's hits, misses and entries, and on whether the call hit the
// DAG memo and re-costed an idle physical DAG or built one. What the model
// cannot know by itself it asks the store: the generation a plan is planned
// at and whether a batch admitted anything (its plan is then not cached). A
// DAG the result cache armed goes back idle like any other; the sequence
// must still plan some batches over armed DAGs, which the store's hit
// counts tell. The store's budget is ample, so a table a stored plan reads
// is only evicted when a step shrinks the budget to nothing and back, which
// empties the store.
func TestMemoMatchesLRUModel(t *testing.T) {
	const sf, steps, planCap = 0.0005, 600, 3
	db := NewDB(512)
	if err := ssb.LoadDB(db, sf, 1); err != nil {
		t.Fatal(err)
	}
	opt, err := Open(ssb.Catalog(0.01), WithDB(db), WithPlanCache(planCap), WithResultCache(64<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer opt.Close()
	store := opt.ResultCache()

	type composition struct {
		queries []*Query
		binds   [][]map[string]Value // the binding sets its Runs draw from; nil: none
	}
	var comps []composition
	texts := ssb.AllQuerySQL()
	add := func(text string) {
		qs, err := opt.ParseSQL(text)
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, composition{queries: qs})
	}
	const hot = 4 // comps[:hot] are drawn more often than not
	add(texts[0])
	add(texts[4])
	add(texts[0] + ";" + texts[1])
	comps = append(comps, composition{ssb.DrillParam(2), [][]map[string]Value{
		ssb.DrillParamBindings(1, 2), ssb.DrillParamBindings(2, 3), ssb.DrillParamBindings(3, 1)}})
	for i, text := range texts {
		if i != 0 && i != 4 {
			add(text)
		}
	}
	for i := 1; i < 8; i++ {
		add(texts[i] + ";" + texts[(i+5)%len(texts)])
	}
	if len(comps) <= dagMemoCap {
		t.Fatalf("%d compositions, want more than the %d the memo keeps", len(comps), dagMemoCap)
	}

	type planState struct {
		gen, emptied int64
		stored       bool
	}
	type dagState struct{ idle bool }
	plans, dags := newLRUModel[planState](planCap), newLRUModel[*dagState](dagMemoCap)
	var hits, misses, stale, armedRuns, storedHits, recosted, emptied int64

	ctx, rng := context.Background(), rand.New(rand.NewSource(7))
	for step := 0; step < steps; step++ {
		if rng.Intn(25) == 0 {
			store.SetBudgets(1, 0)
			store.SetBudgets(64<<20, 0)
			emptied++
			continue
		}
		ci := rng.Intn(len(comps))
		if rng.Intn(4) != 0 {
			ci = rng.Intn(hot)
		}
		c, alg := comps[ci], Greedy
		if rng.Intn(4) == 0 {
			alg = Algorithms()[rng.Intn(len(Algorithms()))]
		}
		run, bi := rng.Intn(3) != 0, -1
		var ps []map[string]Value
		if run && c.binds != nil {
			bi = rng.Intn(len(c.binds))
			ps = c.binds[bi]
		}
		trees := fmt.Sprint(ci)
		key := fmt.Sprintf("%s|%v|run=%v|binds=%d", trees, alg, run, bi)
		var rc *ResultCache
		if run {
			rc = store
		}
		gen := rc.Generation()

		// What the model expects of this call.
		var memoHit, memoMiss, reused, built int64
		hit := false
		if p, ok := plans.peek(key); ok {
			if hit = p.gen == gen || p.stored && p.emptied == emptied; hit {
				plans.use(key)
				if p.stored {
					storedHits++
				}
			} else {
				plans.remove(key)
				stale++
			}
		}
		if hit {
			hits++
		} else {
			misses++
			if d, ok := dags.peek(trees); ok {
				dags.use(trees)
				memoHit++
				if d.idle {
					reused++
					recosted++
				} else {
					built++
				}
				d.idle = false
			} else {
				memoMiss++
				built++
				dags.put(trees, &dagState{})
			}
		}

		h0, m0, r0, b0 := dagMemoHit.Value(), dagMemoMiss.Value(), physicalReused.Value(), physicalBuilt.Value()
		before := store.Stats()
		var res *Result
		if run {
			er, err := opt.Run(ctx, Batch{Queries: c.queries, Algorithm: alg, ParamSets: ps})
			if err != nil {
				t.Fatalf("step %d, %s: %v", step, key, err)
			}
			res = er.Result
		} else if res, err = opt.OptimizeBatch(ctx, c.queries, alg); err != nil {
			t.Fatalf("step %d, %s: %v", step, key, err)
		}
		if !hit {
			if d, ok := dags.peek(trees); ok {
				d.idle = true
			}
			after := store.Stats()
			if after.Admissions == before.Admissions {
				plans.put(key, planState{gen, emptied, readsOnlyStored(res.Plan)})
			}
			if after.HitBatches > before.HitBatches {
				armedRuns++ // planned over a DAG the store armed, and read it
			}
		}

		st := opt.CacheStats()
		if st.Hits != hits || st.Misses != misses || st.Entries != plans.order.Len() || st.Cap != planCap {
			t.Fatalf("step %d, %s: plan cache %+v, the model %d hits, %d misses, %d entries", step, key, st, hits, misses, plans.order.Len())
		}
		got := [4]int64{dagMemoHit.Value() - h0, dagMemoMiss.Value() - m0, physicalReused.Value() - r0, physicalBuilt.Value() - b0}
		if want := [4]int64{memoHit, memoMiss, reused, built}; got != want {
			t.Fatalf("step %d, %s: memo hit/miss, physical reused/built %v, the model %v", step, key, got, want)
		}
	}
	t.Logf("%d plan hits (%d stored), %d misses (%d stale), %d plans and %d DAGs evicted, %d DAGs re-costed, %d armed runs",
		hits, storedHits, misses, stale, plans.evicted, dags.evicted, recosted, armedRuns)
	for what, n := range map[string]int{"plan-cache hits": int(hits), "hits on stored plans": int(storedHits),
		"stale plans dropped": int(stale), "plans evicted": plans.evicted, "DAGs evicted": dags.evicted, "physical DAGs re-costed": int(recosted), "armed runs": int(armedRuns)} {
		if n == 0 {
			t.Errorf("the sequence exercised no %s", what)
		}
	}
}

// TestCloseDropsStorePlans: Close drops every plan planned against the
// result-cache store it closes, which no later call could be served again,
// and keeps an optimize-only call's plan, which no store armed.
func TestCloseDropsStorePlans(t *testing.T) {
	const sf = 0.002
	db := NewDB(1024)
	if err := tpcd.LoadDB(db, sf, 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, optimizeOnly := range []bool{false, true} {
		opt, err := Open(tpcd.Catalog(sf), WithDB(db), WithPlanCache(16), WithResultCache(16<<20, 0))
		if err != nil {
			t.Fatal(err)
		}
		if optimizeOnly {
			if _, err := opt.OptimizeSQL(ctx, sqlRevenue, Greedy); err != nil {
				t.Fatal(err)
			}
		}
		// The first Run stores the answer; the second reads it and is cached.
		for range 2 {
			if _, err := opt.Run(ctx, Batch{SQL: sqlRevenue, Algorithm: Greedy}); err != nil {
				t.Fatal(err)
			}
		}
		want := 0
		if optimizeOnly {
			want = 1
		}
		if n := opt.CacheStats().Entries; n != want+1 {
			t.Fatalf("optimize-only plan %v: %d plans before Close, want %d", optimizeOnly, n, want+1)
		}
		opt.Close()
		if n := opt.CacheStats().Entries; n != want {
			t.Errorf("optimize-only plan %v: %d plans after Close, want %d", optimizeOnly, n, want)
		}
		if optimizeOnly {
			hits := opt.CacheStats().Hits
			if _, err := opt.OptimizeSQL(ctx, sqlRevenue, Greedy); err != nil {
				t.Fatal(err)
			}
			if opt.CacheStats().Hits != hits+1 {
				t.Error("the optimize-only plan was not served after Close")
			}
		}
	}
}
