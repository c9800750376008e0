package mqo

import (
	"context"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/tpcd"
)

// treesKey is the memo key of queries as a string.
func (c *stmtCache) treesKey(queries []*Query) string {
	k := c.key(queries)
	defer k.release()
	return string(k.b)
}

// constComparison returns the first comparison against a constant in t,
// depth first, as a pointer into the tree's own predicate: writing through
// it changes the tree in place.
func constComparison(t *Query) *algebra.Comparison {
	var preds []algebra.Predicate
	switch o := t.Op.(type) {
	case algebra.Select:
		preds = append(preds, o.Pred)
	case algebra.Join:
		preds = append(preds, o.Pred)
	}
	for _, p := range preds {
		for i := range p.Conj {
			for j := range p.Conj[i].Disj {
				if _, ok := p.Conj[i].Disj[j].R.(algebra.ConstExpr); ok {
					return &p.Conj[i].Disj[j]
				}
			}
		}
	}
	for _, in := range t.Inputs {
		if c := constComparison(in); c != nil {
			return c
		}
	}
	return nil
}

// firstJoin returns the first join in t, depth first.
func firstJoin(t *Query) *Query {
	if _, ok := t.Op.(algebra.Join); ok {
		return t
	}
	for _, in := range t.Inputs {
		if j := firstJoin(in); j != nil {
			return j
		}
	}
	return nil
}

// TestMutatedTreeMissesTheMemo: the memo keys a caller's trees by what they
// render on each call, never by where they are. A session optimizes a batch
// of trees, the caller changes one tree in place — a predicate's constant,
// then the order of a join's inputs — and optimizes the same pointers again:
// each time every algorithm must miss the plan cache and the DAG memo, and
// return what a fresh session returns for the changed trees, cost bits
// included. A key cached on a tree's pointer would return the old DAG's plan.
func TestMutatedTreeMissesTheMemo(t *testing.T) {
	ctx := context.Background()
	cat := tpcd.Catalog(1)
	opt, err := Open(cat, WithPlanCache(64))
	if err != nil {
		t.Fatal(err)
	}
	queries := tpcd.BatchQueries(3)
	for _, alg := range Algorithms() {
		for range 2 { // a miss, then a hit on the unchanged trees
			if _, err := opt.OptimizeBatch(ctx, queries, alg); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s := opt.CacheStats(); s.Hits != 4 || s.Misses != 4 {
		t.Fatalf("unchanged trees: stats %+v, want 4 hits and 4 misses", s)
	}

	cmp := constComparison(queries[0])
	if cmp == nil {
		t.Fatal("BQ3's first query has no comparison against a constant")
	}
	join := firstJoin(queries[len(queries)-1])
	if join == nil {
		t.Fatal("BQ3's last query has no join")
	}
	for _, m := range []struct {
		name   string
		mutate func()
	}{
		{"a predicate constant", func() {
			v := cmp.R.(algebra.ConstExpr).V
			v.I, v.F, v.S = v.I+1, v.F+1, v.S+"!"
			cmp.R = algebra.ConstExpr{V: v}
		}},
		{"a join's inputs", func() { join.Inputs[0], join.Inputs[1] = join.Inputs[1], join.Inputs[0] }},
	} {
		before := opt.stmts.treesKey(queries)
		m.mutate()
		if opt.stmts.treesKey(queries) == before {
			t.Fatalf("%s: the changed trees render the key they had", m.name)
		}
		fresh, err := Open(cat)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range Algorithms() {
			stats, dagMisses := opt.CacheStats(), dagMemoMiss.Value()
			got, err := opt.OptimizeBatch(ctx, queries, alg)
			if err != nil {
				t.Fatal(err)
			}
			s := opt.CacheStats()
			if s.Misses != stats.Misses+1 || s.Hits != stats.Hits {
				t.Errorf("%s, %v: plan cache %+v after %+v, want one more miss", m.name, alg, s, stats)
			}
			// The first algorithm on the changed trees expands their DAG;
			// the rest find it.
			want := int64(0)
			if alg == Algorithms()[0] {
				want = 1
			}
			if d := dagMemoMiss.Value() - dagMisses; d != want {
				t.Errorf("%s, %v: %d DAG memo misses, want %d", m.name, alg, d, want)
			}
			ref, err := fresh.OptimizeBatch(ctx, queries, alg)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := memoSignature(got), memoSignature(ref); g != w {
				t.Errorf("%s, %v: the session's result differs from a fresh session's\n got %s\nwant %s", m.name, alg, g, w)
			}
		}
		fresh.Close()
	}
}

// TestMemoKeyLookupAllocatesNothing: looking up a composition the session
// holds — rendering its key into a reused buffer and finding the entry —
// allocates nothing, for trees compiled from SQL (kept fingerprints) and a
// caller's trees (rendered on every call), one query and many.
func TestMemoKeyLookupAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	opt, err := Open(tpcd.Catalog(1), WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	compiled, _, err := opt.compile(sqlBatch)
	if err != nil {
		t.Fatal(err)
	}
	caller := tpcd.BatchQueries(5)
	for _, c := range []struct {
		name    string
		queries []*Query
	}{
		{"one compiled query", compiled[:1]},
		{"two compiled queries", compiled},
		{"one caller tree", caller[:1]},
		{"BQ5 as caller trees", caller},
	} {
		if _, err := opt.OptimizeBatch(ctx, c.queries, Greedy); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			k := opt.stmts.key(c.queries)
			found, _ := opt.memo.peek(k.b, planKey{alg: Greedy})
			k.release()
			if !found {
				t.Fatalf("%s: the session holds no plan for the composition", c.name)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a memo-key lookup allocates %.0f times, want 0", c.name, allocs)
		}
	}
}
