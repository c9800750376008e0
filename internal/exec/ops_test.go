package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/storage"
)

// sliceIter serves rows from memory, for operator unit tests.
type sliceIter struct {
	rows   []storage.Row
	schema algebra.Schema
	pos    int
}

func (s *sliceIter) Open() error { s.pos = 0; return nil }
func (s *sliceIter) Next() (storage.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true, nil
}
func (s *sliceIter) Close() error           { return nil }
func (s *sliceIter) Schema() algebra.Schema { return s.schema }

func intSchema(rel string, cols ...string) algebra.Schema {
	s := make(algebra.Schema, len(cols))
	for i, c := range cols {
		s[i] = algebra.ColInfo{Col: algebra.Col(rel, c), Typ: algebra.TInt}
	}
	return s
}

func intRows(vals ...[]int64) []storage.Row {
	rows := make([]storage.Row, len(vals))
	for i, v := range vals {
		r := make(storage.Row, len(v))
		for j, x := range v {
			r[j] = algebra.IntVal(x)
		}
		rows[i] = r
	}
	return rows
}

// joinSchema is one side of the differential join tests: two numeric key
// columns, a string key, a key that is a string in some rows and a number
// in others, and a payload for residuals.
func joinSchema(rel string) algebra.Schema {
	return intSchema(rel, "a", "b", "s", "m", "v")
}

// floatRows is one row of one float column per value.
func floatRows(fs ...float64) []storage.Row {
	rows := make([]storage.Row, len(fs))
	for i, f := range fs {
		rows[i] = storage.Row{algebra.FloatVal(f)}
	}
	return rows
}

// negNaN is a NaN whose sign and payload are not math.NaN()'s.
var negNaN = math.Float64frombits(0xfff8000000000002)

// joinRows draws rows over small domains, so keys repeat. Column a holds the
// same number as an int, a float or a date, and zero also as -0.0: all of
// these are one key under algebra.Compare. In place of its 3s and 4s it
// sometimes holds +Inf, -Inf or NaN in either of two payloads, every NaN one
// key too.
func joinRows(rng *rand.Rand, n int) []storage.Row {
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), negNaN}
	num := func(k int64) algebra.Value {
		switch rng.Intn(5) {
		case 0:
			return algebra.FloatVal(float64(k))
		case 1:
			return algebra.DateVal(k)
		case 2:
			if k == 0 {
				return algebra.FloatVal(math.Copysign(0, -1))
			}
		case 3:
			if k >= 3 {
				return algebra.FloatVal(specials[rng.Intn(len(specials))])
			}
		}
		return algebra.IntVal(k)
	}
	strs := []string{"", "1", "a", "ab"}
	rows := make([]storage.Row, n)
	for i := range rows {
		m := algebra.IntVal(rng.Int63n(3))
		if rng.Intn(2) == 0 {
			m = algebra.StringVal(strs[rng.Intn(len(strs))])
		}
		rows[i] = storage.Row{num(rng.Int63n(5)), algebra.IntVal(rng.Int63n(3)),
			algebra.StringVal(strs[rng.Intn(len(strs))]), m, algebra.IntVal(rng.Int63n(100))}
	}
	return rows
}

// allPairs is the join the hashed operators must reproduce: every outer row
// against every inner row, in order.
func allPairs(t *testing.T, p algebra.Predicate, ls, rs algebra.Schema, lrows, rrows []storage.Row) []storage.Row {
	t.Helper()
	pred, err := compilePred(p, ls.Concat(rs), &Env{})
	if err != nil {
		t.Fatal(err)
	}
	var out []storage.Row
	for _, l := range lrows {
		for _, r := range rrows {
			row := slices.Concat(l, r)
			keep, err := pred(row)
			if err != nil {
				t.Fatal(err)
			}
			if keep {
				out = append(out, row)
			}
		}
	}
	return out
}

// estimates is a pair of input cardinalities for nlJoin.estimate that makes
// the outer input the smaller one, or the inner.
func estimates(outerSmaller bool) (outerRows, innerRows float64) {
	if outerSmaller {
		return 1, 2
	}
	return 2, 1
}

func mustDrain(t *testing.T, it Iterator) []storage.Row {
	t.Helper()
	rows, err := drain(context.Background(), it)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// sameValues reports whether two rows hold the same values bit for bit: a
// NaN is then equal to itself, and to no NaN of another payload.
func sameValues(a, b storage.Row) bool {
	return slices.EqualFunc(a, b, func(x, y algebra.Value) bool {
		return x.Typ == y.Typ && x.I == y.I && x.S == y.S && math.Float64bits(x.F) == math.Float64bits(y.F)
	})
}

func requireSameOrder(t *testing.T, what string, got, want []storage.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameValues(got[i], want[i]) {
			t.Fatalf("%s: row %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestJoinsMatchAllPairs is the differential test of the join kernels:
// seeded random inputs, either side empty in half the trials, through the
// hashed nlJoin, the plain all-pairs loop above, mergeJoin and Reference.
// nlJoin must give the plain loop's rows in the plain loop's order whichever
// input its estimate has it hold, on a second Open too (Invoke re-runs its
// body); the other two give the same multiset. The keys include NaNs of two
// payloads and infinities, and the test insists that two NaNs of different
// payloads met.
func TestJoinsMatchAllPairs(t *testing.T) {
	joinsMatchAllPairs(t, func(it Iterator) Iterator { return it })
}

// joinsMatchAllPairs runs the test with wrap around every operator.
func joinsMatchAllPairs(t *testing.T, wrap func(Iterator) Iterator) {
	l, r := func(c string) algebra.Column { return algebra.Col("l", c) }, func(c string) algebra.Column { return algebra.Col("r", c) }
	or := func(ps ...algebra.Predicate) algebra.Predicate {
		var cl algebra.Clause
		for _, p := range ps {
			cl.Disj = append(cl.Disj, p.Conj[0].Disj...)
		}
		return algebra.Predicate{Conj: []algebra.Clause{cl}}
	}
	cases := []struct {
		name string
		pred algebra.Predicate
		keys []string // merge-join key columns; none: no merge join
	}{
		{"one key, int/float/date/-0", algebra.ColEq(l("a"), r("a")), []string{"a"}},
		{"operands swapped", algebra.ColEq(r("a"), l("a")), []string{"a"}},
		{"two keys", algebra.ColEq(l("a"), r("a")).And(algebra.ColEq(l("b"), r("b"))), []string{"a", "b"}},
		{"string key", algebra.ColEq(l("s"), r("s")), []string{"s"}},
		{"string or number key", algebra.ColEq(l("m"), r("m")), []string{"m"}},
		{"key and < residual", algebra.ColEq(l("a"), r("a")).And(algebra.ColCmp(l("v"), algebra.LT, r("v"))), []string{"a"}},
		{"key and OR clause", algebra.ColEq(l("b"), r("b")).And(or(algebra.ColEq(l("a"), r("a")),
			algebra.Cmp(l("v"), algebra.LT, algebra.IntVal(20)))), []string{"b"}},
		{"OR of equalities only", or(algebra.ColEq(l("a"), r("a")), algebra.ColEq(l("b"), r("b"))), nil},
		{"no equi conjunct", algebra.ColCmp(l("v"), algebra.LT, r("v")), nil},
		{"cross product", algebra.TruePred(), nil},
	}
	ls, rs := joinSchema("l"), joinSchema("r")
	schema := ls.Concat(rs)
	rng := rand.New(rand.NewSource(5))
	nanPairs := 0
	for _, c := range cases {
		for trial := 0; trial < 12; trial++ {
			lrows, rrows := joinRows(rng, rng.Intn(40)*rng.Intn(2)), joinRows(rng, rng.Intn(40)*rng.Intn(2))
			if trial == 0 {
				lrows, rrows = joinRows(rng, 30), joinRows(rng, 30)
			}
			want := allPairs(t, c.pred, ls, rs, lrows, rrows)
			for _, row := range want {
				if x, y := row[0].F, row[len(ls)].F; c.keys != nil && x != x && y != y && math.Float64bits(x) != math.Float64bits(y) {
					nanPairs++
				}
			}
			what := fmt.Sprintf("%s, trial %d", c.name, trial)

			var nl *nlJoin
			for _, outerSmaller := range []bool{false, true} {
				var err error
				nl, err = newNLJoin(wrap(&sliceIter{rows: lrows, schema: ls}), wrap(&sliceIter{rows: rrows, schema: rs}), c.pred, &Env{})
				if err != nil {
					t.Fatal(err)
				}
				if (len(nl.lKey) > 0) != (c.keys != nil) {
					t.Fatalf("%s: nlJoin keyed on %v", what, nl.lKey)
				}
				nl.estimate(estimates(outerSmaller))
				if nl.holdOuter != (outerSmaller && c.keys != nil) {
					t.Fatalf("%s: outer estimated smaller: %v, keyed on %v, yet holdOuter is %v", what, outerSmaller, nl.lKey, nl.holdOuter)
				}
				what := fmt.Sprintf("%s: nlJoin holding outer: %v", what, nl.holdOuter)
				requireSameOrder(t, what, mustDrain(t, wrap(nl)), want)
				requireSameOrder(t, what+", reopened", mustDrain(t, wrap(nl)), want)
			}

			if c.keys != nil {
				mj := &mergeJoin{pred: nl.pred, schema: schema}
				var lk, rk []algebra.Column
				for _, k := range c.keys {
					lk, rk = append(lk, l(k)), append(rk, r(k))
					mj.lIdx, mj.rIdx = append(mj.lIdx, ls.IndexOf(l(k))), append(mj.rIdx, rs.IndexOf(r(k)))
				}
				mj.left = wrap(&sortIter{child: wrap(&sliceIter{rows: lrows, schema: ls}), cols: lk})
				mj.right = wrap(&sortIter{child: wrap(&sliceIter{rows: rrows, schema: rs}), cols: rk})
				if got := mustDrain(t, wrap(mj)); !EqualRows(QueryResult{schema, got}, QueryResult{schema, want}, 0) {
					t.Fatalf("%s: mergeJoin gave %d rows, all-pairs %d:\n%v\n%v", what, len(got), len(want), got, want)
				}
			}

			db := storage.NewDB(64)
			loadTable(t, db, "l", ls, lrows)
			loadTable(t, db, "r", rs, rrows)
			got, gotSchema, err := Reference(db, algebra.JoinT(c.pred, algebra.ScanT("l"), algebra.ScanT("r")), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !EqualRows(QueryResult{gotSchema, got}, QueryResult{schema, want}, 0) {
				t.Fatalf("%s: Reference gave %d rows, all-pairs %d", what, len(got), len(want))
			}
		}
	}
	if nanPairs == 0 {
		t.Error("no keyed join paired NaNs of two payloads")
	}
}

// TestNLJoinNaNKeys pins the keyed join on NaN keys: algebra.Compare calls
// every NaN equal to every other, whatever its payload, and to no number, so
// a NaN key meets the NaN keys of the other input and nothing else — one
// bucket, as -0 and 0 are one. The rows are the all-pairs loop's whichever
// input is held, and the pairs evaluated, one per row, are pinned.
//
// Over table scans the join gates the input it matches against its buckets,
// which must drop a key the held input lacks, NaN included, and take -0 for
// 0: by the bitmap when the held keys are integral, by hash when one is NaN.
// The rows a gate drops are pinned too.
func TestNLJoinNaNKeys(t *testing.T) {
	ls, rs := intSchema("l", "a"), intSchema("r", "a")
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	pred := algebra.ColEq(algebra.Col("l", "a"), algebra.Col("r", "a"))
	for i, c := range []struct {
		outer, inner   []storage.Row
		pairs, skipped [2]int64 // holding the inner input, holding the outer
	}{
		{floatRows(1, nan, 2), floatRows(2, 1, 1, 3), [2]int64{3, 3}, [2]int64{1, 1}},             // the NaN, then the 3, meet nothing
		{floatRows(1, 2, 4), floatRows(2, nan, 1, 7), [2]int64{2, 2}, [2]int64{1, 2}},             // the 4, then the NaN and the 7
		{floatRows(nan, 1), floatRows(nan, 1), [2]int64{2, 2}, [2]int64{0, 0}},                    // NaN meets NaN
		{floatRows(negNaN, 3, nan), floatRows(nan, 3, negNaN, 5), [2]int64{5, 5}, [2]int64{0, 1}}, // each NaN meets both
		{floatRows(negZero, 3, 0), floatRows(0, 5, negZero), [2]int64{4, 4}, [2]int64{1, 1}},      // the 3, then the 5, meet nothing
	} {
		want := allPairs(t, pred, ls, rs, c.outer, c.inner)
		if int64(len(want)) != c.pairs[0] {
			t.Fatalf("case %d: the all-pairs loop gave %d rows, want %d", i, len(want), c.pairs[0])
		}
		db := storage.NewDB(16)
		ltab, rtab := loadTable(t, db, "l", ls, c.outer), loadTable(t, db, "r", rs, c.inner)
		for _, scanned := range []bool{false, true} {
			for o, outerSmaller := range []bool{false, true} {
				what := fmt.Sprintf("case %d, scanned: %v, holding outer: %v", i, scanned, outerSmaller)
				var left, right Iterator = &sliceIter{rows: c.outer, schema: ls}, &sliceIter{rows: c.inner, schema: rs}
				var lscan, rscan *tableScan
				if scanned {
					lscan, rscan = newTableScan(ltab.Heap, ls, nil), newTableScan(rtab.Heap, rs, nil)
					left, right = lscan, rscan
				}
				nl, err := newNLJoin(left, right, pred, &Env{})
				if err != nil {
					t.Fatal(err)
				}
				nl.estimate(estimates(outerSmaller))
				requireSameOrder(t, what, mustDrain(t, nl), want)
				if nl.pairsEvaluated() != c.pairs[o] {
					t.Errorf("%s: %d pairs evaluated, want %d", what, nl.pairsEvaluated(), c.pairs[o])
				}
				if scanned {
					if skipped := lscan.rowsSkipped() + rscan.rowsSkipped(); skipped != c.skipped[o] {
						t.Errorf("%s: the gates dropped %d rows, want %d", what, skipped, c.skipped[o])
					}
				}
			}
		}
	}
}

// TestMergeJoinNaNKeys: a merge join over two sorts pairs the rows the
// all-pairs loop pairs when keys are NaN, of any payload, or infinite.
// Compare is a total order, so the sorts bring equal keys together and a
// NaN after every number. An order that called NaN equal to every number
// gave 5 rows here where the loop gave 7.
func TestMergeJoinNaNKeys(t *testing.T) {
	ls, rs := intSchema("l", "a"), intSchema("r", "a")
	schema := ls.Concat(rs)
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	pred := algebra.ColEq(algebra.Col("l", "a"), algebra.Col("r", "a"))
	compiled, err := compilePred(pred, schema, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		outer, inner []storage.Row
		rows         int
	}{
		{floatRows(1, nan, 2), floatRows(2, 1, 1, 3), 3},
		{floatRows(nan, 1, negNaN, 2), floatRows(negNaN, 2, nan, 1, nan), 8}, // each NaN meets three
		{floatRows(-inf, inf, 0, nan), floatRows(inf, nan, negZero, -inf, inf), 5},
		{floatRows(3, nan, 1, nan), floatRows(2, 2, 1, 3, nan), 4},
	} {
		want := allPairs(t, pred, ls, rs, c.outer, c.inner)
		mj := &mergeJoin{pred: compiled, schema: schema, lIdx: []int{0}, rIdx: []int{0},
			left:  &sortIter{child: &sliceIter{rows: c.outer, schema: ls}, cols: ls.Columns()},
			right: &sortIter{child: &sliceIter{rows: c.inner, schema: rs}, cols: rs.Columns()}}
		if got := mustDrain(t, mj); !EqualRows(QueryResult{schema, got}, QueryResult{schema, want}, 0) {
			t.Errorf("case %d: mergeJoin gave %d rows, all-pairs %d:\n%v\n%v", i, len(got), len(want), got, want)
		}
		if len(want) != c.rows {
			t.Errorf("case %d: the all-pairs loop gave %d rows, want %d", i, len(want), c.rows)
		}
	}
}

// TestGateKeepsWhatItErrsOn: a Filter's predicate that fails to evaluate — a
// parameter nobody bound — gates the scan below it too; the scan keeps the
// row, so that the Filter reports the error rather than an empty answer.
func TestGateKeepsWhatItErrsOn(t *testing.T) {
	db := storage.NewDB(16)
	schema := intSchema("t", "k")
	tab := loadTable(t, db, "t", schema, intRows([]int64{1}, []int64{2}))
	gated := false
	f, err := newFilter(newTableScan(tab.Heap, schema, nil), algebra.CmpParam(algebra.Col("t", "k"), algebra.EQ, "nobody"),
		NoteGates(&Env{Params: map[string]algebra.Value{}}, func(string) { gated = true }))
	if err != nil || !gated {
		t.Fatal(gated, err)
	}
	if _, err := drain(context.Background(), f); err == nil || !strings.Contains(err.Error(), "unbound parameter") {
		t.Errorf("the filter over its gated scan returned %v, want the unbound parameter", err)
	}
}

// TestNLJoinWithdrawsGatesOnReopen: a gate tests the buckets of the Open that
// set it. The join is opened again — as Invoke does per binding — with its
// held keys changed: the scan then drops the rows of the old keys and keeps
// those of the new. Opened with nothing held, it never opens the scan, and
// must leave no gate of its own on it: every Open withdraws the last one's
// gates first. So too when the gate reached the scan through a join in
// between, on its outer input or, at moved positions, its inner.
func TestNLJoinWithdrawsGatesOnReopen(t *testing.T) {
	pred := algebra.ColEq(algebra.Col("l", "a"), algebra.Col("r", "a"))
	db := storage.NewDB(16)
	scanned := loadTable(t, db, "s", intSchema("s", "a"), floatRows(1, 2, 3, 7))
	for _, through := range []string{"", "outer", "inner"} {
		for _, holdOuter := range []bool{false, true} {
			what := fmt.Sprintf("holding outer: %v, through a join's %q input", holdOuter, through)
			// The held input is in memory and changes between the Opens; the
			// other is the scan.
			held := &sliceIter{schema: intSchema("r", "a")}
			scan := newTableScan(scanned.Heap, intSchema("l", "a"), nil)
			if holdOuter {
				held.schema = intSchema("l", "a")
				scan = newTableScan(scanned.Heap, intSchema("r", "a"), nil)
			}
			var other Iterator = scan
			if through != "" {
				// The join in between keeps every scanned row: its other input
				// has each key once.
				dim := &sliceIter{rows: floatRows(1, 2, 3, 7), schema: intSchema("m", "a")}
				key := algebra.ColEq(scan.Schema()[0].Col, algebra.Col("m", "a"))
				var mid *nlJoin
				var err error
				if through == "outer" {
					mid, err = newNLJoin(scan, dim, key, &Env{})
				} else {
					mid, err = newNLJoin(dim, scan, key, &Env{})
				}
				if err != nil {
					t.Fatal(err)
				}
				other = mid
			}
			var nl *nlJoin
			var err error
			if holdOuter {
				nl, err = newNLJoin(held, other, pred, &Env{})
			} else {
				nl, err = newNLJoin(other, held, pred, &Env{})
			}
			if err != nil {
				t.Fatal(err)
			}
			nl.estimate(estimates(holdOuter))
			gatedByJoin := func() bool {
				return scan.gates != nil && slices.ContainsFunc(scan.gates.owned, func(o ownedGate) bool { return o.by == nl })
			}
			for open, step := range []struct {
				held          []storage.Row
				rows, skipped int64 // skipped: in all, since the first Open
			}{
				{floatRows(1, 2), 2, 2},    // 3 and 7 dropped
				{floatRows(3, 7), 2, 4},    // now 1 and 2
				{nil, 0, 4},                // the scan not opened
				{floatRows(7, 1, 7), 3, 6}, // 2 and 3
			} {
				held.rows = step.held
				got := mustDrain(t, nl)
				if int64(len(got)) != step.rows || scan.rowsSkipped() != step.skipped || nl.gated != step.skipped {
					t.Errorf("%s, open %d: %d rows with %d skipped in all (%d credited to the join), want %d and %d",
						what, open+1, len(got), scan.rowsSkipped(), nl.gated, step.rows, step.skipped)
				}
				if gated := gatedByJoin(); gated != (step.held != nil) {
					t.Errorf("%s, open %d holding %d rows: the scan holds the join's gate: %v", what, open+1, len(step.held), gated)
				}
			}
		}
	}
}

// TestNLJoinOuterMajorOrder joins inputs where every key has many rows on
// both sides, and states the order outright instead of by way of the
// all-pairs loop: outer rows in arrival order, each with its partners in
// theirs, whichever input is held.
func TestNLJoinOuterMajorOrder(t *testing.T) {
	ls, rs := intSchema("l", "k", "seq"), intSchema("r", "k", "seq")
	var lrows, rrows []storage.Row
	for i := int64(0); i < 60; i++ {
		lrows = append(lrows, intRows([]int64{i * 7 % 3, i})...)
	}
	for i := int64(0); i < 200; i++ {
		rrows = append(rrows, intRows([]int64{i * 11 % 4, i})...) // key 3 has no outer row
	}
	pred := algebra.ColEq(algebra.Col("l", "k"), algebra.Col("r", "k"))
	for _, outerSmaller := range []bool{false, true} {
		nl, err := newNLJoin(&sliceIter{rows: lrows, schema: ls}, &sliceIter{rows: rrows, schema: rs}, pred, &Env{})
		if err != nil {
			t.Fatal(err)
		}
		nl.estimate(estimates(outerSmaller))
		got := mustDrain(t, nl)
		if want := 60 * 50; len(got) != want {
			t.Fatalf("holding outer: %v: %d rows, want %d (60 outer rows with 50 partners each)", outerSmaller, len(got), want)
		}
		for i, r := range got {
			if r[0].I != r[2].I {
				t.Fatalf("holding outer: %v: row %d joins keys %d and %d", outerSmaller, i, r[0].I, r[2].I)
			}
			if i == 0 {
				continue
			}
			if p := got[i-1]; r[1].I < p[1].I || (r[1].I == p[1].I && r[3].I <= p[3].I) {
				t.Fatalf("holding outer: %v: row %d is (outer %d, inner %d) after (outer %d, inner %d)",
					outerSmaller, i, r[1].I, r[3].I, p[1].I, p[3].I)
			}
		}
	}
}

// TestJoinProbeAllocatesOnlyOutput probes a keyed join whose every pair
// reaches the predicate and fails its residual: nothing may be allocated,
// an output row being the only thing a probe ever allocates.
func TestJoinProbeAllocatesOnlyOutput(t *testing.T) {
	ls, rs := intSchema("l", "k", "v"), intSchema("r", "k", "v")
	var lrows, rrows []storage.Row
	for i := int64(0); i < 64; i++ {
		lrows = append(lrows, intRows([]int64{i % 8, 100})...)
		rrows = append(rrows, intRows([]int64{i % 8, i})...)
	}
	left := &sliceIter{rows: lrows, schema: ls}
	pred := algebra.ColEq(algebra.Col("l", "k"), algebra.Col("r", "k")).
		And(algebra.ColCmp(algebra.Col("l", "v"), algebra.LT, algebra.Col("r", "v")))
	nl, err := newNLJoin(left, &sliceIter{rows: rrows, schema: rs}, pred, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	if err := nl.Open(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		left.pos = 0
		if _, ok, err := nl.Next(); ok || err != nil {
			t.Fatalf("probe returned a row (%v) or failed: %v", ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("a probe with no output allocated %v times", allocs)
	}
	if want := int64(11 * 64 * 8); nl.pairsEvaluated() != want {
		t.Errorf("evaluated %d pairs, want %d (64 outer rows x 8-row buckets x 11 runs)", nl.pairsEvaluated(), want)
	}
}

// TestPrunedScanAllocatesPerSlab scans four numeric columns of the wide fact
// table: the skipped strings are never built and the rows of every page are
// decoded into the one slab, so a scan of 16 000 rows allocates its cursor
// and one page of rows, whatever the table's length — not the table. (The
// rows are checked, not kept; keeping them is the consumer's allocation.) It
// also holds the scan to its result, the four columns of every row in file
// order, and a second Open — what Invoke does per binding — to starting over
// from the first row in the slab of the first.
func TestPrunedScanAllocatesPerSlab(t *testing.T) {
	const n = 16000
	db := storage.NewDB(1024)
	fs, rows := factSchema(), factRows(n)
	tab := loadTable(t, db, "f", fs, rows)
	need := factNeed("custkey", "suppkey", "orderdate", "revenue")
	pull := func(scan *tableScan) {
		if err := scan.Open(); err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			r, ok, err := scan.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if i != n {
					t.Fatalf("scanned %d rows, want %d", i, n)
				}
				break
			}
			if full := rows[i]; !slices.Equal(r, storage.Row{full[2], full[4], full[5], full[12]}) {
				t.Fatalf("row %d: %v; stored %v", i, r, full)
			}
		}
		if err := scan.Close(); err != nil {
			t.Fatal(err)
		}
	}
	scan := newTableScan(tab.Heap, fs, need)
	if want := intSchema("f", "custkey", "suppkey", "orderdate", "revenue").Columns(); !slices.Equal(scan.Schema().Columns(), want) {
		t.Fatalf("schema %v, want %v", scan.Schema(), want)
	}
	fresh := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			pull(newTableScan(tab.Heap, fs, need))
		}
	})
	if got, limit := fresh.AllocedBytesPerOp(), int64(4*storage.PageSize); got > limit {
		t.Errorf("a scan of %d rows (%d pages) allocates %d bytes, want at most %d: four pages",
			n, tab.Heap.NumPages(), got, limit)
	}
	pull(scan)
	if again := testing.AllocsPerRun(3, func() { pull(scan) }); again != 0 {
		t.Errorf("a re-opened scan allocated %v times, want its first pass's slab reused", again)
	}
}

// TestNLJoinSizesBufferFromScan: a scan knows how many rows it has still to
// deliver, so the join that buffers them all — the one whose inner input is
// the smaller — allocates its arrays and its arena's slab once instead of
// growing them, and alike when a profiled run wraps the scan.
func TestNLJoinSizesBufferFromScan(t *testing.T) {
	const n = 5000
	db := storage.NewDB(512)
	fs := factSchema()
	tab := loadTable(t, db, "f", fs, factRows(n))
	pred := algebra.ColEq(algebra.Col("l", "k"), algebra.Col("f", "custkey"))
	for _, traced := range []bool{false, true} {
		var right Iterator = newTableScan(tab.Heap, fs, factNeed("custkey"))
		if traced {
			right = newStatIter(right, &NodeProfile{}, &profiler{})
		}
		nl, err := newNLJoin(&sliceIter{schema: intSchema("l", "k")}, right, pred, &Env{})
		if err != nil {
			t.Fatal(err)
		}
		nl.estimate(estimates(false))
		if err := nl.Open(); err != nil {
			t.Fatal(err)
		}
		// Sized once, the arrays exceed n by a size class's rounding at most;
		// grown by append they would end a growth step above it.
		if len(nl.inner) != n || cap(nl.inner) > n+n/16 || cap(nl.slot) > n+n/16 || cap(nl.arena.slab) > n+n/16 {
			t.Errorf("traced=%v: %d rows buffered in arrays of %d rows and %d slots and a slab of %d values, want about %d each",
				traced, len(nl.inner), cap(nl.inner), cap(nl.slot), cap(nl.arena.slab), n)
		}
	}
}

// TestNLJoinKeepsOnlyMatches: a join that holds a 10-row outer input keeps, of
// a 5000-row scanned inner, the rows with one of those ten keys — its storage
// ends Open a growth step above the matches at most, not sized by what the
// scan has to deliver — and gives the rows the other order gives.
func TestNLJoinKeepsOnlyMatches(t *testing.T) {
	const n = 5000
	db := storage.NewDB(512)
	fs, frows := factSchema(), factRows(n)
	tab := loadTable(t, db, "f", fs, frows)
	ls := intSchema("l", "k")
	var lrows []storage.Row
	for k := int64(0); k < 10; k++ {
		lrows = append(lrows, intRows([]int64{k * 300})...)
	}
	matches := 0
	for _, f := range frows {
		if f[factCustKey].I%300 == 0 {
			matches++
		}
	}
	pred := algebra.ColEq(algebra.Col("l", "k"), algebra.Col("f", "custkey"))
	join := func(traced, outerSmaller bool) *nlJoin {
		var right Iterator = newTableScan(tab.Heap, fs, factNeed("custkey", "orderkey"))
		if traced {
			right = newStatIter(right, &NodeProfile{}, &profiler{})
		}
		nl, err := newNLJoin(&sliceIter{rows: lrows, schema: ls}, right, pred, &Env{})
		if err != nil {
			t.Fatal(err)
		}
		nl.estimate(estimates(outerSmaller))
		return nl
	}
	want := mustDrain(t, join(false, false))
	if len(want) != matches || matches < 10 {
		t.Fatalf("%d rows joined, %d fact rows have one of the keys", len(want), matches)
	}
	for _, traced := range []bool{false, true} {
		nl := join(traced, true)
		if err := nl.Open(); err != nil {
			t.Fatal(err)
		}
		// Grown by append and by doubling slabs, the storage ends a growth
		// step and a size class's rounding above what it holds at most; sized
		// by the scan's count it would be n rows.
		if limit := 3 * matches; len(nl.outer) != 10 || len(nl.inner) != matches || cap(nl.inner) > limit ||
			cap(nl.slot) > limit || cap(nl.bucketed) > limit || cap(nl.arena.slab) > 2*limit {
			t.Errorf("traced=%v: %d outer and %d inner rows held in arrays of %d rows, %d slots and %d bucketed and a slab of %d values, want %d rows and under %d each (two values a row)",
				traced, len(nl.outer), len(nl.inner), cap(nl.inner), cap(nl.slot), cap(nl.bucketed), cap(nl.arena.slab), matches, limit)
		}
		if got := int64(10 + matches); nl.rowsKept() != got {
			t.Errorf("traced=%v: %d rows kept, want %d", traced, nl.rowsKept(), got)
		}
		if err := nl.Close(); err != nil {
			t.Fatal(err)
		}
		requireSameOrder(t, fmt.Sprintf("traced=%v", traced), mustDrain(t, nl), want)
	}
}

// cancelIter cancels a context when its at-th row is pulled.
type cancelIter struct {
	sliceIter
	at     int
	cancel context.CancelFunc
}

func (c *cancelIter) Next() (storage.Row, bool, error) {
	if c.pos == c.at {
		c.cancel()
	}
	return c.sliceIter.Next()
}

// TestBlockingOperatorsStopWhenCancelled: a join buffering either of its
// inputs and a sort pull a whole input inside Open, an aggregate a whole group
// — for a scalar one the whole input — inside one Next, and a filter or a
// gated scan that drops every row the whole of a table, where drain's own
// check does not reach; each must return the context's error within
// drainCheckEvery rows of the cancellation instead of finishing the input.
func TestBlockingOperatorsStopWhenCancelled(t *testing.T) {
	const n, at = 10 * drainCheckEvery, 3*drainCheckEvery + 17
	schema := intSchema("t", "k", "g")
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{algebra.IntVal(int64(i)), algebra.IntVal(7)}
	}
	count := []algebra.AggExpr{{Func: algebra.CountAll, As: algebra.Col("", "n")}}
	agg := func(ctx context.Context, big Iterator, groupBy ...algebra.Column) Iterator {
		a, err := newSortAgg(big, groupBy, count, nil)
		if err != nil {
			t.Fatal(err)
		}
		a.poll.ctx = ctx
		return a
	}
	few := &sliceIter{rows: rows[:5], schema: intSchema("s", "k")}
	pred := algebra.ColEq(algebra.Col("s", "k"), algebra.Col("t", "k"))
	for _, c := range []struct {
		name string
		op   func(ctx context.Context, big Iterator) Iterator
	}{
		{"join buffering its inner input", func(ctx context.Context, big Iterator) Iterator {
			nl, err := newNLJoin(few, big, pred, &Env{})
			if err != nil {
				t.Fatal(err)
			}
			nl.poll.ctx = ctx
			return nl
		}},
		{"join holding its outer input, filtering the inner", func(ctx context.Context, big Iterator) Iterator {
			nl, err := newNLJoin(few, big, pred, &Env{})
			if err != nil {
				t.Fatal(err)
			}
			nl.poll.ctx = ctx
			nl.estimate(estimates(true))
			return nl
		}},
		{"join holding its outer input", func(ctx context.Context, big Iterator) Iterator {
			nl, err := newNLJoin(big, few, algebra.ColEq(algebra.Col("t", "k"), algebra.Col("s", "k")), &Env{})
			if err != nil {
				t.Fatal(err)
			}
			nl.poll.ctx = ctx
			nl.estimate(estimates(true))
			return nl
		}},
		{"sort", func(ctx context.Context, big Iterator) Iterator {
			return &sortIter{child: big, cols: schema.Columns(), poll: ctxPoll{ctx: ctx}}
		}},
		{"scalar aggregate", func(ctx context.Context, big Iterator) Iterator {
			return agg(ctx, big)
		}},
		{"aggregate over one long group", func(ctx context.Context, big Iterator) Iterator {
			return agg(ctx, big, algebra.Col("t", "g"))
		}},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		big := &cancelIter{sliceIter: sliceIter{rows: rows, schema: schema}, at: at, cancel: cancel}
		it := c.op(ctx, big)
		err := it.Open()
		if err == nil {
			_, _, err = it.Next()
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Open and the first Next returned %v, want context.Canceled", c.name, err)
		}
		if big.pos < at || big.pos > at+drainCheckEvery {
			t.Errorf("%s: %d rows pulled, cancelled at row %d of %d: want at most %d more", c.name, big.pos, at, n, drainCheckEvery)
		}
		cancel()
	}

	// A Next that drops rows runs on inside one call as long as nothing
	// passes: a filter over its whole input, a scan over every page its gate
	// empties.
	db := storage.NewDB(16)
	tab := loadTable(t, db, "t", schema, rows)
	if pages := tab.Heap.NumPages(); pages < 20 {
		t.Fatalf("the table has %d pages, want many", pages)
	}
	for _, c := range []struct {
		name string
		op   func(ctx context.Context, drop predFunc) Iterator
	}{
		{"filter dropping every row", func(ctx context.Context, drop predFunc) Iterator {
			return &filterIter{child: newTableScan(tab.Heap, schema, nil), pred: drop, poll: ctxPoll{ctx: ctx}}
		}},
		{"scan whose gate drops every row", func(ctx context.Context, drop predFunc) Iterator {
			s := newTableScan(tab.Heap, schema, nil)
			s.poll.ctx = ctx
			setGate(s, t, &gate{cols: []int{0}, test: drop})
			return s
		}},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		tested := 0
		it := c.op(ctx, func(storage.Row) (bool, error) {
			if tested++; tested == at {
				cancel()
			}
			return false, nil
		})
		if err := it.Open(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := it.Next(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: the first Next returned %v, want context.Canceled", c.name, err)
		}
		if tested < at || tested > at+drainCheckEvery {
			t.Errorf("%s: %d rows tested, cancelled at row %d of %d: want at most %d more", c.name, tested, at, n, drainCheckEvery)
		}
		cancel()
	}
}

// TestGatedScanBuffersUnknown: a scan knows how many rows it has still to
// deliver until a gate is set; then the rows its cursor has still to examine
// are only an upper bound, which a consumer would size its storage by as if
// exact, so the scan reports 0, "unknown", until the gate is withdrawn.
func TestGatedScanBuffersUnknown(t *testing.T) {
	const n = 2000
	db := storage.NewDB(256)
	fs := factSchema()
	tab := loadTable(t, db, "f", fs, factRows(n))
	scan := newTableScan(tab.Heap, fs, factNeed("custkey", "quantity"))
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	traced := newStatIter(scan, &NodeProfile{}, &profiler{})
	if got := bufferedRows(traced); got != n {
		t.Fatalf("an ungated scan promises %d rows, want %d", got, n)
	}
	tenth := &gate{cols: []int{1}, test: func(r storage.Row) (bool, error) { return r[1].I%10 == 0, nil }}
	if !setGate(traced, t, tenth) {
		t.Fatal("the scan refused a gate")
	}
	if got := bufferedRows(traced); got != 0 {
		t.Errorf("a gated scan promises %d rows, want 0 (unknown)", got)
	}
	rows := mustDrain(t, traced)
	if len(rows) != n/10 || scan.cur.Remaining() != 0 || scan.rowsSkipped() != n-n/10 {
		t.Errorf("the gated scan delivered %d rows and skipped %d, %d left; want %d, %d and 0",
			len(rows), scan.rowsSkipped(), scan.cur.Remaining(), n/10, n-n/10)
	}
	setGate(traced, t, nil)
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	if got := bufferedRows(traced); got != n {
		t.Errorf("with its gate withdrawn the scan promises %d rows, want %d", got, n)
	}
	if rows := mustDrain(t, traced); len(rows) != n {
		t.Errorf("with its gate withdrawn the scan delivered %d rows, want %d", len(rows), n)
	}
}

// TestAnalyzeShowsJoinPairs pins NodeProfile.Pairs and Kept on a small join:
// four outer rows against a three-row inner are 12 predicate evaluations with
// no key to hash on, and one per key match with one; the inner rows are the
// ones kept, and where the outer input is held instead, its four rows and the
// inner rows with one of their keys, which here is all three.
func TestAnalyzeShowsJoinPairs(t *testing.T) {
	ls, rs := intSchema("l", "k"), intSchema("r", "k")
	lrows, rrows := intRows([]int64{1}, []int64{2}, []int64{2}, []int64{9}), intRows([]int64{2}, []int64{1}, []int64{2})
	for _, c := range []struct {
		pred              algebra.Predicate
		outerSmaller      bool
		rows, pairs, kept int64
	}{
		{algebra.ColEq(algebra.Col("l", "k"), algebra.Col("r", "k")), false, 5, 5, 3},
		{algebra.ColEq(algebra.Col("l", "k"), algebra.Col("r", "k")), true, 5, 5, 7},
		{algebra.ColCmp(algebra.Col("l", "k"), algebra.LE, algebra.Col("r", "k")), true, 7, 12, 3},
	} {
		nl, err := newNLJoin(&sliceIter{rows: lrows, schema: ls}, &sliceIter{rows: rrows, schema: rs}, c.pred, &Env{})
		if err != nil {
			t.Fatal(err)
		}
		nl.estimate(estimates(c.outerSmaller))
		p := &NodeProfile{Op: "BNLJoin"}
		mustDrain(t, newStatIter(nl, p, &profiler{}))
		if p.Rows != c.rows || p.Pairs != c.pairs || p.Kept != c.kept {
			t.Errorf("%v: rows=%d pairs=%d kept=%d, want %d, %d and %d", c.pred, p.Rows, p.Pairs, p.Kept, c.rows, c.pairs, c.kept)
		}
		text := FormatAnalyze(RunStats{Profile: &BatchProfile{Queries: []*NodeProfile{p}}})
		if want := fmt.Sprintf("actual rows=%d pairs=%d kept=%d ", c.rows, c.pairs, c.kept); !strings.Contains(text, want) {
			t.Errorf("FormatAnalyze lacks %q:\n%s", want, text)
		}
	}
}

func TestSortIterOrdersAndIsStable(t *testing.T) {
	schema := intSchema("t", "k", "seq")
	rows := intRows([]int64{3, 0}, []int64{1, 1}, []int64{3, 2}, []int64{1, 3}, []int64{2, 4})
	s := &sortIter{child: &sliceIter{rows: rows, schema: schema}, cols: []algebra.Column{algebra.Col("t", "k")}}
	out, err := drain(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	wantK := []int64{1, 1, 2, 3, 3}
	wantSeq := []int64{1, 3, 4, 0, 2} // stability: original order within equal keys
	for i := range out {
		if out[i][0].I != wantK[i] || out[i][1].I != wantSeq[i] {
			t.Fatalf("sorted[%d] = %v, want k=%d seq=%d", i, out[i], wantK[i], wantSeq[i])
		}
	}
}

func TestAggStateFunctions(t *testing.T) {
	schema := intSchema("t", "v")
	rows := intRows([]int64{4}, []int64{1}, []int64{7})
	arg, _ := compileScalar(algebra.ColOf("t", "v"), schema, &Env{})
	cases := []struct {
		fn   algebra.AggFunc
		want float64
	}{
		{algebra.Sum, 12}, {algebra.CountAll, 3}, {algebra.Min, 1}, {algebra.Max, 7}, {algebra.Avg, 4},
	}
	for _, c := range cases {
		st := aggState{fn: c.fn, arg: arg}
		for _, r := range rows {
			if err := st.add(r); err != nil {
				t.Fatal(err)
			}
		}
		if got := st.result().AsFloat(); got != c.want {
			t.Errorf("%v = %v, want %v", c.fn, got, c.want)
		}
	}
}

func TestInvokeIterRunsPerBinding(t *testing.T) {
	invokeRunsPerBinding(t, func(it Iterator) Iterator { return it })
}

func invokeRunsPerBinding(t *testing.T, wrap func(Iterator) Iterator) {
	schema := intSchema("t", "v")
	env := &Env{
		Params: map[string]algebra.Value{},
		ParamSets: []map[string]algebra.Value{
			{"k": algebra.IntVal(1)},
			{"k": algebra.IntVal(2)},
			{"k": algebra.IntVal(2)},
		},
	}
	pred, err := compilePred(algebra.CmpParam(algebra.Col("t", "v"), algebra.EQ, "k"), schema, env)
	if err != nil {
		t.Fatal(err)
	}
	child := wrap(&filterIter{
		child: wrap(&sliceIter{rows: intRows([]int64{1}, []int64{2}, []int64{3}), schema: schema}),
		pred:  pred,
	})
	iv := &invokeIter{child: child, env: env}
	out, err := drain(context.Background(), wrap(iv))
	if err != nil {
		t.Fatal(err)
	}
	// One match for k=1, one each for the two k=2 bindings.
	requireSameOrder(t, "invoke", out, intRows([]int64{1}, []int64{2}, []int64{2}))
}

func TestProjectComputesExpressions(t *testing.T) {
	schema := intSchema("t", "a", "b")
	expr := algebra.BinExpr{Op: algebra.Mul, L: algebra.ColOf("t", "a"),
		R: algebra.BinExpr{Op: algebra.Sub, L: algebra.ConstOf(algebra.FloatVal(1)), R: algebra.ColOf("t", "b")}}
	f, err := compileScalar(expr, schema, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	p := &projectIter{
		child:  &sliceIter{rows: intRows([]int64{10, 0}, []int64{10, 1}), schema: schema},
		funcs:  []valueFunc{f},
		schema: algebra.Schema{{Col: algebra.Col("q", "x"), Typ: algebra.TFloat}},
	}
	out, err := drain(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0].AsFloat() != 10 || out[1][0].AsFloat() != 0 {
		t.Errorf("project results wrong: %v", out)
	}
}

func TestDivisionByZeroFails(t *testing.T) {
	schema := intSchema("t", "a")
	f, err := compileScalar(algebra.BinExpr{Op: algebra.Div,
		L: algebra.ColOf("t", "a"), R: algebra.ConstOf(algebra.IntVal(0))}, schema, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f(storage.Row{algebra.IntVal(1)}); err == nil {
		t.Error("division by zero should fail")
	}
}

func TestUnboundParameterFails(t *testing.T) {
	schema := intSchema("t", "a")
	env := &Env{Params: map[string]algebra.Value{}}
	pred, err := compilePred(algebra.CmpParam(algebra.Col("t", "a"), algebra.EQ, "missing"), schema, env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pred(storage.Row{algebra.IntVal(1)}); err == nil {
		t.Error("unbound parameter should fail at evaluation")
	}
}

func TestUnknownColumnFailsAtCompile(t *testing.T) {
	schema := intSchema("t", "a")
	if _, err := compileScalar(algebra.ColOf("t", "ghost"), schema, &Env{}); err == nil {
		t.Error("unknown column should fail at compile time")
	}
}

// TestImpliesSoundness cross-checks the algebra's Implies against actual
// predicate evaluation: whenever p.Implies(q), any row satisfying p must
// satisfy q. Constants and rows include NaN, -0, ±Inf and a non-integral
// float, and the rows a string: under an order that called NaN equal to
// every number, a NaN row passed a = 2 and failed a < 5.
func TestImpliesSoundness(t *testing.T) {
	schema := intSchema("t", "a")
	col := algebra.Col("t", "a")
	ops := []algebra.CmpOp{algebra.EQ, algebra.NE, algebra.LT, algebra.LE, algebra.GT, algebra.GE}
	floats := []algebra.Value{algebra.FloatVal(math.NaN()), algebra.FloatVal(negNaN), algebra.FloatVal(math.Copysign(0, -1)),
		algebra.FloatVal(math.Inf(1)), algebra.FloatVal(math.Inf(-1)), algebra.FloatVal(2.5)}
	rows := append(slices.Clone(floats), algebra.StringVal("x"))
	for v := int64(-2); v < 24; v++ {
		rows = append(rows, algebra.IntVal(v))
	}
	rng := rand.New(rand.NewSource(17))
	constant := func() algebra.Value {
		if rng.Intn(4) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return algebra.IntVal(rng.Int63n(20))
	}
	for trial := 0; trial < 4000; trial++ {
		p := algebra.Cmp(col, ops[rng.Intn(len(ops))], constant())
		q := algebra.Cmp(col, ops[rng.Intn(len(ops))], constant())
		if !p.Implies(q) {
			continue
		}
		pf, _ := compilePred(p, schema, &Env{})
		qf, _ := compilePred(q, schema, &Env{})
		for _, v := range rows {
			row := storage.Row{v}
			pv, _ := pf(row)
			qv, _ := qf(row)
			if pv && !qv {
				t.Fatalf("Implies unsound: %v implies %v but row a=%v satisfies only the former", p, q, v)
			}
		}
	}
}

// TestCloseBeforeOpen: a join whose held input came out empty never opens its
// other one, and closes it all the same, so closing an operator that was
// never opened must be safe for every operator.
func TestCloseBeforeOpen(t *testing.T) {
	ls, rs := intSchema("l", "k"), intSchema("r", "k")
	rows := intRows([]int64{1}, []int64{2})
	src := func(s algebra.Schema) Iterator { return &sliceIter{rows: rows, schema: s} }
	db := storage.NewDB(16)
	tab := loadTable(t, db, "l", ls, rows)
	pred := algebra.ColEq(algebra.Col("l", "k"), algebra.Col("r", "k"))
	filter, err := newFilter(newTableScan(tab.Heap, ls, nil), algebra.Cmp(algebra.Col("l", "k"), algebra.GT, algebra.IntVal(1)), &Env{})
	if err != nil {
		t.Fatal(err)
	}
	nl, err := newNLJoin(src(ls), newTableScan(tab.Heap, rs, nil), pred, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := newSortAgg(src(ls), nil, []algebra.AggExpr{{Func: algebra.CountAll, As: algebra.Col("", "n")}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range []Iterator{
		newTableScan(tab.Heap, ls, nil),
		filter,
		&projectIter{child: src(ls)},
		&sortIter{child: src(ls), cols: ls.Columns()},
		nl,
		&mergeJoin{left: src(ls), right: src(rs)},
		&indexJoin{outer: src(ls)},
		&indexSelect{},
		agg,
		&invokeIter{child: src(ls), env: &Env{}},
		newStatIter(src(ls), &NodeProfile{}, &profiler{}),
		spoil(src(ls)),
	} {
		if err := it.Close(); err != nil {
			t.Errorf("%T: Close before Open: %v", it, err)
		}
	}
}
