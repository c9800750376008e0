package exec

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/storage"
)

// starCase is one data set of the star-join differential: the keys a fact
// row holds for each of the three dimensions, and each dimension's keys.
// keys, where set, is how a join holding dimension d must test keys: a
// "bitmap" or a "hash".
type starCase struct {
	name string
	fact func(i int) [3]algebra.Value
	dims [3][]algebra.Value
	keys [3]string
}

const starFactRows = 240

// starFact is the fact table: the three keys and a payload v = i % 100,
// alone or spread over 70 columns, the last key past the 64th. A key
// column's declared type is a label only: each value carries its own, and
// the typed cases mix them.
func starFact(keys func(i int) [3]algebra.Value, wide bool) (algebra.Schema, []storage.Row) {
	at := [4]int{0, 1, 2, 3} // k1, k2, k3, v
	width := 4
	if wide {
		at, width = [4]int{5, 40, 67, 69}, 70
	}
	schema := make(algebra.Schema, width)
	for c := range schema {
		schema[c] = algebra.ColInfo{Col: algebra.Col("f", fmt.Sprint("c", c)), Typ: algebra.TInt}
	}
	for k, name := range []string{"k1", "k2", "k3"} {
		schema[at[k]] = algebra.ColInfo{Col: algebra.Col("f", name), Typ: algebra.TFloat}
	}
	schema[at[3]].Col = algebra.Col("f", "v")
	var rows []storage.Row
	for i := range starFactRows {
		if keys == nil {
			break
		}
		r := make(storage.Row, width)
		for c := range r {
			r[c] = algebra.IntVal(int64(i*1000 + c))
		}
		for k, key := range keys(i) {
			r[at[k]] = key
		}
		r[at[3]] = algebra.IntVal(int64(i % 100))
		rows = append(rows, r)
	}
	return schema, rows
}

// starDim is dimension d: its keys and a payload w = j % 4.
func starDim(d int, keys []algebra.Value) (algebra.Schema, []storage.Row) {
	rel := fmt.Sprint("d", d+1)
	schema := algebra.Schema{{Col: algebra.Col(rel, "k"), Typ: algebra.TFloat}, {Col: algebra.Col(rel, "w"), Typ: algebra.TInt}}
	rows := make([]storage.Row, len(keys))
	for j, k := range keys {
		rows[j] = storage.Row{k, algebra.IntVal(int64(j % 4))}
	}
	return schema, rows
}

// keysOf is keys made values by mk: algebra.IntVal, FloatVal or DateVal.
func keysOf[T any](mk func(T) algebra.Value, keys ...T) []algebra.Value {
	out := make([]algebra.Value, len(keys))
	for i, k := range keys {
		out[i] = mk(k)
	}
	return out
}

// floatFact is a fact table whose keys are all floats.
func floatFact(keys func(i int) [3]float64) func(i int) [3]algebra.Value {
	return func(i int) [3]algebra.Value {
		k := keys(i)
		return [3]algebra.Value{algebra.FloatVal(k[0]), algebra.FloatVal(k[1]), algebra.FloatVal(k[2])}
	}
}

func starCases() []starCase {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	floats := func(k ...float64) []algebra.Value { return keysOf(algebra.FloatVal, k...) }
	ints := func(k ...int64) []algebra.Value { return keysOf(algebra.IntVal, k...) }
	dates := func(k ...int64) []algebra.Value { return keysOf(algebra.DateVal, k...) }
	plain := func(i int) [3]float64 { return [3]float64{float64(i % 9), float64(i * 7 % 11), float64(i * 5 % 13)} }
	plainFact := floatFact(plain)
	plainDims := [3][]algebra.Value{floats(0, 1, 2, 3, 4, 5, 3), floats(2, 3, 4, 5, 6, 7, 8, 9, 10), floats(0, 2, 4, 6, 8, 10, 12)}
	with := func(d int, keys []algebra.Value) [3][]algebra.Value {
		dims := plainDims
		dims[d] = keys
		return dims
	}
	// typedFact gives k1 as an int, k2 as a float and k3 as a date, each then
	// changed by edit.
	typedFact := func(edit func(i int, k *[3]algebra.Value)) func(i int) [3]algebra.Value {
		return func(i int) [3]algebra.Value {
			p := plain(i)
			k := [3]algebra.Value{algebra.IntVal(int64(p[0])), algebra.FloatVal(p[1]), algebra.DateVal(int64(p[2]))}
			if edit != nil {
				edit(i, &k)
			}
			return k
		}
	}
	const exact = 1<<53 - 1 // the largest int a bitmap may hold
	return []starCase{
		{name: "plain", fact: plainFact, dims: plainDims, keys: [3]string{"bitmap", "bitmap", "bitmap"}},
		// NaN keys meet NaN keys of any payload, and only them; an infinity
		// meets itself.
		{name: "NaN, infinities and signed zeros", fact: floatFact(func(i int) [3]float64 {
			k := plain(i)
			switch {
			case i%17 == 0:
				k[0] = nan
			case i%13 == 0:
				k[0] = -inf
			}
			switch {
			case i%19 == 0:
				k[1] = negZero
			case i%11 == 0:
				k[1] = negNaN
			case i%29 == 0:
				k[1] = inf
			}
			if i%23 == 0 {
				k[2] = nan
			}
			return k
		}), dims: [3][]algebra.Value{floats(negZero, 1, 2, 3, nan, -inf), floats(0, 3, nan, 5, inf, negNaN), floats(negZero, 4, 8)},
			keys: [3]string{"hash", "hash", "bitmap"}},
		{name: "a dimension of NaN keys alone", fact: floatFact(func(i int) [3]float64 {
			k := plain(i)
			if i%3 == 0 {
				k[1] = negNaN
			}
			return k
		}), dims: with(1, floats(nan, negNaN)), keys: [3]string{"", "hash", ""}},
		{name: "no fact rows", dims: plainDims},
		{name: "dimension 1 empty", fact: plainFact, dims: with(0, nil)},
		{name: "dimension 2 empty", fact: plainFact, dims: with(1, nil)},
		{name: "dimension 3 empty", fact: plainFact, dims: with(2, nil)},
		// Typed keys: an int, a float and a date on the fact side, each
		// meeting another type or its own on the dimension's.
		{name: "ints meet floats, 5.0 meets 5", fact: typedFact(nil),
			dims: [3][]algebra.Value{floats(0, 1, 5, 3, 7, 8), ints(2, 3, 5, 6, 7, 9, 10, 11), dates(0, 4, 8, 12, 5)},
			keys: [3]string{"bitmap", "bitmap", "bitmap"}},
		{name: "mixed types on both sides", fact: typedFact(func(i int, k *[3]algebra.Value) {
			if i%2 == 0 {
				k[0] = algebra.FloatVal(float64(k[0].I))
				k[1] = algebra.IntVal(int64(k[1].F))
				k[2] = algebra.IntVal(k[2].I)
			}
		}), dims: [3][]algebra.Value{{algebra.IntVal(1), algebra.FloatVal(2), algebra.DateVal(3), algebra.IntVal(5)},
			{algebra.FloatVal(4), algebra.IntVal(5), algebra.DateVal(7), algebra.FloatVal(9), algebra.IntVal(10)},
			{algebra.DateVal(2), algebra.FloatVal(6), algebra.IntVal(10)}},
			keys: [3]string{"bitmap", "bitmap", "bitmap"}},
		{name: "non-integral floats", fact: typedFact(func(i int, k *[3]algebra.Value) {
			if i%3 == 0 {
				k[0] = algebra.FloatVal(float64(k[0].I) + 0.5)
				k[1] = algebra.FloatVal(k[1].F + 0.25)
			}
		}), dims: [3][]algebra.Value{ints(1, 2, 3, 4), floats(2.25, 3, 4, 5.25, 6), ints(0, 5, 10)},
			keys: [3]string{"bitmap", "hash", "bitmap"}},
		{name: "NaN and -0 probing typed keys", fact: typedFact(func(i int, k *[3]algebra.Value) {
			switch i % 7 {
			case 0:
				k[0], k[2] = algebra.FloatVal(nan), algebra.FloatVal(negZero)
			case 1:
				k[1] = algebra.FloatVal(negZero)
			case 2:
				k[0] = algebra.FloatVal(negZero)
			}
		}), dims: [3][]algebra.Value{ints(0, 2, 4), {algebra.FloatVal(negZero), algebra.IntVal(3), algebra.IntVal(8)}, dates(1, 0, 7)},
			keys: [3]string{"bitmap", "bitmap", "bitmap"}},
		{name: "the edges of 2^53", fact: typedFact(func(i int, k *[3]algebra.Value) {
			switch i % 5 {
			case 0:
				k[0], k[1], k[2] = algebra.IntVal(exact), algebra.FloatVal(-exact), algebra.IntVal(1<<53+1)
			case 1:
				k[0], k[1], k[2] = algebra.FloatVal(1<<53), algebra.IntVal(-exact), algebra.FloatVal(1<<53)
			case 2:
				k[0], k[1], k[2] = algebra.IntVal(1<<53), algebra.IntVal(-exact-1), algebra.IntVal(1<<53)
			case 3:
				k[0], k[1] = algebra.IntVal(1<<53+1), algebra.FloatVal(-exact-1)
			}
		}), dims: [3][]algebra.Value{ints(exact, exact-1, exact-2), ints(-exact, -exact+2), ints(1 << 53)},
			keys: [3]string{"bitmap", "bitmap", "hash"}},
		{name: "MinInt64 and MaxInt64 probes", fact: typedFact(func(i int, k *[3]algebra.Value) {
			switch i % 4 {
			case 0:
				k[0], k[1], k[2] = algebra.IntVal(math.MinInt64), algebra.IntVal(math.MaxInt64), algebra.DateVal(math.MinInt64)
			case 1:
				k[0], k[1], k[2] = algebra.IntVal(math.MaxInt64), algebra.IntVal(math.MinInt64), algebra.DateVal(math.MaxInt64)
			case 2:
				k[0], k[1] = algebra.FloatVal(math.MaxInt64), algebra.FloatVal(math.Inf(-1))
			}
		}), dims: [3][]algebra.Value{ints(-3, 0, 2, 5), ints(3, 4, 7, 9), dates(-8, 0, 4, 12)},
			keys: [3]string{"bitmap", "bitmap", "bitmap"}},
		{name: "a sparse range falls back to the hash", fact: typedFact(func(i int, k *[3]algebra.Value) {
			if i%6 == 0 {
				k[0] = algebra.IntVal(1 << 40)
			}
		}), dims: [3][]algebra.Value{ints(0, 1, 3, 1<<40), ints(2, 3, 4, 5), dates(0, 4, bitsPerRow*3+bitsSlack+1)},
			keys: [3]string{"hash", "bitmap", "hash"}},
		{name: "strings probe numeric keys", fact: typedFact(func(i int, k *[3]algebra.Value) {
			if i%3 == 0 {
				k[0] = algebra.StringVal("1")
			}
			if i%5 == 0 {
				k[2] = algebra.StringVal("")
			}
		}), dims: [3][]algebra.Value{ints(1, 2, bitsPerRow*3+bitsSlack), floats(3, 4, 5), dates(0, 4, 8)},
			keys: [3]string{"bitmap", "bitmap", "bitmap"}},
		{name: "strings held", fact: typedFact(func(i int, k *[3]algebra.Value) {
			if i%3 == 0 {
				k[0] = algebra.StringVal("a")
			}
		}), dims: [3][]algebra.Value{{algebra.StringVal("a"), algebra.IntVal(1), algebra.IntVal(2)}, floats(3, 4), dates(0, 4)},
			keys: [3]string{"hash", "bitmap", "bitmap"}},
	}
}

// starShape is one plan of the star join ((f ⋈ d1) ⋈ d2) ⋈ d3 under a Filter
// on f.v, d2 filtered on w: at each level, the join's operator, whether the
// fact side is the outer (left) input and whether a BNLJoin holds its outer
// input.
type starShape struct {
	kind                [3]joinKind
	factLeft, holdOuter [3]bool
}

// joinKind is the operator of one level of a star join.
type joinKind uint8

const (
	bnl     joinKind = iota // nlJoin
	merge                   // mergeJoin over a sort of each input
	indexed                 // indexJoin of the fact side probing the dimension's B-tree
)

func (s starShape) String() string {
	return fmt.Sprintf("kinds %v, fact left %v, holding outer %v", s.kind, s.factLeft, s.holdOuter)
}

// starShapes is every choice of sides over BNLJoins, then every mix of the
// three operators with at least one other than a BNLJoin: an indexJoin has
// the fact side outer, the other levels alternate.
func starShapes() []starShape {
	var out []starShape
	for m := range 64 {
		var s starShape
		for l := range 3 {
			s.factLeft[l], s.holdOuter[l] = m>>l&1 == 0, m>>(l+3)&1 == 1
		}
		out = append(out, s)
	}
	for m := 1; m < 27; m++ {
		var s starShape
		for l, k := 0, m; l < 3; l, k = l+1, k/3 {
			s.kind[l] = joinKind(k % 3)
			s.factLeft[l] = s.kind[l] == indexed || (m+l)%2 == 0
			s.holdOuter[l] = m>>l&1 == 1
		}
		out = append(out, s)
	}
	return out
}

var (
	starTop  = algebra.Cmp(algebra.Col("f", "v"), algebra.LT, algebra.IntVal(90))
	starDim2 = algebra.Cmp(algebra.Col("d2", "w"), algebra.LT, algebra.IntVal(3))
)

func starPred(l int) algebra.Predicate {
	return algebra.ColEq(algebra.Col("f", fmt.Sprint("k", l+1)), algebra.Col(fmt.Sprint("d", l+1), "k"))
}

// starTree is the shape's query, for Reference.
func starTree(s starShape) *algebra.Tree {
	t := algebra.ScanT("f")
	for l := range 3 {
		dim := algebra.ScanT(fmt.Sprint("d", l+1))
		if l == 1 {
			dim = algebra.SelectT(starDim2, dim)
		}
		if s.factLeft[l] {
			t = algebra.JoinT(starPred(l), t, dim)
		} else {
			t = algebra.JoinT(starPred(l), dim, t)
		}
	}
	return algebra.SelectT(starTop, t)
}

// starPlan builds the shape's operators over gated table scans of db's
// tables, each wrapped by wrap and fed by fed's passes (nil: reading alone),
// and returns the top one and the BNLJoins from the bottom up, nil at a level
// of another operator.
func starPlan(t *testing.T, db *storage.DB, s starShape, env *Env, wrap func(Iterator) Iterator, fed *sched) (Iterator, [3]*nlJoin) {
	t.Helper()
	table := func(name string) *storage.Table {
		tab, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	scan := func(name string) Iterator {
		tab := table(name)
		return wrap(newScan(nil, fed, tab.Heap, tab.Schema, nil))
	}
	var joins [3]*nlJoin
	cur := scan("f")
	for l := range 3 {
		fk, dk := algebra.Col("f", fmt.Sprint("k", l+1)), algebra.Col(fmt.Sprint("d", l+1), "k")
		if s.kind[l] == indexed {
			// The probe reads the dimension's rows unfiltered, so d2's filter
			// joins the predicate.
			tab := table(fmt.Sprint("d", l+1))
			idx, err := db.EnsureIndex(tab, "k")
			if err != nil {
				t.Fatal(err)
			}
			j := &indexJoin{outer: cur, inner: newIndexedSource(tab.Heap, db.Pool, idx, tab.Schema, nil)}
			j.schema = cur.Schema().Concat(j.inner.schema)
			p := starPred(l)
			if l == 1 {
				p = p.And(starDim2)
			}
			if j.pred, err = compilePred(p, j.schema, env); err != nil {
				t.Fatal(err)
			}
			if j.keyFn, err = compileScalar(algebra.ColExpr{C: fk}, cur.Schema(), env); err != nil {
				t.Fatal(err)
			}
			cur = wrap(j)
			continue
		}
		dim := scan(fmt.Sprint("d", l+1))
		if l == 1 {
			f, err := newFilter(dim, starDim2, env)
			if err != nil {
				t.Fatal(err)
			}
			dim = wrap(f)
		}
		left, right := cur, dim
		lk, rk := fk, dk
		if !s.factLeft[l] {
			left, right, lk, rk = dim, cur, dk, fk
		}
		if s.kind[l] == merge {
			j := &mergeJoin{schema: left.Schema().Concat(right.Schema()),
				lIdx: []int{left.Schema().IndexOf(lk)}, rIdx: []int{right.Schema().IndexOf(rk)},
				left:  wrap(sortOn(left, lk)),
				right: wrap(sortOn(right, rk))}
			var err error
			if j.pred, err = compilePred(starPred(l), j.schema, env); err != nil {
				t.Fatal(err)
			}
			cur = wrap(j)
			continue
		}
		j, err := newNLJoin(left, right, starPred(l), env)
		if err != nil {
			t.Fatal(err)
		}
		j.estimate(estimates(s.holdOuter[l]))
		joins[l], cur = j, wrap(j)
	}
	top, err := newFilter(cur, starTop, env)
	if err != nil {
		t.Fatal(err)
	}
	return wrap(top), joins
}

// starDB loads a case's tables.
func starDB(t *testing.T, c starCase, wide bool) *storage.DB {
	db := storage.NewDB(16) // the fact table is several times the pool
	fs, frows := starFact(c.fact, wide)
	loadTable(t, db, "f", fs, frows)
	for d, keys := range c.dims {
		ds, drows := starDim(d, keys)
		loadTable(t, db, fmt.Sprint("d", d+1), ds, drows)
	}
	return db
}

// TestStarJoinsMatchReference is the differential test of gates that travel
// through joins: star joins three levels deep over gated table scans, under
// every choice at each level of which side the fact rows come from and
// which input is held, and under mixes of BNLJoin, MergeJoin over Sorts and
// IndexJoin, over NaN keys of two payloads, infinities and signed zeros, a
// dimension of NaN keys alone, an empty input at each level, and a fact table
// wider than 64 columns, each plan opened twice. The typed cases meet int,
// date and float keys across and within types, at the edges of the bitmap's
// key test (keyBits): 5.0 against 5, non-integral floats, NaN and -0 on
// either side, ±(2^53-1) and 2^53 against 2^53+1, MinInt64 and MaxInt64
// probes, a sparse range and one at the bound, strings probing or held. The
// answers are compared with EqualRows, which tells NaN from ±Inf where
// Canonicalize's rounding does not. Every answer must be the reference's, and a join
// holding a dimension must test its keys as the case says. The test insists
// it forwarded a gate, skipped a join whose held input was empty and gated by
// a bitmap. It runs again with every row spoiled the moment it lapses, and
// throughout with the pools operators keep rows in poisoned (PoisonReleases).
func TestStarJoinsMatchReference(t *testing.T) {
	PoisonReleases(t)
	t.Run("plain", func(t *testing.T) { starJoinsMatchReference(t, func(it Iterator) Iterator { return it }) })
	t.Run("spoiled", func(t *testing.T) { starJoinsMatchReference(t, spoil) })
}

func starJoinsMatchReference(t *testing.T, wrap func(Iterator) Iterator) {
	crossed := map[string]bool{}
	env := NoteGates(&Env{}, func(kind string) { crossed[kind] = true })
	for _, c := range starCases() {
		for _, wide := range []bool{false, true} {
			db := starDB(t, c, wide)
			reference := map[[3]bool]QueryResult{} // by factLeft, all the tree depends on
			for _, s := range starShapes() {
				want, ok := reference[s.factLeft]
				if !ok {
					rows, schema, err := Reference(db, starTree(s), nil)
					if err != nil {
						t.Fatal(err)
					}
					want = QueryResult{schema, rows}
					reference[s.factLeft] = want
				}
				top, joins := starPlan(t, db, s, env, wrap, nil)
				for open := 1; open <= 2; open++ {
					if got := mustDrain(t, top); !EqualRows(QueryResult{top.Schema(), got}, want, 0) {
						t.Fatalf("%s, wide %v, %v, open %d: %d rows, want the reference's %d",
							c.name, wide, s, open, len(got), len(want.Rows))
					}
					for l, j := range joins {
						// The join holds the dimension when the fact side is
						// the outer input and it holds the inner, or the
						// reverse.
						if want := c.keys[l]; j != nil && want != "" && s.factLeft[l] != s.holdOuter[l] && j.keyTest() != want {
							t.Fatalf("%s, %v: join %d holding its dimension tests keys by %s, want %s",
								c.name, s, l+1, j.keyTest(), want)
						}
					}
				}
			}
		}
	}
	for _, kind := range []string{"Filter gate", "BNLJoin streamed-side gate", "BNLJoin holdOuter gate",
		"forwarded gate", "BNLJoin empty held side", "BNLJoin key bitmap"} {
		if !crossed[kind] {
			t.Errorf("no plan crossed %s", kind)
		}
	}
}

// TestStarJoinGatesReachTheFactScan: in a star join whose joins all stream
// the fact side, every join's key test and the Filter's test above them reach
// the fact scan, which decodes only the rows all four keep, and each row it
// drops is credited to the one operator whose test fails it.
func TestStarJoinGatesReachTheFactScan(t *testing.T) {
	missing := func(i int) int { // the dimension lacking row i's key, -1 for none
		if i%100 >= 90 || i%10 > 3 { // the Filter's rows keep all their keys
			return -1
		}
		return i%10 - 1
	}
	db := starDB(t, starCase{fact: floatFact(func(i int) [3]float64 {
		k := [3]float64{1, 1, 1}
		if d := missing(i); d >= 0 {
			k[d] = 2
		}
		return k
	}), dims: [3][]algebra.Value{keysOf(algebra.FloatVal, 1), keysOf(algebra.FloatVal, 1), keysOf(algebra.FloatVal, 1)}}, true)
	var want, filtered int
	var drops [3]int64
	for i := range starFactRows {
		switch d := missing(i); {
		case i%100 >= 90:
			filtered++
		case d >= 0:
			drops[d]++
		default:
			want++
		}
	}
	top, joins := starPlan(t, db, starShape{factLeft: [3]bool{true, true, true}}, &Env{}, func(it Iterator) Iterator { return it }, nil)
	if rows := mustDrain(t, top); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	scan := joins[0].left.(*tableScan)
	if skipped := scan.rowsSkipped(); skipped != int64(starFactRows-want) {
		t.Errorf("the fact scan skipped %d rows, want all %d the query drops", skipped, starFactRows-want)
	}
	if got := top.(*filterIter).gated; got != int64(filtered) {
		t.Errorf("the Filter was credited with %d drops, want %d", got, filtered)
	}
	for l, j := range joins {
		if j.gated != drops[l] {
			t.Errorf("join %d was credited with %d drops, want the %d rows whose key its dimension lacks", l+1, j.gated, drops[l])
		}
		if j.pairsEvaluated() != int64(want) {
			t.Errorf("join %d evaluated %d pairs, want one per row kept, %d", l+1, j.pairsEvaluated(), want)
		}
	}
}

// TestKeyBitsMatchesCompare is the property test of the bitmap alone: over
// seeded sets of held keys — ints, dates and floats near 0, near ±2^53 and
// spread thin or wide, some with a non-integral, NaN, string or too large
// key — it builds exactly when every key is an integral number below 2^53
// and the range is within the bound, stays within the bound, and then
// answers every probe as "some held key Compares equal", probes of every
// type included. One keyBits is rebuilt throughout, as a join re-Opened is.
func TestKeyBitsMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 53))
	const exact = 1<<53 - 1
	specials := []int64{math.MinInt64, math.MaxInt64, exact, -exact, exact + 1, -exact - 1, exact + 2, -exact - 2}
	centers := []int64{0, -700, exact - 20, -exact + 20, 1 << 40}
	spreads := []int64{3, 60, 3000, 1 << 20}
	value := func(center, spread int64, clean bool) algebra.Value {
		k := center + rng.Int64N(2*spread+1) - spread
		kind := rng.IntN(12)
		if clean {
			kind = 4 + rng.IntN(8)
		}
		switch kind {
		case 0:
			return algebra.FloatVal(float64(k) + 0.5)
		case 1:
			return algebra.FloatVal(math.NaN())
		case 2:
			return algebra.StringVal(fmt.Sprint(k))
		case 3:
			return algebra.IntVal(specials[rng.IntN(len(specials))])
		case 4:
			return algebra.FloatVal(math.Copysign(0, -1))
		case 5, 6:
			return algebra.FloatVal(float64(k))
		case 7:
			return algebra.DateVal(k)
		}
		return algebra.IntVal(k)
	}
	var b keyBits
	built := 0
	for trial := range 3000 {
		center, spread := centers[rng.IntN(len(centers))], spreads[rng.IntN(len(spreads))]
		clean := rng.IntN(5) > 0
		held := make([]storage.Row, 1+rng.IntN(40))
		exactAll, lo, hi := true, math.Inf(1), math.Inf(-1)
		for i := range held {
			v := value(center, spread, clean && i > 0 || rng.IntN(20) > 0)
			held[i] = storage.Row{algebra.StringVal("payload"), v}
			f := v.AsFloat()
			exactAll = exactAll && v.IsNumeric() && f == math.Trunc(f) && math.Abs(f) < 1<<53
			lo, hi = math.Min(lo, f), math.Max(hi, f)
		}
		want := exactAll && hi-lo+1 <= float64(bitsPerRow*len(held)+bitsSlack)
		if got := b.build(held, 1); got != want {
			t.Fatalf("trial %d: built %v over %v, want %v", trial, got, held, want)
		}
		if !want {
			continue
		}
		built++
		if bits := len(b.words) * 64; bits > bitsPerRow*len(held)+bitsSlack+63 {
			t.Fatalf("trial %d: %d bits for %d held keys", trial, bits, len(held))
		}
		for range 200 {
			p := value(center, 2*spread, rng.IntN(3) > 0)
			if rng.IntN(4) == 0 {
				p = held[rng.IntN(len(held))][1]
				if p.Typ == algebra.TFloat {
					p = algebra.IntVal(int64(p.F))
				} else {
					p = algebra.FloatVal(float64(p.I))
				}
			}
			oracle := false
			for _, h := range held {
				oracle = oracle || algebra.Compare(p, h[1]) == 0
			}
			if got := b.has(&p); got != oracle {
				t.Fatalf("trial %d: has(%v) = %v over held %v, want %v", trial, p, got, held, oracle)
			}
		}
	}
	if built < 600 {
		t.Fatalf("only %d of the trials built a bitmap", built)
	}
}
