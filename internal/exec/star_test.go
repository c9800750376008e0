package exec

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/storage"
)

// starCase is one data set of the star-join differential: the keys a fact
// row holds for each of the three dimensions, and each dimension's keys.
type starCase struct {
	name string
	fact func(i int) [3]float64
	dims [3][]float64
}

const starFactRows = 240

// starFact is the fact table: the three keys and a payload v = i % 100,
// alone or spread over 70 columns, the last key past the 64th.
func starFact(keys func(i int) [3]float64, wide bool) (algebra.Schema, []storage.Row) {
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
			r[at[k]] = algebra.FloatVal(key)
		}
		r[at[3]] = algebra.IntVal(int64(i % 100))
		rows = append(rows, r)
	}
	return schema, rows
}

// starDim is dimension d: its keys and a payload w = j % 4.
func starDim(d int, keys []float64) (algebra.Schema, []storage.Row) {
	rel := fmt.Sprint("d", d+1)
	schema := algebra.Schema{{Col: algebra.Col(rel, "k"), Typ: algebra.TFloat}, {Col: algebra.Col(rel, "w"), Typ: algebra.TInt}}
	rows := make([]storage.Row, len(keys))
	for j, k := range keys {
		rows[j] = storage.Row{algebra.FloatVal(k), algebra.IntVal(int64(j % 4))}
	}
	return schema, rows
}

func starCases() []starCase {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	plainFact := func(i int) [3]float64 { return [3]float64{float64(i % 9), float64(i * 7 % 11), float64(i * 5 % 13)} }
	plainDims := [3][]float64{{0, 1, 2, 3, 4, 5, 3}, {2, 3, 4, 5, 6, 7, 8, 9, 10}, {0, 2, 4, 6, 8, 10, 12}}
	with := func(d int, keys []float64) [3][]float64 {
		dims := plainDims
		dims[d] = keys
		return dims
	}
	return []starCase{
		{"plain", plainFact, plainDims},
		{"NaN and signed zeros", func(i int) [3]float64 {
			k := plainFact(i)
			if i%17 == 0 {
				k[0] = nan
			}
			if i%19 == 0 {
				k[1] = negZero
			}
			if i%23 == 0 {
				k[2] = nan
			}
			return k
		}, [3][]float64{{negZero, 1, 2, 3}, {0, 3, nan, 5}, {negZero, 4, 8}}},
		{"a dimension of NaN keys alone", plainFact, with(1, []float64{nan, nan})},
		{"no fact rows", nil, plainDims},
		{"dimension 1 empty", plainFact, with(0, nil)},
		{"dimension 2 empty", plainFact, with(1, nil)},
		{"dimension 3 empty", plainFact, with(2, nil)},
	}
}

// starShape is one plan of the star join ((f ⋈ d1) ⋈ d2) ⋈ d3 under a Filter
// on f.v, d2 filtered on w: at each level, whether the fact side is the
// outer (left) input and whether the join holds its outer input.
type starShape struct{ factLeft, holdOuter [3]bool }

func (s starShape) String() string {
	return fmt.Sprintf("fact left %v, holding outer %v", s.factLeft, s.holdOuter)
}

func starShapes() []starShape {
	var out []starShape
	for m := range 64 {
		var s starShape
		for l := range 3 {
			s.factLeft[l], s.holdOuter[l] = m>>l&1 == 0, m>>(l+3)&1 == 1
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
// tables, each wrapped by wrap, and returns the top one and the joins from
// the bottom up.
func starPlan(t *testing.T, db *storage.DB, s starShape, env *Env, wrap func(Iterator) Iterator) (Iterator, [3]*nlJoin) {
	t.Helper()
	scan := func(name string) Iterator {
		tab, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		return wrap(newTableScan(tab.Heap, tab.Schema, nil))
	}
	var joins [3]*nlJoin
	cur := scan("f")
	for l := range 3 {
		dim := scan(fmt.Sprint("d", l+1))
		if l == 1 {
			f, err := newFilter(dim, starDim2, env)
			if err != nil {
				t.Fatal(err)
			}
			dim = wrap(f)
		}
		left, right := cur, dim
		if !s.factLeft[l] {
			left, right = dim, cur
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
// which input is held, over NaN and signed-zero keys, a dimension of NaN
// keys alone (whose join has no bucket table, yet rows), an empty input at
// each level, and a fact table wider than 64 columns, each plan opened
// twice. Every answer must be the reference's. The test insists it forwarded
// a gate and skipped a join whose held input was empty. It runs again with
// every row spoiled the moment it lapses.
func TestStarJoinsMatchReference(t *testing.T) {
	t.Run("plain", func(t *testing.T) { starJoinsMatchReference(t, func(it Iterator) Iterator { return it }) })
	t.Run("spoiled", func(t *testing.T) { starJoinsMatchReference(t, spoil) })
}

func starJoinsMatchReference(t *testing.T, wrap func(Iterator) Iterator) {
	crossed := map[string]bool{}
	env := NoteGates(&Env{}, func(kind string) { crossed[kind] = true })
	for _, c := range starCases() {
		for _, wide := range []bool{false, true} {
			db := starDB(t, c, wide)
			for _, s := range starShapes() {
				wantRows, wantSchema, err := Reference(db, starTree(s), nil)
				if err != nil {
					t.Fatal(err)
				}
				want := Canonicalize(wantSchema, wantRows)
				top, _ := starPlan(t, db, s, env, wrap)
				for open := 1; open <= 2; open++ {
					if got := Canonicalize(top.Schema(), mustDrain(t, top)); !slices.Equal(got, want) {
						t.Fatalf("%s, wide %v, %v, open %d: %d rows, want the reference's %d",
							c.name, wide, s, open, len(got), len(want))
					}
				}
			}
		}
	}
	for _, kind := range []string{"Filter gate", "BNLJoin streamed-side gate", "BNLJoin holdOuter gate",
		"forwarded gate", "BNLJoin empty held side"} {
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
	db := starDB(t, starCase{fact: func(i int) [3]float64 {
		k := [3]float64{1, 1, 1}
		if d := missing(i); d >= 0 {
			k[d] = 2
		}
		return k
	}, dims: [3][]float64{{1}, {1}, {1}}}, true)
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
	top, joins := starPlan(t, db, starShape{factLeft: [3]bool{true, true, true}}, &Env{}, func(it Iterator) Iterator { return it })
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
