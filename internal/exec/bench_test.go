package exec

import (
	"context"
	"fmt"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/storage"
)

// Micro-benchmarks of the join and scan kernels, for benchstat:
//
//	go test -run '^$' -bench . -benchmem -count 10 ./internal/exec
//
// The fact table is a wide one: 17 columns, three of them short strings. It
// is not internal/ssb's lineorder, which has 10 numeric columns; the extra
// width and the strings are there so that what a scan skips shows.

var factCols = []struct {
	name string
	typ  algebra.Type
}{
	{"orderkey", algebra.TInt}, {"linenumber", algebra.TInt}, {"custkey", algebra.TInt},
	{"partkey", algebra.TInt}, {"suppkey", algebra.TInt}, {"orderdate", algebra.TDate},
	{"orderpriority", algebra.TString}, {"shippriority", algebra.TString}, {"quantity", algebra.TInt},
	{"extendedprice", algebra.TFloat}, {"ordtotalprice", algebra.TFloat}, {"discount", algebra.TInt},
	{"revenue", algebra.TFloat}, {"supplycost", algebra.TFloat}, {"tax", algebra.TInt},
	{"commitdate", algebra.TDate}, {"shipmode", algebra.TString},
}

const (
	factCustKey  = 2 // position of custkey
	factQuantity = 8 // position of quantity
	dimRows      = 3000
)

func factSchema() algebra.Schema {
	s := make(algebra.Schema, len(factCols))
	for i, c := range factCols {
		s[i] = algebra.ColInfo{Col: algebra.Col("f", c.name), Typ: c.typ}
	}
	return s
}

// factRows is deterministic; custkey cycles through the dimension's keys in
// a scattered order and quantity through 1..50.
func factRows(n int) []storage.Row {
	priorities := []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW"}
	modes := []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	rows := make([]storage.Row, n)
	for i := range rows {
		k := int64(i)
		price := float64(90000 + k*37%1000000)
		rows[i] = storage.Row{
			algebra.IntVal(k / 4), algebra.IntVal(k%4 + 1), algebra.IntVal(k * 7919 % dimRows),
			algebra.IntVal(k * 31 % 200000), algebra.IntVal(k * 17 % 2000), algebra.DateVal(8036 + k%2557),
			algebra.StringVal(priorities[i%len(priorities)]), algebra.StringVal("0"), algebra.IntVal(k%50 + 1),
			algebra.FloatVal(price), algebra.FloatVal(price * 4), algebra.IntVal(k % 11),
			algebra.FloatVal(price * float64(100-k%11) / 100), algebra.FloatVal(price * 0.6), algebra.IntVal(k % 9),
			algebra.DateVal(8066 + k%2557), algebra.StringVal(modes[i%len(modes)]),
		}
	}
	return rows
}

// dimTable is the joined dimension: key ck (0..n-1 in order, so it is also
// sorted for the merge join) and a value v in 0..49.
func dimTable(n int) (algebra.Schema, []storage.Row) {
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{algebra.IntVal(int64(i)), algebra.IntVal(int64(i) % 50)}
	}
	return intSchema("d", "ck", "v"), rows
}

func loadTable(tb testing.TB, db *storage.DB, name string, schema algebra.Schema, rows []storage.Row) *storage.Table {
	tb.Helper()
	tab, err := db.CreateTable(name, schema)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range rows {
		if _, err := tab.Heap.Insert(r); err != nil {
			tb.Fatal(err)
		}
	}
	return tab
}

// benchDrain opens, drains and closes the operator once per iteration and
// checks the row count.
func benchDrain(b *testing.B, it Iterator, want int) {
	b.Helper()
	b.ReportAllocs()
	for b.Loop() {
		rows, err := drain(context.Background(), it)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != want {
			b.Fatalf("%d rows, want %d", len(rows), want)
		}
	}
}

var custEqCk = algebra.ColEq(algebra.Col("f", "custkey"), algebra.Col("d", "ck"))

// BenchmarkNLJoinEqui is the keyed join in both buffering orders. smallInner:
// 20000 fact rows stream past a buffered 3000-row dimension, every fact row
// finding its one partner. smallOuter is the shape of a star query that the
// optimizer joins dimension-first: 40 held dimension rows against a scan of
// the 30000-row fact table, of which the join keeps the 400 rows with one of
// their keys, by operators built for the one run.
func BenchmarkNLJoinEqui(b *testing.B) {
	b.Run("smallInner", func(b *testing.B) {
		ds, drows := dimTable(dimRows)
		j, err := newNLJoin(&sliceIter{rows: factRows(20000), schema: factSchema()}, &sliceIter{rows: drows, schema: ds}, custEqCk, &Env{})
		if err != nil {
			b.Fatal(err)
		}
		j.estimate(20000, dimRows)
		benchDrain(b, j, 20000)
	})
	b.Run("smallOuter", func(b *testing.B) {
		const n = 30000
		db := storage.NewDB(2048)
		fs, frows := factSchema(), factRows(n)
		tab := loadTable(b, db, "f", fs, frows)
		ds, drows := dimTable(40)
		want := 0
		for _, f := range frows {
			if f[factCustKey].I < 40 {
				want++
			}
		}
		// A query builds its operators anew, so what the join holds is
		// allocated in every iteration, as it is in every run of a plan.
		b.ReportAllocs()
		for b.Loop() {
			scan := newTableScan(tab.Heap, fs, factNeed("custkey", "suppkey", "orderdate", "revenue"))
			j, err := newNLJoin(&sliceIter{rows: drows, schema: ds}, scan, custEqCk, &Env{})
			if err != nil {
				b.Fatal(err)
			}
			j.estimate(40, n)
			rows, err := drain(context.Background(), j)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) != want {
				b.Fatalf("%d rows, want %d", len(rows), want)
			}
		}
	})
}

// BenchmarkNLJoinTheta: no key to hash on, so 2000 × 200 pairs all reach
// the predicate.
func BenchmarkNLJoinTheta(b *testing.B) {
	ds, drows := dimTable(200)
	pred := algebra.ColCmp(algebra.Col("f", "quantity"), algebra.LT, algebra.Col("d", "v"))
	j, err := newNLJoin(&sliceIter{rows: factRows(2000), schema: factSchema()}, &sliceIter{rows: drows, schema: ds}, pred, &Env{})
	if err != nil {
		b.Fatal(err)
	}
	want := 0
	for _, f := range j.left.(*sliceIter).rows {
		for _, d := range drows {
			if f[factQuantity].I < d[1].I {
				want++
			}
		}
	}
	benchDrain(b, j, want)
}

// BenchmarkMergeJoin: the same join as NLJoinEqui with the fact rows sorted
// on the key beforehand.
func BenchmarkMergeJoin(b *testing.B) {
	fs := factSchema()
	sorted := sortOn(&sliceIter{rows: factRows(20000), schema: fs}, algebra.Col("f", "custkey"))
	frows, err := drain(context.Background(), sorted)
	if err != nil {
		b.Fatal(err)
	}
	ds, drows := dimTable(dimRows)
	schema := fs.Concat(ds)
	pred, err := compilePred(custEqCk, schema, &Env{})
	if err != nil {
		b.Fatal(err)
	}
	benchDrain(b, &mergeJoin{
		left: &sliceIter{rows: frows, schema: fs}, right: &sliceIter{rows: drows, schema: ds},
		lIdx: []int{factCustKey}, rIdx: []int{0}, pred: pred, schema: schema,
	}, 20000)
}

// BenchmarkSort sorts 16 to 60 000 rows on three keys: a scattered
// number, an SSB brand string ("MFGR#" and four digits, so every key shares
// its first 8 bytes with many others), and a year with a brand after it,
// seven years, so most pairs tie on the first column. Each iteration opens
// the sort, pulls every row and closes it, giving its storage back; before
// timing, the benchmark checks that the rows come out in order. The sizes
// below radixMin take the comparison sort, the others the radix passes.
func BenchmarkSort(b *testing.B) {
	schema := algebra.Schema{
		{Col: algebra.Col("s", "k"), Typ: algebra.TInt}, {Col: algebra.Col("s", "brand"), Typ: algebra.TString},
		{Col: algebra.Col("s", "year"), Typ: algebra.TInt}, {Col: algebra.Col("s", "revenue"), Typ: algebra.TFloat},
	}
	for _, n := range []int{16, 32, 64, 256, 1000, 60000} {
		rows := make([]storage.Row, n)
		for i := range rows {
			k := int64(i)
			rows[i] = storage.Row{algebra.IntVal(k * 7919 % 100003), algebra.StringVal(fmt.Sprintf("MFGR#%d%d%d", 1+k%5, 1+k*7%5, 1+k*13%40)),
				algebra.IntVal(1992 + k*3%7), algebra.FloatVal(float64(k%1000) / 4)}
		}
		for _, key := range []struct {
			name string
			cols []algebra.Column
		}{
			{"numeric", []algebra.Column{algebra.Col("s", "k")}},
			{"brand", []algebra.Column{algebra.Col("s", "brand")}},
			{"year,brand", []algebra.Column{algebra.Col("s", "year"), algebra.Col("s", "brand")}},
		} {
			b.Run(fmt.Sprintf("%s/%d", key.name, n), func(b *testing.B) {
				s := sortOn(&sliceIter{rows: rows, schema: schema}, key.cols...)
				out := mustDrainB(b, s)
				for i := 1; i < len(out); i++ {
					if compareAt(out[i-1], s.idx, out[i], s.idx) > 0 {
						b.Fatalf("row %d %v sorts after row %d %v", i-1, out[i-1], i, out[i])
					}
				}
				b.ReportAllocs()
				for b.Loop() {
					if err := s.Open(); err != nil {
						b.Fatal(err)
					}
					got := 0
					for {
						_, ok, err := s.Next()
						if err != nil {
							b.Fatal(err)
						}
						if !ok {
							break
						}
						got++
					}
					if err := s.Close(); err != nil || got != n {
						b.Fatalf("%d rows, want %d (%v)", got, n, err)
					}
				}
			})
		}
	}
}

// mustDrainB is drain that fails the benchmark on an error.
func mustDrainB(b *testing.B, it Iterator) []storage.Row {
	rows, err := drain(context.Background(), it)
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

// need is the column set a consumer of the named fact columns asks for.
func factNeed(names ...string) colNeed {
	need := colNeed{}
	for _, n := range names {
		need.add(algebra.Col("f", n))
	}
	return need
}

// BenchmarkIndexJoin: 5000 fact rows probing the dimension's B-tree, the
// pool holding every page. Nothing above reads the dimension's v, so the
// probes fetch its key alone.
func BenchmarkIndexJoin(b *testing.B) {
	db := storage.NewDB(1024)
	ds, drows := dimTable(dimRows)
	tab := loadTable(b, db, "d", ds, drows)
	idx, err := db.EnsureIndex(tab, "ck")
	if err != nil {
		b.Fatal(err)
	}
	inner := newIndexedSource(tab.Heap, db.Pool, idx, ds, colNeed{algebra.Col("d", "ck"): {}})
	fs := factSchema()
	schema := fs.Concat(inner.schema)
	pred, err := compilePred(custEqCk, schema, &Env{})
	if err != nil {
		b.Fatal(err)
	}
	benchDrain(b, &indexJoin{
		outer:  &sliceIter{rows: factRows(5000), schema: fs},
		inner:  inner,
		keyFn:  func(r storage.Row) (algebra.Value, error) { return r[factCustKey], nil },
		pred:   pred,
		schema: schema,
	}, 5000)
}

// BenchmarkTableScan: 20000 fact rows (about 900 pages) from a pool that
// holds them all, so what is timed is the decode: of every column, and of
// the four a star join reads. The fact table's strings make every record a
// walk; lineorder's shape — 30000 rows of 10 numbers — takes the fixed-width
// path, read for four columns, and again under a filter keeping a tenth of
// the rows, whose predicate gates the scan.
func BenchmarkTableScan(b *testing.B) {
	db := storage.NewDB(2048)
	fs := factSchema()
	tab := loadTable(b, db, "f", fs, factRows(20000))
	b.Run("all", func(b *testing.B) { benchDrain(b, newTableScan(tab.Heap, fs, nil), 20000) })
	b.Run("4of17", func(b *testing.B) {
		benchDrain(b, newTableScan(tab.Heap, fs, factNeed("custkey", "suppkey", "orderdate", "revenue")), 20000)
	})
	const n = 30000
	ls, lrows := lineorderTable(n)
	lo := loadTable(b, db, "lineorder", ls, lrows)
	need := colNeed{}.plus(eachOf([]algebra.Column{
		algebra.Col("lineorder", "locust"), algebra.Col("lineorder", "lodate"),
		algebra.Col("lineorder", "loqty"), algebra.Col("lineorder", "lorev")}))
	b.Run("lineorder4of10", func(b *testing.B) { benchDrain(b, newTableScan(lo.Heap, ls, need), n) })
	b.Run("lineorder4of10gated", func(b *testing.B) {
		scan := newTableScan(lo.Heap, ls, need)
		f, err := newFilter(scan, algebra.Cmp(algebra.Col("lineorder", "loqty"), algebra.LE, algebra.IntVal(5)), &Env{})
		if err != nil {
			b.Fatal(err)
		}
		benchDrain(b, f, n/10)
		if scan.rowsSkipped() == 0 {
			b.Fatal("the filter's gate dropped nothing")
		}
	})
}

// lineorderTable is internal/ssb's fact table in shape: ten numeric columns,
// loqty cycling through 1..50.
func lineorderTable(n int) (algebra.Schema, []storage.Row) {
	schema := intSchema("lineorder", "lokey", "locust", "lopart", "losupp", "lodate", "loqty", "loprice", "lodisc", "lorev", "loscost")
	for _, i := range []int{6, 8, 9} {
		schema[i].Typ = algebra.TFloat
	}
	rows := make([]storage.Row, n)
	for i := range rows {
		k := int64(i)
		price := float64(90 + k*37%104860)
		rows[i] = storage.Row{
			algebra.IntVal(k/4 + 1), algebra.IntVal(k*7919%dimRows + 1), algebra.IntVal(k*31%200000 + 1), algebra.IntVal(k*17%2000 + 1),
			algebra.IntVal(19920101 + k%2557), algebra.IntVal(k%50 + 1), algebra.FloatVal(price), algebra.IntVal(k % 11),
			algebra.FloatVal(price * float64(100-k%11) / 100), algebra.FloatVal(float64(1 + k%1000)),
		}
	}
	return schema, rows
}

// BenchmarkScanFilterJoin is the pipeline a star query runs: a scan of the
// 20000-row fact table, a filter that keeps a fifth of it, and a keyed
// BNLJoin that streams what is left past a buffered dimension. Only the
// join's output is kept, by the drain.
func BenchmarkScanFilterJoin(b *testing.B) {
	db := storage.NewDB(2048)
	fs := factSchema()
	tab := loadTable(b, db, "f", fs, factRows(20000))
	scan := newTableScan(tab.Heap, fs, factNeed("custkey", "quantity", "revenue"))
	pred, err := compilePred(algebra.Cmp(algebra.Col("f", "quantity"), algebra.LE, algebra.IntVal(10)), scan.Schema(), &Env{})
	if err != nil {
		b.Fatal(err)
	}
	ds, drows := dimTable(dimRows)
	j, err := newNLJoin(&filterIter{child: scan, pred: pred}, &sliceIter{rows: drows, schema: ds}, custEqCk, &Env{})
	if err != nil {
		b.Fatal(err)
	}
	benchDrain(b, j, 4000)
}

// BenchmarkStarJoin is a star query's join chain: the 20000-row fact table
// streamed up three keyed BNLJoins, each holding a dimension — half the
// customers, a fifth of the suppliers, a fifth of the quantities. Every
// join's key test reaches the scan, which decodes only the rows all three
// keep; the operators are opened again per iteration, as Invoke does. The
// keys are ints: dense, each join tests them by a bitmap of its held keys;
// sparse, each dimension also holds one key far beyond the others, which no
// fact row has, so its range is too wide for a bitmap and the join tests
// key hashes.
func BenchmarkStarJoin(b *testing.B) {
	db := storage.NewDB(2048)
	fs, frows := factSchema(), factRows(20000)
	tab := loadTable(b, db, "f", fs, frows)
	for _, sparse := range []bool{false, true} {
		name, test := "dense", "bitmap"
		if sparse {
			name, test = "sparse", "hash"
		}
		b.Run(name, func(b *testing.B) {
			dim := func(rel string, keys func(k int64) bool, n int64) Iterator {
				var rows []storage.Row
				for k := int64(0); k < n; k++ {
					if keys(k) {
						rows = append(rows, intRows([]int64{k, k % 50})...)
					}
				}
				if sparse {
					rows = append(rows, intRows([]int64{1 << 40, 0})...)
				}
				return &sliceIter{rows: rows, schema: intSchema(rel, "k", "v")}
			}
			levels := []struct {
				col  string
				dim  Iterator
				keep func(f storage.Row) bool
			}{
				{"custkey", dim("dc", func(k int64) bool { return k < dimRows/2 }, dimRows),
					func(f storage.Row) bool { return f[factCustKey].I < dimRows/2 }},
				{"suppkey", dim("ds", func(k int64) bool { return k%5 == 0 }, 2000),
					func(f storage.Row) bool { return f[4].I%5 == 0 }},
				{"quantity", dim("dq", func(k int64) bool { return k <= 10 }, 51),
					func(f storage.Row) bool { return f[factQuantity].I <= 10 }},
			}
			var it Iterator = newTableScan(tab.Heap, fs, factNeed("custkey", "suppkey", "quantity", "revenue"))
			var joins []*nlJoin
			for _, l := range levels {
				j, err := newNLJoin(it, l.dim, algebra.ColEq(algebra.Col("f", l.col), l.dim.Schema()[0].Col), &Env{})
				if err != nil {
					b.Fatal(err)
				}
				it, joins = j, append(joins, j)
			}
			want := 0
			for _, f := range frows {
				if levels[0].keep(f) && levels[1].keep(f) && levels[2].keep(f) {
					want++
				}
			}
			if want == 0 {
				b.Fatal("the star join keeps no row")
			}
			benchDrain(b, it, want)
			for l, j := range joins {
				if j.keyTest() != test {
					b.Fatalf("join %d tested keys by %s, want %s", l+1, j.keyTest(), test)
				}
			}
		})
	}
}
