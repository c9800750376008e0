package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"mqo"
	"mqo/internal/algebra"
	"mqo/internal/exec"
	"mqo/internal/storage"
)

// oracleItem is one distinct query of an executing workload: the key timed
// answers are checked under and the query. A parameterized query is given
// as one query per binding, in binding order, whose rows are concatenated
// under the schema the parameterized form returns.
type oracleItem struct {
	key    string
	parts  []*algebra.Tree
	schema algebra.Schema // nil: the schema the reference evaluation returns
}

func oracleQuery(key string, q *algebra.Tree) oracleItem {
	return oracleItem{key: key, parts: []*algebra.Tree{q}}
}

// oracle holds, per key, the rows exec.Reference computes by nested loops
// over the loaded database, independently of optimizer, executor operators
// and caches.
type oracle struct {
	want     map[string][]canonRow
	verifyS  float64
	corrupt  bool // change a value of the next checked answer (-corrupt)
	mismatch []string
}

// canonRow is a row with its columns in name order: the non-float values
// rendered into key, the floats kept as numbers. Plans sum floats in
// different orders, so two correct answers differ in the last bits; a
// rendering rounded to fixed digits, like exec.Canonicalize, then differs
// whenever a sum falls on a rounding boundary.
type canonRow struct {
	key  string
	nums []float64
}

// floatTolerance is the relative difference up to which two floats are the
// same aggregate summed in another order.
const floatTolerance = 1e-9

// canonical renders a result insensitively to row and column order.
func canonical(schema algebra.Schema, rows []storage.Row) []canonRow {
	cols := make([]int, len(schema))
	names := make([]string, len(schema))
	for i, c := range schema {
		cols[i], names[i] = i, c.Col.String()
	}
	sort.Slice(cols, func(a, b int) bool { return names[cols[a]] < names[cols[b]] })
	out := make([]canonRow, len(rows))
	for i, r := range rows {
		var key strings.Builder
		for _, j := range cols {
			key.WriteString(names[j])
			if r[j].Typ == algebra.TFloat {
				out[i].nums = append(out[i].nums, r[j].F)
				key.WriteString("=float,")
				continue
			}
			key.WriteString("=" + r[j].String() + ",")
		}
		out[i].key = key.String()
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].key != out[b].key {
			return out[a].key < out[b].key
		}
		return slices.Compare(out[a].nums, out[b].nums) < 0
	})
	return out
}

func sameRows(a, b []canonRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].key != b[i].key || len(a[i].nums) != len(b[i].nums) {
			return false
		}
		for j, x := range a[i].nums {
			y := b[i].nums[j]
			if math.Abs(x-y) > floatTolerance*max(1, math.Abs(x), math.Abs(y)) {
				return false
			}
		}
	}
	return true
}

// add evaluates the items with exec.Reference, one worker per processor:
// the reference evaluator only reads, and the buffer pool is safe for
// concurrent readers.
func (o *oracle) add(db *storage.DB, items []oracleItem) error {
	start := time.Now()
	if o.want == nil {
		o.want = map[string][]canonRow{}
	}
	var todo []oracleItem
	for _, it := range items {
		if _, done := o.want[it.key]; !done {
			o.want[it.key] = nil
			todo = append(todo, it)
		}
	}
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	next := make(chan oracleItem)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range next {
				var rows []storage.Row
				schema := it.schema
				var err error
				for _, q := range it.parts {
					r, s, e := exec.Reference(db, q, nil)
					if e != nil {
						err = e
					}
					if it.schema == nil {
						schema = s
					}
					rows = append(rows, r...)
				}
				mu.Lock()
				if err != nil && first == nil {
					first = fmt.Errorf("oracle %s: %w", it.key, err)
				}
				o.want[it.key] = canonical(schema, rows)
				mu.Unlock()
			}
		}()
	}
	for _, it := range todo {
		next <- it
	}
	close(next)
	wg.Wait()
	o.verifyS += time.Since(start).Seconds()
	return first
}

// check reports whether an answer equals the reference rows for key.
func (o *oracle) check(key string, qr mqo.QueryResult) bool {
	start := time.Now()
	defer func() { o.verifyS += time.Since(start).Seconds() }()
	if o.corrupt {
		o.corrupt = false
		qr = corruptResult(qr)
	}
	if want, ok := o.want[key]; ok && sameRows(canonical(qr.Schema, qr.Rows), want) {
		return true
	}
	if len(o.mismatch) < 5 {
		o.mismatch = append(o.mismatch, key)
	}
	return false
}

// corruptResult returns a copy of qr with one value changed, or one row
// added when qr is empty.
func corruptResult(qr mqo.QueryResult) mqo.QueryResult {
	rows := make([]storage.Row, len(qr.Rows))
	for i, r := range qr.Rows {
		rows[i] = r.Clone()
	}
	if len(rows) == 0 || len(rows[0]) == 0 {
		row := make(storage.Row, len(qr.Schema))
		for i := range row {
			row[i] = algebra.IntVal(1)
		}
		return mqo.QueryResult{Schema: qr.Schema, Rows: append(rows, row)}
	}
	v := &rows[0][0]
	switch v.Typ {
	case algebra.TFloat:
		v.F = v.F*2 + 1
	case algebra.TString:
		v.S += "x"
	default:
		v.I++
	}
	return mqo.QueryResult{Schema: qr.Schema, Rows: rows}
}
