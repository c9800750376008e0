package storage

import (
	"fmt"
	"testing"

	"mqo/internal/algebra"
)

// benchTable loads rows rows of (id, k, name, pad), k and name drawn from
// 1000 values each so an index on either holds long runs of duplicates.
func benchTable(b *testing.B, db *DB, rows int) *Table {
	schema := algebra.Schema{
		{Col: algebra.Col("t", "id"), Typ: algebra.TInt},
		{Col: algebra.Col("t", "k"), Typ: algebra.TInt},
		{Col: algebra.Col("t", "name"), Typ: algebra.TString},
		{Col: algebra.Col("t", "pad"), Typ: algebra.TString},
	}
	tab, err := db.CreateTable("t", schema)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		k := i * 7919 % 1000
		r := Row{algebra.IntVal(int64(i)), algebra.IntVal(int64(k)), algebra.StringVal(fmt.Sprintf("Customer#%09d", k)), algebra.StringVal("padding-padding-padding-padding")}
		if _, err := tab.Heap.Insert(r); err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

// BenchmarkIndexBuild is the run-time index build over a materialized
// temp: EnsureIndex over 20000 rows the pool holds, on an int and on a string
// column.
func BenchmarkIndexBuild(b *testing.B) {
	db := NewDB(4096)
	tab := benchTable(b, db, 20000)
	for _, col := range []string{"k", "name"} {
		b.Run(col, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				tab.Indexes = map[string]*BTree{}
				if _, err := db.EnsureIndex(tab, col); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPoolFault scans a table four times the pool: every page faults,
// and its frame comes from the page it evicts.
func BenchmarkPoolFault(b *testing.B) {
	db := NewDB(64)
	tab := benchTable(b, db, 16000)
	if p := tab.Heap.NumPages(); p < 4*64 {
		b.Fatalf("table has %d pages, want 4x the pool", p)
	}
	b.ReportAllocs()
	for b.Loop() {
		n := 0
		if err := tab.Heap.Scan(func(RID, Row) error { n++; return nil }); err != nil || n != 16000 {
			b.Fatal(n, err)
		}
	}
}
