package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mqo/internal/algebra"
)

// randomRow draws a row of n values over all four types, with empty and
// long strings among them.
func randomRow(rng *rand.Rand, n int) Row {
	r := make(Row, n)
	for i := range r {
		switch rng.Intn(4) {
		case 0:
			r[i] = algebra.IntVal(rng.Int63() - rng.Int63())
		case 1:
			r[i] = algebra.FloatVal(rng.NormFloat64() * 1e6)
		case 2:
			r[i] = algebra.DateVal(rng.Int63n(20000))
		default:
			r[i] = algebra.StringVal(strings.Repeat("x", []int{0, 1, 7, 300}[rng.Intn(4)]))
		}
	}
	return r
}

// subset lists the positions whose bit is set in mask, ascending; never nil,
// so the empty subset is not mistaken for "every column".
func subset(mask, n int) []int {
	cols := []int{}
	for i := 0; i < n; i++ {
		if mask&(1<<i) != 0 {
			cols = append(cols, i)
		}
	}
	return cols
}

// TestDecodeRowProjection: for every subset of a random row's positions, the
// projected decode is the projection of the full decode, and it appends to
// what the destination already holds.
func TestDecodeRowProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(7)
		row := randomRow(rng, n)
		buf := encodeRow(row)
		full, err := decodeRow(nil, buf, nil)
		if err != nil || !slices.Equal(full, row) {
			t.Fatalf("full decode of %v: %v, %v", row, full, err)
		}
		for mask := 0; mask < 1<<n; mask++ {
			cols := subset(mask, n)
			want := Row{algebra.IntVal(-1)}
			for _, c := range cols {
				want = append(want, full[c])
			}
			got, err := decodeRow(Row{algebra.IntVal(-1)}, buf, cols)
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("row %v cols %v: got %v, %v; want %v", row, cols, got, err, want)
			}
		}
		if _, err := decodeRow(nil, buf, []int{n}); err == nil {
			t.Errorf("position %d of a %d-value row decoded", n, n)
		}
	}
}

// TestDecodeRowDamageInSkippedValue: a record cut inside a value, or with one
// value's type byte overwritten, fails to decode whichever columns are asked
// for — the damaged one, others only, or none.
func TestDecodeRowDamageInSkippedValue(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 40; trial++ {
		row, damaged := damagedRecords(rng)
		n := len(row)
		for _, bad := range damaged {
			if got, err := decodeRow(nil, bad, nil); err == nil {
				t.Fatalf("row %v: damaged record decoded in full to %v", row, got)
			}
			for mask := 0; mask < 1<<n; mask++ {
				if got, err := decodeRow(nil, bad, subset(mask, n)); err == nil {
					t.Fatalf("row %v: damaged record decoded at %v to %v", row, subset(mask, n), got)
				}
			}
		}
	}
}

// damagedRecords draws a row of 2 to 6 values and damages its record at each
// value twice: its type byte overwritten, and the record cut inside it.
func damagedRecords(rng *rand.Rand) (Row, [][]byte) {
	n := 2 + rng.Intn(5)
	row := randomRow(rng, n)
	buf := encodeRow(row)
	starts := make([]int, n+1)
	for i := range row {
		starts[i+1] = len(encodeRow(row[:i+1]))
	}
	var damaged [][]byte
	for i := 0; i < n; i++ {
		bad := slices.Clone(buf)
		bad[starts[i]] = 0x7f // no such type
		damaged = append(damaged, bad)
		// Ends inside value i, which takes at least three bytes.
		damaged = append(damaged, buf[:starts[i]+1+rng.Intn(starts[i+1]-starts[i]-1)])
	}
	return row, damaged
}

// FuzzDecodeRow holds the fixed-width fast path to the walk: over any bytes
// and any ascending column subset (or every column), locate finds the offsets
// locateWalk finds, or both fail, and decodeRow decodes the values found
// there. The committed corpus holds the damaged records of
// TestDecodeRowDamageInSkippedValue and numeric rows intact and damaged.
//
//	go test -run '^$' -fuzz FuzzDecodeRow ./internal/storage
func FuzzDecodeRow(f *testing.F) {
	f.Add(encodeRow(Row{algebra.IntVal(7), algebra.FloatVal(-0.5), algebra.DateVal(9000)}), uint64(0b101), false)
	f.Fuzz(func(t *testing.T, buf []byte, mask uint64, all bool) {
		var cols []int
		if !all {
			cols = subset(int(mask&(1<<20-1)), 20)
		}
		want, werr := locateWalk(nil, buf, cols)
		got, gerr := locate(nil, buf, cols)
		if (werr == nil) != (gerr == nil) || !slices.Equal(got, want) {
			t.Fatalf("record %x, cols %v (fixed width: %v): located %v, %v; the walk %v, %v",
				buf, cols, fixedWidth(buf), got, gerr, want, werr)
		}
		row, err := decodeRow(nil, buf, cols)
		if (err == nil) != (werr == nil) || len(row) != len(want) {
			t.Fatalf("record %x, cols %v: decoded %v, %v; the walk found %d values, %v", buf, cols, row, err, len(want), werr)
		}
		for k, off := range want {
			var v algebra.Value
			if _, err := decodeValue(&v, buf[off:]); err != nil {
				t.Fatalf("record %x: the walk located an undecodable value at %d: %v", buf, off, err)
			}
			if g := row[k]; g.Typ != v.Typ || g.I != v.I || math.Float64bits(g.F) != math.Float64bits(v.F) || g.S != v.S {
				t.Fatalf("record %x, cols %v: value %d decoded as %#v, want %#v", buf, cols, k, g, v)
			}
		}
	})
}

// TestCursorGate: a gated cursor tests every record once and delivers the
// rows that pass, in file order, counting every record as examined; it checks
// a record it drops as fully as one it decodes; a withdrawn gate lets every
// row through again.
func TestCursorGate(t *testing.T) {
	h := NewHeapFile(NewBufferPool(NewPager(), 8))
	const n = 3*slabRows + 17
	var rids []RID
	for i := 0; i < n; i++ {
		// Numeric rows, and every seventh one with a string: both decoders.
		r := Row{algebra.IntVal(int64(i)), algebra.FloatVal(float64(i) / 2), algebra.DateVal(int64(i % 3))}
		if i%7 == 0 {
			r[1] = algebra.StringVal("seventh")
		}
		rid, err := h.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	c := h.Cursor([]int{0, 2})
	tests, dropped := 0, 0
	c.SetGates([]Gate{{Cols: []int{1}, Test: func(r Row) (bool, error) {
		tests++
		if i := (tests - 1) % n; r[1].Typ != algebra.TDate || r[1].I != int64(i%3) {
			t.Fatalf("record %d: the gate saw %v at position 1", i, r[1])
		}
		if r[1].I != 1 {
			dropped++
		}
		return r[1].I == 1, nil
	}}}, nil)
	last := c.Remaining()
	for i := 0; ; i++ {
		// Not the rows to come, but a bound on them that only falls.
		if left := c.Remaining(); left > last || left < int64((n+1)/3-i) {
			t.Fatalf("before row %d of the gated scan %d rows remain, %d before the last", i, left, last)
		}
		last = c.Remaining()
		r, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != (n+1)/3 {
				t.Fatalf("the gated scan ended after %d rows, want %d", i, (n+1)/3)
			}
			break
		}
		if want := (Row{algebra.IntVal(int64(3*i + 1)), algebra.DateVal(1)}); !slices.Equal(r, want) || cap(r) != len(r) {
			t.Fatalf("gated row %d: %v (cap %d), want %v", i, r, cap(r), want)
		}
	}
	if tests != n || dropped != n-(n+1)/3 || c.Remaining() != 0 {
		t.Fatalf("the gate tested %d records and dropped %d, %d remain; want %d, %d and 0", tests, dropped, c.Remaining(), n, n-(n+1)/3)
	}

	// Damage, in a record the gate drops, a value nobody reads.
	rid := rids[3*slabRows]
	if err := h.pool.Update(rid.Page, func(data []byte) error {
		off, _ := slotAt(data, rid.Slot)
		data[off+9] = 0x7f // the type byte of value 1
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	c.Rewind()
	for {
		_, ok, err := c.Next()
		if err != nil {
			break
		}
		if !ok {
			t.Fatal("the gated scan stepped over a damaged record it dropped")
		}
	}

	c.SetGates(nil, nil)
	c.Rewind()
	for i := 0; rids[i].Page != rid.Page; i++ {
		if r, ok, err := c.Next(); err != nil || !ok || r[0].I != int64(i) {
			t.Fatalf("ungated row %d: %v, %v, %v", i, r, ok, err)
		}
	}

	t.Run("list", cursorGateList)
	t.Run("keys first", cursorKeyGatesFirst)
}

// cursorGateList: a cursor tests a list of gates over rows wider than 64
// columns one gate at a time, each on its own columns, which hold the
// record's values when the gate is reached whether or not a gate before it
// decoded them; the first gate to fail a record drops it, counted in that
// gate's Dropped, and moves a place forward, so the gate that drops most is
// soon tested first and the others see only what it passes.
func cursorGateList(t *testing.T) {
	const n, width = 3*slabRows + 17, 70
	want := func(i, c int) algebra.Value {
		if c == 3 && i%7 == 0 {
			return algebra.StringVal(fmt.Sprintf("s%d", i)) // both decoders
		}
		return algebra.IntVal(int64(i*100 + c))
	}
	h := NewHeapFile(NewBufferPool(NewPager(), 8))
	for i := 0; i < n; i++ {
		r := make(Row, width)
		for c := range r {
			r[c] = want(i, c)
		}
		if _, err := h.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	var tests, dropped [3]int64
	failing := []func(i int) bool{
		func(i int) bool { return i%10 == 0 },
		func(i int) bool { return i%2 == 1 },
		func(i int) bool { return i%3 == 0 },
	}
	gate := func(k int, cols ...int) Gate {
		return Gate{Cols: cols, Dropped: &dropped[k], Test: func(r Row) (bool, error) {
			tests[k]++
			i := int(r[0].I / 100)
			for _, c := range cols {
				if r[c] != want(i, c) {
					t.Fatalf("gate %d, record %d: column %d reads %v, want %v", k, i, c, r[c], want(i, c))
				}
			}
			return !failing[k](i), nil
		}}
	}
	c := h.Cursor(nil)
	c.SetGates([]Gate{gate(0, 0, 66), gate(1, 0, 2, 69), gate(2, 3, 0, 69)}, nil)
	kept := 0
	for i := 0; i < n; i++ {
		if failing[0](i) || failing[1](i) || failing[2](i) {
			continue
		}
		r, ok, err := c.Next()
		if err != nil || !ok {
			t.Fatalf("row %d: %v, %v", i, ok, err)
		}
		for col := range r {
			if r[col] != want(i, col) {
				t.Fatalf("row %d, column %d: %v, want %v", i, col, r[col], want(i, col))
			}
		}
		kept++
	}
	if _, ok, err := c.Next(); ok || err != nil {
		t.Fatalf("the gated scan went on past its last row: %v, %v", ok, err)
	}
	if sum := dropped[0] + dropped[1] + dropped[2]; sum != c.Skipped() || sum != int64(n-kept) {
		t.Errorf("the gates' Dropped add up to %d, the cursor skipped %d, want both %d", sum, c.Skipped(), n-kept)
	}
	// Gate 1 fails every other record: tested first from its first drop on,
	// it is tested on nearly every record and gate 0 on about half.
	if tests[1] < n*9/10 || tests[0] > n*6/10 {
		t.Errorf("gates tested %v times over %d records, want gate 1 on nearly all and gate 0 on about half", tests, n)
	}
}

// cursorKeyGatesFirst: a cursor tests its key gates before its other gates,
// whatever the order of the list, in ascending order of the column they
// read, and keeps that order however often a later one drops a row: each
// gate is tested on exactly the records every gate before it passes, and
// counts exactly the records it is the first to fail.
func cursorKeyGatesFirst(t *testing.T) {
	const n = 3*slabRows + 17
	h := NewHeapFile(NewBufferPool(NewPager(), 8))
	for i := 0; i < n; i++ {
		if _, err := h.Insert(Row{algebra.IntVal(int64(i)), algebra.FloatVal(float64(i % 4))}); err != nil {
			t.Fatal(err)
		}
	}
	var tests, dropped [3]int64
	c := h.Cursor(nil)
	c.SetGates([]Gate{
		{Cols: []int{0}, Dropped: &dropped[2], Test: func(r Row) (bool, error) {
			tests[2]++
			return r[0].I%3 != 0, nil
		}},
		{Cols: []int{1}, Dropped: &dropped[1], Key: func(v algebra.Value) bool {
			tests[1]++
			return v.F < 2 // drops every other record: more than key gate 0
		}},
		{Cols: []int{0}, Dropped: &dropped[0], Key: func(v algebra.Value) bool {
			tests[0]++
			return v.I%10 != 0
		}},
	}, nil)
	for {
		_, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	var want, tested [3]int64
	for i := 0; i < n; i++ {
		fails := []bool{i%10 == 0, i%4 >= 2, i%3 == 0}
		for k, f := range fails {
			tested[k]++
			if f {
				want[k]++
				break
			}
		}
	}
	if tests != tested || dropped != want || c.Skipped() != want[0]+want[1]+want[2] {
		t.Errorf("gates tested %v times and dropped %v, the cursor skipped %d; want %v, %v and %d",
			tests, dropped, c.Skipped(), tested, want, want[0]+want[1]+want[2])
	}
}

// TestScanColsMatchesScan: a projected scan, a projected fetch and a cursor
// deliver the projection of what Scan and Get deliver, row for row, across
// slab and page boundaries, each row len == cap so appending to one cannot
// reach the next.
func TestScanColsMatchesScan(t *testing.T) {
	h := NewHeapFile(NewBufferPool(NewPager(), 8))
	rng := rand.New(rand.NewSource(20))
	const n = 3*slabRows + 17
	var rids []RID
	for i := 0; i < n; i++ {
		r := randomRow(rng, 5)
		r[0] = algebra.IntVal(int64(i))
		rid, err := h.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	var all []Row
	if err := h.Scan(func(_ RID, r Row) error { all = append(all, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(all) != n {
		t.Fatalf("scan saw %d rows, want %d", len(all), n)
	}
	for _, cols := range [][]int{{}, {0}, {1, 3}, {0, 1, 2, 3, 4}} {
		i := 0
		err := h.ScanCols(cols, func(rid RID, r Row) error {
			if rid != rids[i] || len(r) != len(cols) || cap(r) != len(r) {
				t.Fatalf("cols %v row %d: rid %v len %d cap %d", cols, i, rid, len(r), cap(r))
			}
			for k, c := range cols {
				if r[k] != all[i][c] {
					t.Fatalf("cols %v row %d: got %v, stored %v", cols, i, r, all[i])
				}
			}
			got, err := h.GetCols(nil, rid, cols)
			if err != nil || !slices.Equal(got, r) {
				t.Fatalf("GetCols(%v, %v) = %v, %v; scan gave %v", rid, cols, got, err, r)
			}
			i++
			return nil
		})
		if err != nil || i != n {
			t.Fatalf("cols %v: %d rows, %v", cols, i, err)
		}
		// The cursor pulls the same rows, twice: Rewind starts over.
		c := h.Cursor(cols)
		for pass := 0; pass < 2; pass++ {
			for i := 0; ; i++ {
				if left := c.Remaining(); left != int64(n-i) {
					t.Fatalf("cols %v pass %d: %d rows remain before row %d of %d", cols, pass, left, i, n)
				}
				fetches := c.Decoded() == 0
				r, ok, err := c.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					if i != n || !fetches {
						t.Fatalf("cols %v pass %d: cursor ended after %d rows (fetches %v), want %d", cols, pass, i, fetches, n)
					}
					break
				}
				if fetches != (rids[i].Slot == 0) || len(r) != len(cols) || cap(r) != len(r) {
					t.Fatalf("cols %v row %d at %v: fetches %v, len %d cap %d", cols, i, rids[i], fetches, len(r), cap(r))
				}
				for k, col := range cols {
					if r[k] != all[i][col] {
						t.Fatalf("cols %v row %d: cursor gave %v, stored %v", cols, i, r, all[i])
					}
				}
			}
			c.Rewind()
		}
	}
}
