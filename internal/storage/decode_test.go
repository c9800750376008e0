package storage

import (
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
