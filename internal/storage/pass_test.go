package storage

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"mqo/internal/algebra"
)

// errWait is what the drivers' feed returns: the cursor has asked for rows,
// and the driver is to step the pass feeding it, as a run parks a task.
var errWait = errors.New("wait for the pass")

// passDriver feeds cursors from shared passes the way a run's scheduler
// does, without the coroutines: each round, every cursor that is not busy
// pulls all it was fed and asks for more, and one page of each pass that a
// cursor waits on is read. A busy cursor takes nothing that round, so a pass
// lets it go once it holds a slab; it asks again later and is fed by a pass
// of its own from where it stands.
type passDriver struct {
	cs   []*HeapCursor
	take func(i int, r Row)
	busy func(i, round int) bool // nil: never
}

func (d *passDriver) run() error {
	first := d.cs[0].Heap().NewPass()
	for _, c := range d.cs {
		c.SetFeed(func(*HeapCursor) error { return errWait })
		c.Rewind()
		if !first.Join(c) {
			return fmt.Errorf("a rewound cursor could not join a new pass")
		}
	}
	done, waiting := make([]bool, len(d.cs)), make([]bool, len(d.cs))
	var steps []*Pass
	for round := 0; ; round++ {
		left := 0
		for i, c := range d.cs {
			if done[i] {
				continue
			}
			left++
			if waiting[i] = false; d.busy != nil && d.busy(i, round) {
				continue
			}
			for {
				r, ok, err := c.Next()
				if err == errWait {
					waiting[i] = true
					break
				}
				if err != nil {
					return err
				}
				if !ok {
					done[i] = true
					break
				}
				d.take(i, r)
			}
		}
		if left == 0 {
			return nil
		}
		steps = steps[:0]
		for i, c := range d.cs {
			if !waiting[i] || c.Fed() {
				continue
			}
			if c.Pass() == nil {
				c.Heap().NewPass().Join(c)
			}
			if p := c.Pass(); !slices.Contains(steps, p) {
				steps = append(steps, p)
			}
		}
		for _, p := range steps {
			p.Step()
		}
	}
}

// gateSpec is a gate of a consumer in the differential test: it keeps a
// record when a hash of the values at its positions falls below keep%.
type gateSpec struct {
	pos  []int
	keep uint32
}

func (g gateSpec) gate(dropped *int64) Gate {
	return Gate{Cols: g.pos, Dropped: dropped, Test: func(r Row) (bool, error) {
		h := fnv.New32a()
		for _, p := range g.pos {
			fmt.Fprint(h, r[p])
		}
		return h.Sum32()%100 < g.keep, nil
	}}
}

// scanResult is what one consumer of a scan saw.
type scanResult struct {
	rows    []Row
	skipped int64
	dropped []int64
}

// gated returns a cursor over h at cols with the gates of specs, counting
// their drops into res.
func gated(h *HeapFile, cols []int, specs []gateSpec, res *scanResult) *HeapCursor {
	c := h.Cursor(cols)
	res.dropped = make([]int64, len(specs))
	var gates []Gate
	for k, g := range specs {
		gates = append(gates, g.gate(&res.dropped[k]))
	}
	c.SetGates(gates, nil)
	return c
}

// TestSharedPassMatchesPrivateCursors: every consumer of a shared pass is fed
// exactly the rows, in the same order, that a cursor of its own with the same
// columns and gates delivers, and skips and drops, gate by gate, as many
// records — whatever the other consumers read or gate, and when a consumer
// is busy for a while and is let go by the pass to finish alone. Each page a
// pass reads faults once, counted against one cursor; the pass is the only
// reader of the pages, so the cursors' faults are the pool's misses.
func TestSharedPassMatchesPrivateCursors(t *testing.T) {
	const width, n = 6, 3*slabRows + 17
	rng := rand.New(rand.NewSource(37))
	pool := NewBufferPool(NewPager(), 8)
	h := NewHeapFile(pool)
	for i := 0; i < n; i++ {
		r := randomRow(rng, width)
		if i%5 != 0 { // most records fixed-width, some walked
			for k := range r {
				if r[k].Typ == algebra.TString {
					r[k] = algebra.IntVal(int64(k * i))
				}
			}
		}
		if _, err := h.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(5)
		cols := make([][]int, k)
		specs := make([][]gateSpec, k)
		for i := range cols {
			w := width
			switch rng.Intn(5) {
			case 0: // every column
			case 1:
				cols[i] = []int{}
				w = 0
			default:
				cols[i] = subset(1+rng.Intn(1<<width-1), width)
				w = len(cols[i])
			}
			for g := rng.Intn(4); g > 0 && w > 0; g-- {
				pos := []int{rng.Intn(w)}
				if p := rng.Intn(w); p != pos[0] && rng.Intn(2) == 0 {
					pos = append(pos, p)
				}
				specs[i] = append(specs[i], gateSpec{pos: pos, keep: []uint32{5, 50, 95}[rng.Intn(3)]})
			}
		}
		want := make([]scanResult, k)
		for i := range want {
			c := gated(h, cols[i], specs[i], &want[i])
			for {
				r, ok, err := c.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				want[i].rows = append(want[i].rows, r.Clone())
			}
			want[i].skipped = c.Skipped()
		}

		got := make([]scanResult, k)
		cs := make([]*HeapCursor, k)
		for i := range cs {
			cs[i] = gated(h, cols[i], specs[i], &got[i])
		}
		busy := rng.Intn(k + 1) // k: nobody
		d := passDriver{cs: cs,
			take: func(i int, r Row) {
				if cap(r) != len(r) {
					t.Fatalf("trial %d: consumer %d was fed a row of len %d, cap %d", trial, i, len(r), cap(r))
				}
				got[i].rows = append(got[i].rows, r.Clone())
			},
			busy: func(i, round int) bool { return i == busy && round%7 != 6 },
		}
		misses := pool.Misses()
		if err := d.run(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var faults int64
		for i, c := range cs {
			got[i].skipped = c.Skipped()
			faults += c.Faults()
			if c.Shared() != k {
				t.Errorf("trial %d: consumer %d says %d cursors shared its pass, want %d", trial, i, c.Shared(), k)
			}
		}
		if m := pool.Misses() - misses; faults != m {
			t.Errorf("trial %d: the cursors counted %d faults, the pool %d", trial, faults, m)
		}
		for i := range want {
			g, w := got[i], want[i]
			if !slices.EqualFunc(g.rows, w.rows, func(a, b Row) bool { return slices.Equal(a, b) }) {
				t.Fatalf("trial %d: consumer %d (cols %v, gates %v) was fed %d rows, alone it reads %d, or other rows",
					trial, i, cols[i], specs[i], len(g.rows), len(w.rows))
			}
			if g.skipped != w.skipped || !slices.Equal(g.dropped, w.dropped) {
				t.Fatalf("trial %d: consumer %d skipped %d, dropped %v; alone %d, %v", trial, i, g.skipped, g.dropped, w.skipped, w.dropped)
			}
		}
	}
}

// TestPassJoin: a pass takes cursors only before its first page and only
// where it starts, and a cursor only one pass at a time; a cursor leaving
// keeps the rows it was fed.
func TestPassJoin(t *testing.T) {
	h := NewHeapFile(NewBufferPool(NewPager(), 8))
	for i := 0; i < 3*slabRows; i++ {
		if _, err := h.Insert(Row{algebra.IntVal(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c := h.Cursor(nil), h.Cursor(nil), h.Cursor(nil)
	p := h.NewPass()
	if !p.Join(a) || p.Join(a) || h.NewPass().Join(a) {
		t.Fatal("a cursor joined one pass twice, or two passes")
	}
	p.Step()
	if p.Join(b) || !p.Started() || a.Decoded() == 0 || a.Pass() != p {
		t.Fatalf("a started pass took a cursor, or fed nothing: decoded %d", a.Decoded())
	}
	fed := a.Decoded()
	a.Leave()
	if a.Pass() != nil || len(p.Cursors()) != 0 || a.Decoded() != fed {
		t.Fatalf("a cursor that left is still fed, or lost its rows: %d of %d", a.Decoded(), fed)
	}
	q := h.NewPass()
	for range fed {
		a.Next()
	}
	if !q.Join(a) || q.Join(c) {
		t.Fatal("a pass took cursors that stand at different rows")
	}
}

// sharedTable loads a table shaped like SSB's lineorder: 30 000 records of
// ten numbers, 698 pages, over a 512-page pool.
func sharedTable(b *testing.B) *HeapFile {
	h := NewHeapFile(NewBufferPool(NewPager(), 512))
	for i := 0; i < 30000; i++ {
		r := make(Row, 10)
		for c := range r {
			r[c] = algebra.IntVal(int64((i*(c+7) + c*13) % 1000))
		}
		if _, err := h.Insert(r); err != nil {
			b.Fatal(err)
		}
	}
	return h
}

// BenchmarkSharedScan reads a lineorder-shaped table for k consumers, each
// decoding four columns behind two gates — one on a column all of them
// test, like the date key of a flight, and one on a column of its own — that
// keep about 2 % of the records: as k cursors that read alone (cursors), and
// as k cursors one pass feeds (pass), every page of it faulted once instead
// of k times.
func BenchmarkSharedScan(b *testing.B) {
	h := sharedTable(b)
	consumers := func(k int) []*HeapCursor {
		cs := make([]*HeapCursor, k)
		for i := range cs {
			own := 2 + i%4
			cs[i] = h.Cursor([]int{0, 1, own, 6 + i%4})
			cs[i].SetGates([]Gate{
				{Cols: []int{0}, Test: func(r Row) (bool, error) { return r[0].I%7 == 0, nil }},
				{Cols: []int{2}, Test: func(r Row) (bool, error) { return r[2].I%8 == 0, nil }},
			}, nil)
		}
		return cs
	}
	for _, k := range []int{1, 3, 8} {
		b.Run(fmt.Sprintf("cursors/k=%d", k), func(b *testing.B) {
			cs := consumers(k)
			b.ReportAllocs()
			for b.Loop() {
				for _, c := range cs {
					c.Rewind()
					for {
						if _, ok, err := c.Next(); err != nil || !ok {
							break
						}
					}
				}
			}
		})
		b.Run(fmt.Sprintf("pass/k=%d", k), func(b *testing.B) {
			d := passDriver{cs: consumers(k), take: func(int, Row) {}}
			b.ReportAllocs()
			for b.Loop() {
				if err := d.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
