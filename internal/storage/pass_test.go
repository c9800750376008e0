package storage

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
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
	cs     []*HeapCursor
	take   func(i int, r Row)
	busy   func(i, round int) bool // nil: never
	before func(round int)         // nil, or called before each round's pages are read
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
		if d.before != nil {
			d.before(round)
		}
		for _, p := range steps {
			p.Step()
		}
	}
}

// gateSpec is a gate of a consumer in the differential test: a Test gate
// that keeps a record when a hash of the values at its positions falls below
// keep%, or, when held is set, a Key gate on pos[0] that keeps a record whose
// value there Compares equal to one of held.
type gateSpec struct {
	pos  []int
	keep uint32
	held []int64
}

func (g gateSpec) gate(dropped *int64) Gate {
	if g.held != nil {
		return Gate{Cols: g.pos[:1], Dropped: dropped, Key: func(v algebra.Value) bool {
			return slices.ContainsFunc(g.held, func(k int64) bool { return algebra.Compare(v, algebra.IntVal(k)) == 0 })
		}}
	}
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

// gates returns the gates of specs, counting their drops into dropped.
func gates(specs []gateSpec, dropped []int64) []Gate {
	var out []Gate
	for k, g := range specs {
		out = append(out, g.gate(&dropped[k]))
	}
	return out
}

// regate is a consumer whose gates are set again, to specs, once its pass has
// read the first page.
type regate struct {
	who   int
	specs []gateSpec
}

// keyColumns are the columns of passTable that hold foreign-key-like values.
var keyColumns = []int{0, 3}

// passTable loads the differential test's table: random rows of six values,
// most of them numbers only, whose key columns hold mostly small ints and
// dates, and now and then a NaN of either payload, -0, an integral or a
// non-integral float.
func passTable(t *testing.T, rng *rand.Rand, pool *BufferPool) *HeapFile {
	const width, n = 6, 3*slabRows + 17
	h := NewHeapFile(pool)
	odd := []algebra.Value{
		algebra.FloatVal(math.NaN()), algebra.FloatVal(math.Float64frombits(0xfff8000000000001)),
		algebra.FloatVal(math.Copysign(0, -1)), algebra.FloatVal(3), algebra.FloatVal(2.5),
	}
	for i := 0; i < n; i++ {
		r := randomRow(rng, width)
		if i%5 != 0 { // most records fixed-width, some walked
			for k := range r {
				if r[k].Typ == algebra.TString {
					r[k] = algebra.IntVal(int64(k * i))
				}
			}
		}
		for _, k := range keyColumns {
			switch x := rng.Intn(20); {
			case x < 12:
				r[k] = algebra.IntVal(int64(rng.Intn(12)))
			case x < 15:
				r[k] = algebra.DateVal(int64(rng.Intn(12)))
			case x < 18:
				r[k] = odd[rng.Intn(len(odd))]
			}
		}
		if _, err := h.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// randomGates draws up to three gates over a cursor's w positions: Test
// gates, and Key gates on a key column when the cursor reads one, on any
// position otherwise.
func randomGates(rng *rand.Rand, cols []int, w int) (specs []gateSpec) {
	for g := rng.Intn(4); g > 0 && w > 0; g-- {
		pos := []int{rng.Intn(w)}
		if rng.Intn(2) == 0 {
			for p, col := range cols {
				if slices.Contains(keyColumns, col) && rng.Intn(2) == 0 {
					pos[0] = p
				}
			}
			held := make([]int64, 1+rng.Intn(8))
			for i := range held {
				held[i] = int64(rng.Intn(12))
			}
			specs = append(specs, gateSpec{pos: pos, held: held})
			continue
		}
		if p := rng.Intn(w); p != pos[0] && rng.Intn(2) == 0 {
			pos = append(pos, p)
		}
		specs = append(specs, gateSpec{pos: pos, keep: []uint32{5, 50, 95}[rng.Intn(3)]})
	}
	return specs
}

// TestSharedPassMatchesPrivateCursors: every consumer of a shared pass is fed
// exactly the rows, in the same order, that a cursor of its own with the same
// columns and gates delivers, and skips and drops, gate by gate, as many
// records — whatever the other consumers read or gate, and when a consumer
// is busy for a while and is let go by the pass to finish alone. Key gates,
// which the pass tests for up to 64 consumers at once, are probed with NaNs,
// -0 and non-integral floats, shared by several consumers, held twice on one
// column by one, held by one alone, by 65 consumers (which the pass leaves
// to test their own) and set again after the pass has read a page. Each page
// a pass reads faults once, counted against one cursor; the pass is the only
// reader of the pages, so the cursors' faults are the pool's misses.
func TestSharedPassMatchesPrivateCursors(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	pool := NewBufferPool(NewPager(), 8)
	h := passTable(t, rng, pool)
	const width = 6
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
			specs[i] = randomGates(rng, cols[i], w)
		}
		var re *regate
		if who := rng.Intn(2 * k); who < k && len(cols[who]) != 0 {
			w := width
			if cols[who] != nil {
				w = len(cols[who])
			}
			re = &regate{who: who, specs: randomGates(rng, cols[who], w)}
		}
		busy := rng.Intn(k + 1) // k: nobody
		if re != nil {
			busy = k // a busy consumer's first page need not be the pass's
		}
		matchPrivate(t, fmt.Sprint("trial ", trial), pool, h, cols, specs, busy, re)
	}

	key := func(pos int, held ...int64) gateSpec { return gateSpec{pos: []int{pos}, held: held} }
	test := func(keep uint32, pos ...int) gateSpec { return gateSpec{pos: pos, keep: keep} }
	four := []int{0, 1, 3, 5} // key columns 0 and 3 at positions 0 and 2
	t.Run("shared key columns", func(t *testing.T) {
		matchPrivate(t, "", pool, h, [][]int{four, {0, 3}, nil, four}, [][]gateSpec{
			{test(50, 1), key(0, 1, 2, 3), key(2, 4, 5, 6, 7)},
			{key(1, 0, 2, 4, 6, 8, 10), key(0, 3)},
			{key(3, 1, 2, 3, 4, 5), test(95, 2), key(0, 2, 3, 4)},
			{key(0, 0, 1)},
		}, 4, nil)
	})
	t.Run("two key gates of one consumer on one column", func(t *testing.T) {
		matchPrivate(t, "", pool, h, [][]int{four, four, {1, 2}}, [][]gateSpec{
			{key(0, 1, 2, 3, 4, 5, 6), key(0, 4, 5, 6, 7, 8), test(50, 0, 1)},
			{key(0, 2, 4, 6, 8)},
			{test(50, 1)},
		}, 3, nil)
	})
	t.Run("a key gate nobody shares", func(t *testing.T) {
		matchPrivate(t, "", pool, h, [][]int{four, {2, 3}, {5}}, [][]gateSpec{
			{key(2, 0, 1, 2, 3)},
			{test(50, 0)},
			nil,
		}, 1, nil)
	})
	t.Run("65 consumers", func(t *testing.T) {
		cols, specs := make([][]int, 65), make([][]gateSpec, 65)
		for i := range cols {
			cols[i], specs[i] = four, []gateSpec{key(i%3, int64(i%12), int64(i%5)), key(0, 0, 1, 2, 3, 4, 5, 6)}
		}
		matchPrivate(t, "", pool, h, cols, specs, 65, nil)
	})
	t.Run("gates set again after a page", func(t *testing.T) {
		for who, specs := range [][]gateSpec{{key(0, 1, 2)}, nil, {test(50, 1), key(2, 3, 4, 5)}} {
			matchPrivate(t, fmt.Sprint("consumer ", who), pool, h, [][]int{four, four, four}, [][]gateSpec{
				{key(0, 0, 1, 2, 3, 4, 5)},
				{key(0, 2, 3, 4, 5, 6), key(2, 1, 2, 3, 4, 5, 6)},
				nil,
			}, 3, &regate{who: who, specs: specs})
		}
	})
}

// matchPrivate runs consumers with cols and the gates of specs over h, one by
// one each reading alone and then all through shared passes, with consumer
// busy (len(cols): none) busy for a while and re's gates set again after the
// first page, and compares what each saw.
func matchPrivate(t *testing.T, name string, pool *BufferPool, h *HeapFile, cols [][]int, specs [][]gateSpec, busy int, re *regate) {
	t.Helper()
	k := len(cols)
	consumers := func(res []scanResult) []*HeapCursor {
		cs := make([]*HeapCursor, k)
		for i := range cs {
			n := len(specs[i])
			if re != nil && re.who == i {
				n += len(re.specs)
			}
			res[i].dropped = make([]int64, n)
			cs[i] = h.Cursor(cols[i])
			cs[i].SetGates(gates(specs[i], res[i].dropped), nil)
		}
		return cs
	}

	want := make([]scanResult, k)
	for i, c := range consumers(want) {
		if re != nil && re.who == i {
			if err := c.readAlone(); err != nil { // the first page, as Next would
				t.Fatalf("%s: %v", name, err)
			}
			c.SetGates(gates(re.specs, want[i].dropped[len(specs[i]):]), nil)
		}
		for {
			r, ok, err := c.Next()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !ok {
				break
			}
			want[i].rows = append(want[i].rows, r.Clone())
		}
		want[i].skipped = c.Skipped()
	}

	got := make([]scanResult, k)
	cs := consumers(got)
	d := passDriver{cs: cs,
		take: func(i int, r Row) {
			if cap(r) != len(r) {
				t.Fatalf("%s: consumer %d was fed a row of len %d, cap %d", name, i, len(r), cap(r))
			}
			got[i].rows = append(got[i].rows, r.Clone())
		},
		busy: func(i, round int) bool { return i == busy && round%7 != 6 },
	}
	if re != nil {
		d.before = func(round int) {
			if round == 1 {
				cs[re.who].SetGates(gates(re.specs, got[re.who].dropped[len(specs[re.who]):]), nil)
			}
		}
	}
	misses := pool.Misses()
	if err := d.run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var faults int64
	for i, c := range cs {
		got[i].skipped = c.Skipped()
		faults += c.Faults()
		if c.Shared() != k {
			t.Errorf("%s: consumer %d says %d cursors shared its pass, want %d", name, i, c.Shared(), k)
		}
	}
	if m := pool.Misses() - misses; faults != m {
		t.Errorf("%s: the cursors counted %d faults, the pool %d", name, faults, m)
	}
	for i := range want {
		g, w := got[i], want[i]
		if !slices.EqualFunc(g.rows, w.rows, sameRow) {
			t.Fatalf("%s: consumer %d (cols %v, gates %v) was fed %d rows, alone it reads %d, or other rows",
				name, i, cols[i], specs[i], len(g.rows), len(w.rows))
		}
		if g.skipped != w.skipped || !slices.Equal(g.dropped, w.dropped) {
			t.Fatalf("%s: consumer %d skipped %d, dropped %v; alone %d, %v", name, i, g.skipped, g.dropped, w.skipped, w.dropped)
		}
	}
}

// sameRow reports whether two rows hold the same values, bit for bit: a NaN
// is the same as a NaN of its payload.
func sameRow(a, b Row) bool {
	return slices.EqualFunc(a, b, func(x, y algebra.Value) bool {
		return x.Typ == y.Typ && x.I == y.I && x.S == y.S && math.Float64bits(x.F) == math.Float64bits(y.F)
	})
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

// TestPassAllocatesPerPass: a pass of three key-gated cursors allocates per
// pass, not per page. Over a table of two numbers, whose pages hold more
// records than decodePage's arrays, and over one of six, a pass over three
// times the pages makes no more allocations.
func TestPassAllocatesPerPass(t *testing.T) {
	sizes := []int{10000, 30000}
	for _, width := range []int{2, 6} {
		var allocs [2]float64
		for i, rows := range sizes {
			h := NewHeapFile(NewBufferPool(NewPager(), 1024))
			for r := 0; r < rows; r++ {
				row := make(Row, width)
				for c := range row {
					row[c] = algebra.IntVal(int64((r*(c+3) + c) % 50))
				}
				if _, err := h.Insert(row); err != nil {
					t.Fatal(err)
				}
			}
			cs := make([]*HeapCursor, 3)
			for k := range cs {
				held := []int64{int64(k), int64(k + 10), int64(k + 20)}
				cs[k] = h.Cursor([]int{0, width - 1})
				cs[k].SetGates([]Gate{
					{Cols: []int{1}, Test: func(r Row) (bool, error) { return r[1].I%3 != 0, nil }},
					{Cols: []int{0}, Key: func(v algebra.Value) bool { return slices.Contains(held, v.I) }},
				}, nil)
			}
			fed := 0
			d := passDriver{cs: cs, take: func(int, Row) { fed++ }}
			if err := d.run(); err != nil { // slabs, and every page faulted in
				t.Fatal(err)
			}
			if fed == 0 {
				t.Fatalf("width %d: the gates kept no row", width)
			}
			allocs[i] = testing.AllocsPerRun(5, func() {
				if err := d.run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[1] > allocs[0] {
			t.Errorf("a pass over a table of %d columns allocates %v times over %d rows, %v over %d",
				width, allocs[0], sizes[0], allocs[1], sizes[1])
		}
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
// decoding four columns behind two gates — a key gate on a column all of
// them test, like the date key of a flight, and a Test gate on a column of
// its own — that keep about 2 % of the records: as k cursors that read alone
// (cursors), and as k cursors one pass feeds (pass), every page of it
// faulted once instead of k times and column 0 of a record decoded once for
// the key gates of all k.
func BenchmarkSharedScan(b *testing.B) {
	h := sharedTable(b)
	consumers := func(k int) []*HeapCursor {
		cs := make([]*HeapCursor, k)
		for i := range cs {
			own := 2 + i%4
			cs[i] = h.Cursor([]int{0, 1, own, 6 + i%4})
			cs[i].SetGates([]Gate{
				{Cols: []int{0}, Key: func(v algebra.Value) bool { return v.I%7 == 0 }},
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
