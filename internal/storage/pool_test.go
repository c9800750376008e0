package storage

import (
	"container/list"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"mqo/internal/algebra"
)

// The pool recycles a victim's frame into the fault that evicted it, which is
// only sound while no reader holds page bytes outside the pool latch. These
// tests put a reader in the position where it would: mid-scan, with its own
// callback (and other goroutines) evicting every frame of the pool. They fail
// against a pool that recycles frames under an accessor that hands the bytes
// out.

var hazardSchema = algebra.Schema{
	{Col: algebra.Col("t", "id"), Typ: algebra.TInt},
	{Col: algebra.Col("t", "k"), Typ: algebra.TInt},
	{Col: algebra.Col("t", "pad"), Typ: algebra.TString},
}

// hazardRow is row id of the table tagged tag: the model the scans are
// checked against.
func hazardRow(tag, id int64) Row {
	return Row{algebra.IntVal(id), algebra.IntVal((id*7919 + tag) % 311), algebra.StringVal(fmt.Sprintf("%d/%d/%0100d", tag, id, id*id))}
}

// hazardTable loads a table of at least pages pages.
func hazardTable(t testing.TB, db *DB, tag int64, pages int) (*Table, int64) {
	tab, err := db.CreateTable(fmt.Sprint("t", tag), hazardSchema)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(0)
	for ; tab.Heap.NumPages() <= pages; n++ {
		if _, err := tab.Heap.Insert(hazardRow(tag, n)); err != nil {
			t.Fatal(err)
		}
	}
	return tab, n
}

// scanUnderEviction scans tab while its callback faults every page of other
// — more pages than the pool has frames — so each page of
// tab is long evicted, and its frame refilled, before its rows are all
// delivered. It reports the first row that is not the model's.
func scanUnderEviction(tab *Table, tag, rows int64, other *Table) error {
	id := int64(0)
	err := tab.Heap.Scan(func(rid RID, r Row) error {
		if want := hazardRow(tag, id); !slices.Equal(r, want) {
			return fmt.Errorf("row %d at %v reads %v, want %v", id, rid, r, want)
		}
		if got, err := tab.Heap.Get(rid); err != nil || !slices.Equal(got, r) {
			return fmt.Errorf("Get(%v) = %v, %v; the scan read %v", rid, got, err, r)
		}
		id++
		// Last, so that the scanned page is out of the pool when the scan
		// moves on to its next row.
		return other.Heap.ScanCols([]int{0}, func(RID, Row) error { return nil })
	})
	if err == nil && id != rows {
		err = fmt.Errorf("scanned %d rows, want %d", id, rows)
	}
	return err
}

// pullUnderEviction is scanUnderEviction through a cursor: between pulls
// every frame of the pool is refilled, and the row pulled before must still
// read as the model's afterwards — it was decoded under the pool latch into
// the cursor's slab, not left pointing into the frame.
func pullUnderEviction(tab *Table, tag, rows int64, other *Table) error {
	c := tab.Heap.Cursor(nil)
	for id := int64(0); ; id++ {
		r, ok, err := c.Next()
		if err != nil {
			return err
		}
		if !ok {
			if id != rows {
				return fmt.Errorf("pulled %d rows, want %d", id, rows)
			}
			return nil
		}
		if id%4 == 0 { // several times a page
			if err := other.Heap.ScanCols([]int{0}, func(RID, Row) error { return nil }); err != nil {
				return err
			}
		}
		if want := hazardRow(tag, id); !slices.Equal(r, want) {
			return fmt.Errorf("row %d reads %v after the pool turned over, want %v", id, r, want)
		}
	}
}

// indexUnderEviction builds tab's index on k — EnsureIndex inserts into a
// B-tree on the scanned table's own pool from inside the scan's callback —
// and checks the index against the model: every row once, in key order, each
// entry pointing at a row with its key.
func indexUnderEviction(db *DB, tab *Table, tag, rows int64) error {
	bt, err := db.EnsureIndex(tab, "k")
	if err != nil {
		return err
	}
	it, err := bt.SeekFirst()
	if err != nil {
		return err
	}
	seen := make([]bool, rows)
	last := algebra.IntVal(-1)
	for n := int64(0); ; n++ {
		k, rid, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			if n != rows {
				return fmt.Errorf("index holds %d entries, want %d", n, rows)
			}
			return nil
		}
		r, err := tab.Heap.Get(rid)
		if err != nil {
			return err
		}
		id := r[0].I
		if id < 0 || id >= rows || seen[id] || !slices.Equal(r, hazardRow(tag, id)) || r[1] != k || algebra.Compare(last, k) > 0 {
			return fmt.Errorf("entry %d: key %v after %v points at %v", n, k, last, r)
		}
		seen[id], last = true, k
	}
}

func TestScanSurvivesEvictionByItsCallback(t *testing.T) {
	db := NewDB(8)
	tab, rows := hazardTable(t, db, 1, 200)
	other, _ := hazardTable(t, db, 2, 24)
	if err := scanUnderEviction(tab, 1, rows, other); err != nil {
		t.Error(err)
	}
	if err := pullUnderEviction(tab, 1, rows, other); err != nil {
		t.Error(err)
	}
	if err := indexUnderEviction(db, tab, 1, rows); err != nil {
		t.Error(err)
	}
}

// TestRecycledFramesConcurrent runs the same from four goroutines, each over
// its own tables, on one 8-frame pool: every frame changes hands
// between goroutines all the time. Run it under -race.
func TestRecycledFramesConcurrent(t *testing.T) {
	db := NewDB(8)
	type pair struct {
		tab, other *Table
		rows       int64
	}
	var pairs []pair
	for g := int64(0); g < 4; g++ {
		tab, rows := hazardTable(t, db, 2*g, 40)
		other, _ := hazardTable(t, db, 2*g+1, 12)
		pairs = append(pairs, pair{tab, other, rows})
	}
	var wg sync.WaitGroup
	for g, p := range pairs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := scanUnderEviction(p.tab, int64(2*g), p.rows, p.other); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
			if err := pullUnderEviction(p.tab, int64(2*g), p.rows, p.other); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
			if err := indexUnderEviction(db, p.tab, int64(2*g), p.rows); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
		}()
	}
	wg.Wait()
}

// TestAllocatedPageIsZeroed: a new page is born in a recycled frame once the
// pool is full, and must not carry the evicted page's bytes — a heap page's
// header is initialized, its body is not.
func TestAllocatedPageIsZeroed(t *testing.T) {
	db := NewDB(8)
	hazardTable(t, db, 1, 16)
	pid, err := db.Pool.AllocateWith(nil)
	if err != nil {
		t.Fatal(err)
	}
	err = db.Pool.View(pid, func(data []byte) error {
		for i, b := range data {
			if b != 0 {
				return fmt.Errorf("byte %d of a new page is %#x", i, b)
			}
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}

// TestScanAllocatesNoFrames: a scan of a table three times the pool faults
// every page into a recycled frame, so what it allocates is its row slabs
// and a little per page — far from the 4 KB a fresh frame per fault took.
func TestScanAllocatesNoFrames(t *testing.T) {
	db := NewDB(32)
	tab, rows := hazardTable(t, db, 1, 96)
	scan := func() {
		n := int64(0)
		if err := tab.Heap.ScanCols([]int{0, 1}, func(RID, Row) error { n++; return nil }); err != nil || n != rows {
			t.Fatal(n, err)
		}
	}
	scan()
	const scans = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < scans; i++ {
		scan()
	}
	runtime.ReadMemStats(&after)
	perScan := int64(after.TotalAlloc-before.TotalAlloc) / scans
	slabs := rows * 2 * int64(unsafe.Sizeof(algebra.Value{}))
	pages := int64(tab.Heap.NumPages())
	if limit := slabs + slabs/8 + 128*pages; perScan > limit { // an eighth: size-class rounding of the slabs
		t.Errorf("a scan of %d pages allocates %d bytes: more than its %d of slabs and 128 a page (%d)", pages, perScan, slabs, limit)
	}
	if got := db.Pool.Stats().Reads; got < scans*pages {
		t.Errorf("%d scans faulted %d pages, want every one of %d each time", scans, got, pages)
	}
}

// TestDirtyCountMatchesFrames: the pool's count of dirty frames follows every
// change of a frame's dirty bit — allocation, update, a failed update,
// eviction's write-back and Flush — so a Flush that finds the count at zero
// may skip its walk, and one that does not writes exactly the dirty pages.
func TestDirtyCountMatchesFrames(t *testing.T) {
	bp := NewBufferPool(NewPager(), 16)
	check := func(when string, wantDirty int64) {
		t.Helper()
		n := int64(0)
		bp.mu.Lock()
		for _, f := range bp.frames {
			if f.dirty {
				n++
			}
		}
		bp.mu.Unlock()
		if got := bp.dirty.Load(); got != n || n != wantDirty {
			t.Errorf("%s: count %d, %d frames dirty, want %d", when, got, n, wantDirty)
		}
	}
	flush := func(when string, wantWrites int64) {
		t.Helper()
		before := bp.Stats().Writes
		if err := bp.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := bp.Stats().Writes - before; got != wantWrites {
			t.Errorf("%s: Flush wrote %d pages, want %d", when, got, wantWrites)
		}
		check(when+", flushed", 0)
	}
	var ids []PageID
	for range 8 {
		id, err := bp.AllocateWith(nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	check("8 allocated", 8)
	flush("8 allocated", 8)
	flush("clean", 0)

	touch := func(data []byte) error { data[0]++; return nil }
	for _, id := range ids[:3] {
		if err := bp.Update(id, touch); err != nil {
			t.Fatal(err)
		}
		if err := bp.Update(id, touch); err != nil { // dirty already
			t.Fatal(err)
		}
		if err := bp.View(id, func([]byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := bp.Update(ids[3], func([]byte) error { return fmt.Errorf("no") }); err == nil {
		t.Fatal("a failing update succeeded")
	}
	check("3 updated", 3)
	flush("3 updated", 3)

	// Sixteen more pages evict the first eight, dirty ones written back.
	for _, id := range ids[:4] {
		if err := bp.Update(id, touch); err != nil {
			t.Fatal(err)
		}
	}
	before := bp.Stats().Writes
	for range 16 {
		if _, err := bp.AllocateWith(nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := bp.Stats().Writes - before; got != 4 {
		t.Errorf("evicting 4 dirty pages wrote %d", got)
	}
	check("after eviction", 16)
	flush("after eviction", 16)
}

// TestReplacedTablesFreeTheirPages: a table created under a name some table
// already has replaces it, and the replaced table's pages go back to the
// pager as a dropped one's do. Each way of replacing one — a cache spooled
// again, a temp materialized again, a warm table promoted over a RAM copy —
// does so 50 times, and after the first replacement the pager holds as many
// pages as it ever will.
func TestReplacedTablesFreeTheirPages(t *testing.T) {
	fill := func(t *testing.T, tab *Table, tag int64) {
		for id := int64(0); tab.Heap.NumPages() < 10; id++ {
			if _, err := tab.Heap.Insert(hazardRow(tag, id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var run *RunTemps // the CreateTemp case's run
	for _, c := range []struct {
		name    string
		replace func(t *testing.T, db *DB, i int64)
	}{
		{"CreateCache", func(t *testing.T, db *DB, i int64) { fill(t, db.CreateCache("c", hazardSchema), i) }},
		{"CreateTemp", func(t *testing.T, db *DB, i int64) { fill(t, run.CreateTemp("c", hazardSchema), i) }},
		{"PromoteWarm", func(t *testing.T, db *DB, i int64) {
			if i == 0 {
				fill(t, db.CreateCache("c", hazardSchema), i)
				if _, err := db.DemoteCache("c"); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.PromoteWarm("c"); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := NewDB(16)
			defer db.CloseWarm()
			run = db.BeginRun()
			defer run.End()
			var after1 int
			for i := int64(0); i <= 50; i++ {
				c.replace(t, db, i)
				if pages := db.Pool.NumPages(); i == 1 {
					after1 = pages
				} else if i > 1 && pages != after1 {
					t.Fatalf("after replacement %d the pager holds %d pages, %d after the first", i, pages, after1)
				}
			}
		})
	}
}

// TestDroppedTablePagesAreReused: a dropped temp table's pages, heap and
// index, go back to the pager without being written back, and the next table
// is built on them, reading its own rows and none of the dropped one's.
func TestDroppedTablePagesAreReused(t *testing.T) {
	db := NewDB(16)
	run := db.BeginRun()
	tab := run.CreateTemp("t", hazardSchema)
	for id := int64(0); tab.Heap.NumPages() < 40; id++ {
		if _, err := tab.Heap.Insert(hazardRow(1, id)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.EnsureIndex(tab, "k"); err != nil {
		t.Fatal(err)
	}
	pages, writes := db.Pool.NumPages(), db.Pool.Stats().Writes
	run.End()
	if w := db.Pool.Stats().Writes; w != writes {
		t.Errorf("dropping the table wrote back %d pages, want none", w-writes)
	}
	if err := db.Pool.Flush(); err != nil || db.Pool.Stats().Writes != writes {
		t.Errorf("a flush after the drop wrote %d pages (%v), want none: the dropped frames stayed dirty",
			db.Pool.Stats().Writes-writes, err)
	}
	again := db.BeginRun().CreateTemp("u", hazardSchema)
	var n int64
	for ; again.Heap.NumPages() < 40; n++ {
		if _, err := again.Heap.Insert(hazardRow(2, n)); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Pool.NumPages(); got != pages {
		t.Errorf("the second table grew the pager from %d to %d pages, want the first one's reused", pages, got)
	}
	id := int64(0)
	if err := again.Heap.Scan(func(_ RID, r Row) error {
		if want := hazardRow(2, id); !slices.Equal(r, want) {
			return fmt.Errorf("row %d reads %v, want %v", id, r, want)
		}
		id++
		return nil
	}); err != nil || id != n {
		t.Fatalf("scanned %d of %d rows: %v", id, n, err)
	}
}

// poolModel is the reference the buffer pool is held to: one container/list
// LRU of max(n, 8) resident pages, front most recently used, over a pager
// model that hands freed page ids out again last in, first out.
type poolModel struct {
	cap      int
	lru      *list.List // of *modelPage
	resident map[PageID]*list.Element
	value    map[PageID]byte // what each live page's first byte holds
	freed    []PageID        // the pager's free list
	pages    int             // pages the pager ever allocated
	dirty    int64
	spare    int // frames of freed pages waiting for a fault
	frames   int // frames the pool ever made
	io       IOStats
}

type modelPage struct {
	id    PageID
	dirty bool
}

// fault makes room for one more resident page: a spare frame, a new one, or
// the least recently used page's, written back if dirty.
func (m *poolModel) fault() {
	switch {
	case len(m.resident) < m.cap && m.spare > 0:
		m.spare--
	case len(m.resident) < m.cap:
		m.frames++
	default:
		victim := m.lru.Remove(m.lru.Back()).(*modelPage)
		delete(m.resident, victim.id)
		if victim.dirty {
			m.io.Writes++
			m.dirty--
		}
	}
	m.io.Reads++
}

// access is View (write false) or Update of id; a failed update dirties
// nothing.
func (m *poolModel) access(id PageID, write, fails bool) {
	el, ok := m.resident[id]
	if ok {
		m.io.Hits++
		m.lru.MoveToFront(el)
	} else {
		m.fault()
		el = m.lru.PushFront(&modelPage{id: id})
		m.resident[id] = el
	}
	if p := el.Value.(*modelPage); write && !fails && !p.dirty {
		p.dirty = true
		m.dirty++
	}
}

func (m *poolModel) allocate() PageID {
	var id PageID
	if n := len(m.freed); n > 0 {
		id, m.freed = m.freed[n-1], m.freed[:n-1]
	} else {
		id = PageID(m.pages)
		m.pages++
	}
	m.fault()
	m.resident[id] = m.lru.PushFront(&modelPage{id: id, dirty: true})
	m.dirty++
	return id
}

func (m *poolModel) free(ids []PageID) {
	for _, id := range ids {
		if el, ok := m.resident[id]; ok {
			if el.Value.(*modelPage).dirty {
				m.dirty--
			}
			m.lru.Remove(el)
			delete(m.resident, id)
			m.spare++
		}
		delete(m.value, id)
	}
	m.freed = append(m.freed, ids...)
}

func (m *poolModel) flush() {
	for el := m.lru.Front(); el != nil; el = el.Next() {
		if p := el.Value.(*modelPage); p.dirty {
			p.dirty = false
			m.io.Writes++
		}
	}
	m.dirty = 0
}

// TestPoolMatchesLRUModel drives a pool through a seeded random sequence of
// View, Update (some failing), AllocateWith, Free and Flush over about twice
// as many pages as it has frames, at capacities 8, 13 and 64. After every
// step the pool must agree with poolModel: the I/O counters, the resident
// pages in LRU order, the dirty count and dirty frames, the page ids
// allocation hands out, how many freed frames wait for reuse and how many
// frames the pool ever made — and every page read holds what was last
// written to it.
func TestPoolMatchesLRUModel(t *testing.T) {
	for _, n := range []int{8, 13, 64} {
		t.Run(fmt.Sprint("capacity=", n), func(t *testing.T) {
			bp := NewBufferPool(NewPager(), n)
			m := &poolModel{cap: max(n, 8), lru: list.New(), resident: map[PageID]*list.Element{}, value: map[PageID]byte{}}
			rng := rand.New(rand.NewSource(int64(n)))
			made := map[*frame]bool{}
			var live []PageID
			for step := 0; step < 4000; step++ {
				var op string
				switch r := rng.Intn(100); {
				case r < 15 || len(live) < 2*m.cap && r < 40:
					op = "AllocateWith"
					v := byte(rng.Intn(256))
					id, err := bp.AllocateWith(func(data []byte) { data[0] = v })
					if err != nil {
						t.Fatal(err)
					}
					if want := m.allocate(); id != want {
						t.Fatalf("step %d: AllocateWith returned page %d, want %d", step, id, want)
					}
					live = append(live, id)
					m.value[id] = v
				case r < 20:
					op = "Free"
					rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
					k := min(len(live), 1+rng.Intn(3))
					ids := slices.Clone(live[len(live)-k:])
					live = live[:len(live)-k]
					bp.Free(ids)
					m.free(ids)
				case r < 23:
					op = "Flush"
					if err := bp.Flush(); err != nil {
						t.Fatal(err)
					}
					m.flush()
				case len(live) == 0:
					continue
				case r < 60:
					op = "View"
					id := live[rng.Intn(len(live))]
					var got byte
					if err := bp.View(id, func(data []byte) error { got = data[0]; return nil }); err != nil {
						t.Fatal(err)
					}
					if got != m.value[id] {
						t.Fatalf("step %d: page %d reads %d, want %d", step, id, got, m.value[id])
					}
					m.access(id, false, false)
				default:
					op = "Update"
					id, v, fails := live[rng.Intn(len(live))], byte(rng.Intn(256)), rng.Intn(10) == 0
					err := bp.Update(id, func(data []byte) error {
						if fails {
							return fmt.Errorf("no")
						}
						data[0] = v
						return nil
					})
					if (err != nil) != fails {
						t.Fatalf("step %d: Update returned %v", step, err)
					}
					if !fails {
						m.value[id] = v
					}
					m.access(id, true, fails)
				}

				if got := bp.Stats(); got != m.io {
					t.Fatalf("step %d (%s): I/O %+v, model %+v", step, op, got, m.io)
				}
				bp.mu.Lock()
				var order []PageID
				dirty := int64(0)
				for f := bp.head; f != nil; f = f.next {
					order = append(order, f.id)
					if f.dirty {
						dirty++
					}
					made[f] = true
				}
				for _, f := range bp.spare {
					made[f] = true
				}
				resident, spare := len(bp.frames), len(bp.spare)
				bp.mu.Unlock()
				var want []PageID
				for el := m.lru.Front(); el != nil; el = el.Next() {
					want = append(want, el.Value.(*modelPage).id)
				}
				if !slices.Equal(order, want) || resident != len(want) {
					t.Fatalf("step %d (%s): resident %v (%d framed), model %v", step, op, order, resident, want)
				}
				if got := bp.dirty.Load(); got != m.dirty || dirty != m.dirty {
					t.Fatalf("step %d (%s): dirty count %d, %d frames dirty, model %d", step, op, got, dirty, m.dirty)
				}
				if spare != m.spare || len(made) != m.frames {
					t.Fatalf("step %d (%s): %d spare frames of %d made, model %d of %d", step, op, spare, len(made), m.spare, m.frames)
				}
			}
			if m.io.Hits == 0 || m.io.Writes == 0 || m.frames != m.cap || m.pages <= m.cap {
				t.Errorf("the sequence never hit, wrote back or filled the pool: %+v, %d frames, %d pages", m.io, m.frames, m.pages)
			}
		})
	}
}
