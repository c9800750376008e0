package exec

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"mqo/internal/algebra"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/ssb"
	"mqo/internal/storage"
)

// poisonedLists stands in for a pool's free lists under PoisonReleases. It
// drops nothing and hands out first what was given back last, so a buffer is
// reused at the first chance; it overwrites every buffer given back with
// spoil's garbage; and it fails the test when a buffer is given back twice
// without being handed out in between.
type poisonedLists[T any] struct {
	t     testing.TB
	spoil func([]T, int64)
	mu    sync.Mutex
	puts  int64
	free  map[int][]unsafe.Pointer
	given map[unsafe.Pointer]bool
}

func (l *poisonedLists[T]) get(class int) unsafe.Pointer {
	l.mu.Lock()
	defer l.mu.Unlock()
	free := l.free[class]
	if len(free) == 0 {
		return nil
	}
	p := free[len(free)-1]
	l.free[class] = free[:len(free)-1]
	delete(l.given, p)
	return p
}

func (l *poisonedLists[T]) put(class int, p unsafe.Pointer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.given[p] {
		l.t.Errorf("a %T buffer of class %d was given back twice", *new(T), class)
		return
	}
	l.puts++
	l.spoil(unsafe.Slice((*T)(p), classSize(class)), l.puts)
	l.given[p] = true
	l.free[class] = append(l.free[class], p)
}

func poisoned[T any](p *pooled[T], t testing.TB, spoil func([]T, int64)) {
	was := p.free
	p.free = &poisonedLists[T]{t: t, spoil: spoil, free: map[int][]unsafe.Pointer{}, given: map[unsafe.Pointer]bool{}}
	t.Cleanup(func() { p.free = was })
}

// PoisonReleases makes every pool the operators keep rows in poisoned until
// the test ends (poisonedLists): a row read after the operator that kept it
// closed — the moment its storage goes back — reads garbage, different at
// every release, and one read while another operator reuses the storage
// reads that operator's rows.
func PoisonReleases(t testing.TB) {
	poisoned(slabs, t, func(s []algebra.Value, n int64) {
		for i := range s {
			s[i] = garbage(s[i].Typ, n)
		}
	})
	poisoned(headers, t, func(s []storage.Row, _ int64) { clear(s) })
	poisoned(sortKeys, t, func(s []keyed, _ int64) {
		for i := range s {
			s[i] = keyed{key: uint64(i), at: -1}
		}
	})
	poisoned(uint64s, t, func(s []uint64, n int64) {
		for i := range s {
			s[i] = uint64(n)
		}
	})
	poisoned(int32s, t, func(s []int32, _ int64) {
		for i := range s {
			s[i] = -1
		}
	})
}

// garbage is a value of type typ that no workload holds, the nth of its kind.
func garbage(typ algebra.Type, n int64) algebra.Value {
	// The type stays, so that the garbage is compared and added up like a
	// value rather than tripping a type check.
	return algebra.Value{Typ: typ, I: math.MinInt64 + 7 + n, F: -1.2345e300 * float64(n+1), S: "\x00spoiled"}
}

// TestSizeClasses: every class's buffers hold the lengths it is asked for,
// at most 1/16 more, and the classes run 0, 1, 2, … with no gaps.
func TestSizeClasses(t *testing.T) {
	for c := range numClasses {
		if class, size := sizeClass(classSize(c)); class != c || size != classSize(c) {
			t.Fatalf("class %d of size %d: sizeClass gives class %d of size %d", c, classSize(c), class, size)
		}
	}
	for n := 0; n <= classSize(numClasses-1)+1; n += 1 + n/97 {
		class, size := sizeClass(n)
		if size < n || size-n > n/16 || (class < numClasses) != (n <= classSize(numClasses-1)) {
			t.Fatalf("%d elements: class %d of size %d", n, class, size)
		}
	}
}

// TestListsKeepAtMostKeepBytes: the free lists hand out a class's newest
// buffer first, keep none larger than keepBytes, and empty themselves rather
// than keep more than keepBytes in all.
func TestListsKeepAtMostKeepBytes(t *testing.T) {
	l := &lists{elem: 8}
	buffer := func(class int) unsafe.Pointer {
		return unsafe.Pointer(unsafe.SliceData(make([]uint64, classSize(class))))
	}
	class, size := sizeClass(1000)
	a, b := buffer(class), buffer(class)
	l.put(class, a)
	l.put(class, b)
	if got := [3]unsafe.Pointer{l.get(class), l.get(class), l.get(class)}; got != [3]unsafe.Pointer{b, a, nil} || l.held != 0 {
		t.Fatalf("handed out %v holding %d bytes, want %v and 0", got, l.held, [3]unsafe.Pointer{b, a, nil})
	}
	big, _ := sizeClass(keepBytes/8 + 1)
	if l.put(big, buffer(big)); l.get(big) != nil || l.held != 0 {
		t.Fatalf("kept a buffer of %d bytes, over keepBytes", classSize(big)*8)
	}
	fit := keepBytes / (size * 8)
	for range fit {
		l.put(class, buffer(class))
	}
	if l.held != fit*size*8 {
		t.Fatalf("holding %d bytes after %d buffers of %d", l.held, fit, size*8)
	}
	last := buffer(class)
	l.put(class, last)
	if l.held != size*8 || l.get(class) != last || l.get(class) != nil {
		t.Fatalf("a buffer past keepBytes left %d bytes held, want the lists emptied and holding it alone", l.held)
	}
}

// TestAnswersOutliveLaterRuns: a run's answers are its own. After SSB
// flight 1's run, the other flights and flight 1 again run on the same
// database under poisoned pools, which overwrite and hand out again every
// buffer an operator gives back; flight 1's first answers are still what
// they were, bit for bit, and the reference's.
func TestAnswersOutliveLaterRuns(t *testing.T) {
	PoisonReleases(t)
	db := storage.NewDB(64)
	if err := ssb.LoadDB(db, 0.002, 3); err != nil {
		t.Fatal(err)
	}
	model := cost.DefaultModel()
	run := func(f int) []QueryResult {
		pd, err := core.BuildDAG(ssb.Catalog(0.002), model, ssb.Flight(f))
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Run(context.Background(), db, model, res.Plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	first := run(1)
	var copied [][]storage.Row
	for _, q := range first {
		rows := make([]storage.Row, len(q.Rows))
		for i, r := range q.Rows {
			rows[i] = slices.Clone(r)
		}
		copied = append(copied, rows)
	}
	for _, f := range []int{2, 3, 4, 1, 3} {
		run(f)
	}
	for i, q := range first {
		if !slices.EqualFunc(q.Rows, copied[i], sameValues) || len(q.Rows) == 0 {
			t.Fatalf("query %d's %d rows changed under later runs", i, len(q.Rows))
		}
		rows, schema, err := Reference(db, ssb.Flight(1)[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualRows(q, QueryResult{Schema: schema, Rows: rows}, 1e-9) {
			t.Fatalf("query %d: %v, the reference's %v", i, q.Rows, rows)
		}
	}
}

// TestWarmRunAllocatesItsAnswers: once the pools hold what a plan's operators
// keep, a run of an SSB flight under Greedy allocates its answers and,
// besides them, at most 400 KB, however many rows its sorts and joins hold:
// the operators and their compiled predicates, the scheduler, a page of rows
// for each scan's cursor and the encoded records of what the run
// materializes. Flight 4, whose materialization writes ~140 KB of records,
// allocates ~350 KB a run; with every sort and join allocating its copies
// afresh, as they did before the pools, it allocates 2.6 MB, and flight 2
// 0.7 MB.
func TestWarmRunAllocatesItsAnswers(t *testing.T) {
	const bound = 400 << 10
	db := storage.NewDB(512)
	if err := ssb.LoadDB(db, 0.002, 3); err != nil {
		t.Fatal(err)
	}
	model := cost.DefaultModel()
	for f := 1; f <= ssb.NumFlights; f++ {
		pd, err := core.BuildDAG(ssb.Catalog(0.002), model, ssb.Flight(f))
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var answers int
		run := func() {
			got, _, err := Run(context.Background(), db, model, res.Plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			answers = 0
			for _, q := range got {
				answers += cap(q.Rows) * int(unsafe.Sizeof(storage.Row{}))
				for _, r := range q.Rows {
					answers += len(r) * int(unsafe.Sizeof(algebra.Value{}))
				}
			}
		}
		for range 3 {
			run()
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		perRun := int(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("flight %d: %d bytes a run, %d of them answers", f, perRun, answers)
		if perRun-answers > bound {
			t.Errorf("flight %d: a warm run allocates %d bytes, %d beyond its %d bytes of answers; want at most %d",
				f, perRun, perRun-answers, answers, bound)
		}
	}
}
