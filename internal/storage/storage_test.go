package storage

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mqo/internal/algebra"
)

func TestRowEncodeDecodeRoundTrip(t *testing.T) {
	rows := []Row{
		{algebra.IntVal(42), algebra.StringVal("hello"), algebra.FloatVal(3.25)},
		{algebra.DateVal(9000), algebra.IntVal(-7)},
		{algebra.StringVal("")},
		{},
	}
	for _, r := range rows {
		got, err := decodeRow(nil, encodeRow(r), nil)
		if err != nil {
			t.Fatalf("decode(%v): %v", r, err)
		}
		if len(got) != len(r) {
			t.Fatalf("round trip length mismatch: %v vs %v", got, r)
		}
		for i := range r {
			if algebra.Compare(got[i], r[i]) != 0 || got[i].Typ != r[i].Typ {
				t.Errorf("round trip value mismatch at %d: %v vs %v", i, got[i], r[i])
			}
		}
	}
}

// TestDecodeRowRejectsTruncation cuts an encoded row at every length: a cut
// on a value boundary decodes to the values before it, any other cut fails.
func TestDecodeRowRejectsTruncation(t *testing.T) {
	row := Row{algebra.IntVal(7), algebra.StringVal("abc"), algebra.FloatVal(1.5), algebra.StringVal(""), algebra.DateVal(9)}
	buf := encodeRow(row)
	boundary := map[int]int{0: 0}
	for i := range row {
		boundary[len(encodeRow(row[:i+1]))] = i + 1
	}
	for cut := 0; cut <= len(buf); cut++ {
		got, err := decodeRow(nil, buf[:cut], nil)
		if n, ok := boundary[cut]; ok {
			if err != nil || !slices.Equal(got, row[:n]) {
				t.Errorf("cut at %d: got %v, %v; want %v", cut, got, err, row[:n])
			}
		} else if err == nil {
			t.Errorf("cut at %d inside a value decoded to %v", cut, got)
		}
	}
	if _, err := decodeRow(nil, []byte{9, 0, 0, 0, 0, 0, 0, 0, 0}, nil); err == nil {
		t.Error("unknown type byte decoded")
	}
}

func TestRowEncodeDecodeQuick(t *testing.T) {
	f := func(i int64, fv float64, s string, d int64) bool {
		if len(s) > 1000 {
			s = s[:1000]
		}
		r := Row{algebra.IntVal(i), algebra.FloatVal(fv), algebra.StringVal(s), algebra.DateVal(d)}
		got, err := decodeRow(nil, encodeRow(r), nil)
		if err != nil || len(got) != 4 {
			return false
		}
		return got[0].I == i && got[1].F == fv && got[2].S == s && got[3].I == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeapFileInsertScanGet(t *testing.T) {
	db := NewDB(64)
	h := NewHeapFile(db.Pool)
	const n = 5000
	rids := make([]RID, n)
	for i := 0; i < n; i++ {
		rid, err := h.Insert(Row{algebra.IntVal(int64(i)), algebra.StringVal("row")})
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if h.Rows() != n {
		t.Fatalf("Rows() = %d, want %d", h.Rows(), n)
	}
	if h.NumPages() < 2 {
		t.Fatal("expected multiple pages")
	}
	// Scan order is insertion order.
	i := 0
	err := h.Scan(func(rid RID, r Row) error {
		if r[0].I != int64(i) {
			t.Fatalf("scan out of order at %d: got %d", i, r[0].I)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("scanned %d rows, want %d", i, n)
	}
	// Random access.
	for _, k := range []int{0, 1, 777, n - 1} {
		r, err := h.Get(rids[k])
		if err != nil {
			t.Fatal(err)
		}
		if r[0].I != int64(k) {
			t.Errorf("Get(%v) = %d, want %d", rids[k], r[0].I, k)
		}
	}
}

func TestHeapRejectsOversizedRow(t *testing.T) {
	db := NewDB(16)
	h := NewHeapFile(db.Pool)
	big := make([]byte, PageSize)
	if _, err := h.Insert(Row{algebra.StringVal(string(big))}); err == nil {
		t.Error("expected oversized row to be rejected")
	}
}

func TestBufferPoolEvictionPreservesData(t *testing.T) {
	db := NewDB(8) // tiny pool forces eviction
	h := NewHeapFile(db.Pool)
	const n = 3000
	for i := 0; i < n; i++ {
		if _, err := h.Insert(Row{algebra.IntVal(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	sum := int64(0)
	if err := h.Scan(func(rid RID, r Row) error { sum += r[0].I; return nil }); err != nil {
		t.Fatal(err)
	}
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Fatalf("sum after eviction = %d, want %d", sum, want)
	}
	if db.Pool.Stats().Reads == 0 || db.Pool.Stats().Writes == 0 {
		t.Error("expected physical reads and writes with a tiny pool")
	}
}

func TestBTreeInsertSearchOrdered(t *testing.T) {
	db := NewDB(256)
	bt, err := NewBTree(db.Pool)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(5000) // duplicates on purpose
		if err := bt.Insert(algebra.IntVal(keys[i]), RID{Page: PageID(i), Slot: uint16(i % 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if bt.Height() < 2 {
		t.Error("tree should have split")
	}
	// Full iteration yields all keys in sorted order.
	it, err := bt.SeekFirst()
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for {
		k, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, k.I)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(got) != n {
		t.Fatalf("iterated %d entries, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != keys[i] {
			t.Fatalf("order mismatch at %d: %d vs %d", i, got[i], keys[i])
		}
	}
}

func TestBTreeSeekRange(t *testing.T) {
	db := NewDB(256)
	bt, err := NewBTree(db.Pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := bt.Insert(algebra.IntVal(int64(i*2)), RID{Page: PageID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := bt.Seek(algebra.IntVal(501))
	if err != nil {
		t.Fatal(err)
	}
	k, _, ok, err := it.Next()
	if err != nil || !ok {
		t.Fatal("expected entry after seek")
	}
	if k.I != 502 {
		t.Errorf("Seek(501) landed on %d, want 502", k.I)
	}
}

func TestDBTablesAndIndexes(t *testing.T) {
	db := NewDB(128)
	schema := algebra.Schema{
		{Col: algebra.Col("emp", "id"), Typ: algebra.TInt},
		{Col: algebra.Col("emp", "dept"), Typ: algebra.TInt},
	}
	tab, err := db.CreateTable("emp", schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("emp", schema); err == nil {
		t.Error("duplicate CreateTable should fail")
	}
	for i := 0; i < 500; i++ {
		if _, err := tab.Heap.Insert(Row{algebra.IntVal(int64(i)), algebra.IntVal(int64(i % 7))}); err != nil {
			t.Fatal(err)
		}
	}
	bt, err := db.EnsureIndex(tab, "dept")
	if err != nil {
		t.Fatal(err)
	}
	it, err := bt.Seek(algebra.IntVal(3))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		k, rid, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok || k.I != 3 {
			break
		}
		r, err := tab.Heap.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if r[1].I != 3 {
			t.Fatalf("index pointed at wrong row %v", r)
		}
		count++
	}
	if count != 71 { // i%7==3 for i in [0,500): ceil(497/7) = 71 values
		t.Errorf("dept=3 count = %d, want 71", count)
	}
	if _, err := db.Table("none"); err == nil {
		t.Error("unknown table lookup should fail")
	}
	run := db.BeginRun()
	tmp := run.CreateTemp("t1", schema)
	if tmp == nil {
		t.Fatal("CreateTemp failed")
	}
	if got, err := run.Temp("t1"); err != nil || got != tmp {
		t.Errorf("Temp = %p, %v; want %p", got, err, tmp)
	}
	if _, err := db.BeginRun().Temp("t1"); err == nil {
		t.Error("another run sees the temp")
	}
	run.End()
	if _, err := run.Temp("t1"); err == nil || db.NumTemps() != 0 {
		t.Errorf("temp should be gone after End (%d live)", db.NumTemps())
	}
}

func TestCacheNamespaceSurvivesRuns(t *testing.T) {
	db := NewDB(64)
	schema := algebra.Schema{
		{Col: algebra.Col("r", "id"), Typ: algebra.TInt},
		{Col: algebra.Col("r", "v"), Typ: algebra.TFloat},
	}

	// Spool a cache table inside a run; it must outlive the run, while a
	// temp created in the same run must not.
	run := db.BeginRun()
	run.CreateTemp("scratch", schema)
	ct := db.CreateCache("rc1", schema)
	for i := int64(0); i < 100; i++ {
		if _, err := ct.Heap.Insert(Row{algebra.IntVal(i), algebra.FloatVal(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	run.End()

	if db.NumTemps() != 0 {
		t.Errorf("temps survived run end: %d", db.NumTemps())
	}
	got, err := db.Cache("rc1")
	if err != nil {
		t.Fatalf("cache table did not survive the run: %v", err)
	}
	if got.Heap.Rows() != 100 {
		t.Errorf("cache rows = %d, want 100", got.Heap.Rows())
	}

	// Real byte accounting: pages actually written times the page size.
	want := int64(got.Heap.NumPages()) * PageSize
	if want <= 0 {
		t.Fatal("cache table occupies no pages")
	}
	if b := db.CacheBytes("rc1"); b != want {
		t.Errorf("CacheBytes = %d, want %d", b, want)
	}
	if b := db.CacheBytes("nope"); b != 0 {
		t.Errorf("CacheBytes(unknown) = %d, want 0", b)
	}

	// A second run can read the spooled table.
	run2 := db.BeginRun()
	n := 0
	if err := got.Heap.Scan(func(RID, Row) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	run2.End()
	if n != 100 {
		t.Errorf("second run read %d rows, want 100", n)
	}

	// Eviction drops the table from the namespace.
	if db.NumCaches() != 1 || len(db.CacheNames()) != 1 {
		t.Errorf("NumCaches = %d, want 1", db.NumCaches())
	}
	db.DropCache("rc1")
	if _, err := db.Cache("rc1"); err == nil {
		t.Error("dropped cache table still resolvable")
	}
	if db.NumCaches() != 0 {
		t.Errorf("NumCaches after drop = %d, want 0", db.NumCaches())
	}
	db.DropCache("rc1") // no-op
	db.CreateCache("a", schema)
	db.CreateCache("b", schema)
	db.DropCaches()
	if db.NumCaches() != 0 {
		t.Error("DropCaches left cache tables behind")
	}
}

// BenchmarkDecodeRow decodes one row of a wide fact table (17 columns: ints,
// dates, floats and three short strings; wider than internal/ssb's
// lineorder, which has 10 numeric columns) into a reused buffer: all of it,
// and the four columns a star join typically reads. The strings make the
// record a walk; a row of lineorder's shape is read at fixed offsets.
func BenchmarkDecodeRow(b *testing.B) {
	wide := encodeRow(Row{
		algebra.IntVal(1501), algebra.IntVal(3), algebra.IntVal(2117), algebra.IntVal(155190), algebra.IntVal(828),
		algebra.DateVal(9131), algebra.StringVal("2-HIGH"), algebra.StringVal("0"), algebra.IntVal(17),
		algebra.FloatVal(2116823), algebra.FloatVal(18606909), algebra.IntVal(4), algebra.FloatVal(2032150.08),
		algebra.FloatVal(74711.7), algebra.IntVal(2), algebra.DateVal(9191), algebra.StringVal("REG AIR"),
	})
	numeric := encodeRow(Row{
		algebra.IntVal(1501), algebra.IntVal(2117), algebra.IntVal(155190), algebra.IntVal(828), algebra.IntVal(19950101),
		algebra.IntVal(17), algebra.FloatVal(21168.23), algebra.IntVal(4), algebra.FloatVal(20321.50), algebra.FloatVal(747.17),
	})
	for _, bc := range []struct {
		name string
		buf  []byte
		cols []int
		want int
	}{
		{"all", wide, nil, 17}, {"4of17", wide, []int{2, 4, 5, 12}, 4},
		{"fixed/all", numeric, nil, 10}, {"fixed/4of10", numeric, []int{1, 4, 5, 8}, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if fixedWidth(bc.buf) != strings.HasPrefix(bc.name, "fixed") {
				b.Fatalf("%s: fixed width is %v", bc.name, fixedWidth(bc.buf))
			}
			b.ReportAllocs()
			dst := make(Row, 0, 17)
			for b.Loop() {
				if r, err := decodeRow(dst, bc.buf, bc.cols); err != nil || len(r) != bc.want {
					b.Fatal(r, err)
				}
			}
		})
	}
}
