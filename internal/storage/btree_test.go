package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"mqo/internal/algebra"
)

// refTree is the insert this package had before nodes were searched and
// updated as bytes: every node on the path decoded whole, the changed one
// encoded whole, every key serialized once more to size it. It is the
// reference the in-place insert must match page for page.
type refTree struct {
	pool   *BufferPool
	root   PageID
	height int
}

func newRefTree(t testing.TB, pool *BufferPool) *refTree {
	bt, err := NewBTree(pool)
	if err != nil {
		t.Fatal(err)
	}
	return &refTree{pool: pool, root: bt.root, height: 1}
}

func (t *refTree) load(pid PageID) (n *btNode, err error) {
	err = t.pool.View(pid, func(data []byte) error {
		n, err = decodeNode(data)
		return err
	})
	return n, err
}

func (t *refTree) store(pid PageID, n *btNode) error {
	return t.pool.Update(pid, func(data []byte) error {
		encodeNode(data, n)
		return nil
	})
}

func (t *refTree) Insert(key algebra.Value, rid RID) error {
	promoted, right, split, err := t.insert(t.root, key, rid)
	if err != nil || !split {
		return err
	}
	newRoot, err := t.pool.AllocateWith(func(data []byte) {
		encodeNode(data, &btNode{keys: []algebra.Value{promoted}, children: []PageID{t.root, right}})
	})
	if err != nil {
		return err
	}
	t.root = newRoot
	t.height++
	return nil
}

func (t *refTree) insert(pid PageID, key algebra.Value, rid RID) (algebra.Value, PageID, bool, error) {
	n, err := t.load(pid)
	if err != nil {
		return algebra.Value{}, InvalidPage, false, err
	}
	if n.leaf {
		i := refBound(n.keys, key, false)
		n.keys = slices.Insert(n.keys, i, key)
		n.rids = slices.Insert(n.rids, i, rid)
		return t.storeOrSplit(pid, n)
	}
	ci := refBound(n.keys, key, true)
	promoted, right, split, err := t.insert(n.children[ci], key, rid)
	if err != nil || !split {
		return algebra.Value{}, InvalidPage, false, err
	}
	n.keys = slices.Insert(n.keys, ci, promoted)
	n.children = slices.Insert(n.children, ci+1, right)
	return t.storeOrSplit(pid, n)
}

func (t *refTree) storeOrSplit(pid PageID, n *btNode) (algebra.Value, PageID, bool, error) {
	size := nodeHdr
	for _, k := range n.keys {
		size += len(encodeRow(Row{k})) + childSize
		if n.leaf {
			size += ridSize - childSize
		}
	}
	if size <= PageSize {
		return algebra.Value{}, InvalidPage, false, t.store(pid, n)
	}
	mid := len(n.keys) / 2
	var rightNode *btNode
	var promoted algebra.Value
	if n.leaf {
		rightNode = &btNode{leaf: true, keys: n.keys[mid:], rids: n.rids[mid:], next: n.next}
		promoted = rightNode.keys[0]
		n.keys, n.rids = n.keys[:mid], n.rids[:mid]
	} else {
		promoted = n.keys[mid]
		rightNode = &btNode{keys: n.keys[mid+1:], children: n.children[mid+1:]}
		n.keys, n.children = n.keys[:mid], n.children[:mid+1]
	}
	rightPid, err := t.pool.AllocateWith(func(data []byte) { encodeNode(data, rightNode) })
	if err != nil {
		return algebra.Value{}, InvalidPage, false, err
	}
	if n.leaf {
		n.next = rightPid
	}
	return promoted, rightPid, true, t.store(pid, n)
}

// refBound bisects decoded keys with algebra.Compare: the first index with
// keys[i] >= key, or > key with after.
func refBound(keys []algebra.Value, key algebra.Value, after bool) int {
	return sort.Search(len(keys), func(i int) bool {
		c := algebra.Compare(keys[i], key)
		return c > 0 || (c == 0 && !after)
	})
}

// checkTreeAgainstReference inserts n seeded keys into the B-tree and into
// the reference, each on its own small pool, and after every 1000 wants the
// two page stores equal byte for byte, the trees of one shape, and the pools
// to have faulted and written back alike: the in-place insert reaches the
// pool as the reference does, except that a leaf with room is read and
// written in one access where the reference takes two.
func checkTreeAgainstReference(t *testing.T, n int, keyOf func(*rand.Rand) algebra.Value) (*BTree, []algebra.Value) {
	t.Helper()
	const poolPages, round = 24, 1000 // a pool far below either tree: nodes are evicted and come back
	got, ref := NewDB(poolPages), NewDB(poolPages)
	bt, err := NewBTree(got.Pool)
	if err != nil {
		t.Fatal(err)
	}
	rt := newRefTree(t, ref.Pool)
	rng := rand.New(rand.NewSource(99))
	var model []algebra.Value
	page := func(pool *BufferPool, id PageID) []byte {
		var out []byte
		if err := pool.View(id, func(data []byte) error { out = bytes.Clone(data); return nil }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	leaves := 1
	for len(model) < n {
		for i := 0; i < round; i++ {
			k, rid := keyOf(rng), RID{Page: PageID(len(model)), Slot: uint16(i % 97)}
			model = append(model, k)
			if err := bt.Insert(k, rid); err != nil {
				t.Fatal(err)
			}
			if err := rt.Insert(k, rid); err != nil {
				t.Fatal(err)
			}
		}
		if bt.root != rt.root || bt.height != rt.height {
			t.Fatalf("after %d inserts: root %d height %d, reference root %d height %d", len(model), bt.root, bt.height, rt.root, rt.height)
		}
		gs, rs := got.Pool.Stats(), ref.Pool.Stats()
		np := got.Pool.pager.NumPages()
		if rp := ref.Pool.pager.NumPages(); np != rp {
			t.Fatalf("after %d inserts: %d pages, reference %d", len(model), np, rp)
		}
		leavesNow := 0
		for id := PageID(0); int(id) < np; id++ {
			g, r := page(got.Pool, id), page(ref.Pool, id)
			if !bytes.Equal(g, r) {
				t.Fatalf("after %d inserts: page %d differs from the reference's", len(model), id)
			}
			if nodeIsLeaf(g) {
				leavesNow++
			}
		}
		// A leaf that splits is reached three times either way.
		if wantHits := rs.Hits - int64(round-(leavesNow-leaves)); gs.Reads != rs.Reads || gs.Writes != rs.Writes || gs.Hits != wantHits {
			t.Fatalf("after %d inserts: pool saw %+v, want the reference's %+v with %d hits", len(model), gs, rs, wantHits)
		}
		leaves = leavesNow
		got.Pool.ResetStats()
		ref.Pool.ResetStats()
	}
	sort.SliceStable(model, func(i, j int) bool { return algebra.Compare(model[i], model[j]) < 0 })
	return bt, model
}

// checkSeeks re-positions one iterator 1000 times and wants each position to
// agree with a fresh Seek and with the sorted model.
func checkSeeks(t *testing.T, bt *BTree, model []algebra.Value, keyOf func(*rand.Rand) algebra.Value) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	reused := bt.NewIter()
	if _, _, ok, err := reused.Next(); ok || err != nil {
		t.Fatalf("unpositioned iterator returned ok=%v err=%v", ok, err)
	}
	for trial := 0; trial < 1000; trial++ {
		from := keyOf(rng)
		if err := reused.Seek(from); err != nil {
			t.Fatal(err)
		}
		fresh, err := bt.Seek(from)
		if err != nil {
			t.Fatal(err)
		}
		idx := sort.Search(len(model), func(i int) bool { return algebra.Compare(model[i], from) >= 0 })
		for j := 0; j < 10; j++ {
			k, rid, ok, err := reused.Next()
			fk, frid, fok, ferr := fresh.Next()
			if err != nil || ferr != nil {
				t.Fatal(err, ferr)
			}
			if ok != fok || rid != frid || algebra.Compare(k, fk) != 0 {
				t.Fatalf("Seek(%v)[%d]: reused iterator at (%v, %v, %v), fresh at (%v, %v, %v)", from, j, k, rid, ok, fk, frid, fok)
			}
			if want := idx+j < len(model); ok != want {
				t.Fatalf("Seek(%v)[%d]: ok=%v, model says %v", from, j, ok, want)
			}
			if !ok {
				break
			}
			if algebra.Compare(k, model[idx+j]) != 0 {
				t.Fatalf("Seek(%v)[%d] = %v, model %v", from, j, k, model[idx+j])
			}
		}
	}
}

// TestBTreeAgainstModel cross-checks 20000 inserts of heavily duplicated
// numeric keys (ints, with dates and floats that tie with them) against the
// reference insert and a sorted model.
func TestBTreeAgainstModel(t *testing.T) {
	keyOf := func(rng *rand.Rand) algebra.Value {
		switch k := rng.Int63n(700); rng.Intn(8) {
		case 0:
			return algebra.DateVal(k)
		case 1:
			return algebra.FloatVal(float64(k) + float64(rng.Intn(2))/2)
		default:
			return algebra.IntVal(k)
		}
	}
	bt, model := checkTreeAgainstReference(t, 20000, keyOf)
	if bt.Height() < 2 {
		t.Errorf("height %d: no leaf ever split", bt.Height())
	}
	checkSeeks(t, bt, model, keyOf)
}

// TestBTreeStringKeys does the same with string keys of 0 to 60 bytes, long
// enough for the root to split too, and checks the whole order.
func TestBTreeStringKeys(t *testing.T) {
	keyOf := func(rng *rand.Rand) algebra.Value {
		k := rng.Intn(900)
		if k == 0 {
			return algebra.StringVal("")
		}
		return algebra.StringVal(fmt.Sprintf("%03d-%s", k, "ключ-key-0123456789-abcdefghijklmnopqrstuvwxyz-0123456789"[:k%57]))
	}
	bt, model := checkTreeAgainstReference(t, 20000, keyOf)
	if bt.Height() < 3 {
		t.Errorf("height %d: the root never split as an internal node", bt.Height())
	}
	checkSeeks(t, bt, model, keyOf)
	it, err := bt.SeekFirst()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		k, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != len(model) {
				t.Fatalf("iterated %d entries, want %d", i, len(model))
			}
			break
		}
		if k.S != model[i].S {
			t.Fatalf("entry %d = %q, model %q", i, k.S, model[i].S)
		}
	}
}

// compareCorpus holds the values where an order over encoded bytes could
// part from algebra.Compare: signed zeros, NaNs of either sign and another
// payload, infinities, ints beyond
// float precision, int-vs-float ties, and strings that are empty, prefixes
// of each other or not ASCII.
var compareCorpus = []algebra.Value{
	algebra.IntVal(0), algebra.IntVal(1), algebra.IntVal(-1), algebra.IntVal(2),
	algebra.IntVal(math.MaxInt64), algebra.IntVal(math.MaxInt64 - 1), algebra.IntVal(math.MinInt64),
	algebra.IntVal(1 << 53), algebra.IntVal(1<<53 + 1),
	algebra.DateVal(0), algebra.DateVal(1), algebra.DateVal(9131), algebra.DateVal(-3),
	algebra.FloatVal(0), algebra.FloatVal(math.Copysign(0, -1)), algebra.FloatVal(1), algebra.FloatVal(1.5),
	algebra.FloatVal(-1), algebra.FloatVal(2), algebra.FloatVal(9131), algebra.FloatVal(1 << 53),
	algebra.FloatVal(math.NaN()), algebra.FloatVal(math.Float64frombits(0xfff8000000000001)), algebra.FloatVal(math.Float64frombits(0x7ff8000000000ace)),
	algebra.FloatVal(math.Inf(1)), algebra.FloatVal(math.Inf(-1)),
	algebra.FloatVal(math.SmallestNonzeroFloat64), algebra.FloatVal(math.MaxFloat64),
	algebra.StringVal(""), algebra.StringVal("a"), algebra.StringVal("ab"), algebra.StringVal("abc"),
	algebra.StringVal("b"), algebra.StringVal("1"), algebra.StringVal("é"), algebra.StringVal("e"),
	algebra.StringVal("ключ"), algebra.StringVal("\x00"), algebra.StringVal("\xff\xfe"),
}

func sign(c int) int { return max(-1, min(1, c)) }

// TestCompareEncodedMatchesCompare: an encoded value orders against a key
// exactly as the decoded value does, and a damaged one is an error.
func TestCompareEncodedMatchesCompare(t *testing.T) {
	check := func(a, b algebra.Value) bool {
		// Whatever follows the value in the entry (a RID, the next entry)
		// takes no part.
		got, err := compareEncoded(append(appendValue(nil, a), 0xAB, 0xCD), b)
		return err == nil && sign(got) == sign(algebra.Compare(a, b))
	}
	for _, a := range compareCorpus {
		for _, b := range compareCorpus {
			if !check(a, b) {
				got, err := compareEncoded(appendValue(nil, a), b)
				t.Errorf("compareEncoded(%v, %v) = %d, %v; Compare says %d", a, b, got, err, algebra.Compare(a, b))
			}
		}
	}
	mk := func(kind uint8, i int64, f float64, s string) algebra.Value {
		switch kind % 4 {
		case 0:
			return algebra.IntVal(i)
		case 1:
			return algebra.DateVal(i % 100000)
		case 2:
			return algebra.FloatVal(f)
		}
		return algebra.StringVal(s[:min(len(s), 200)])
	}
	err := quick.Check(func(ka, kb uint8, i, j int64, f, g float64, s, u string) bool {
		// Small ints and their float twins make ties likely.
		return check(mk(ka, i, f, s), mk(kb, j, g, u)) && check(mk(ka, i%5, float64(j%5), s), mk(kb, j%5, float64(i%5), s))
	}, nil)
	if err != nil {
		t.Error(err)
	}

	for _, v := range []algebra.Value{algebra.IntVal(7), algebra.FloatVal(2.5), algebra.StringVal("abc"), algebra.StringVal("")} {
		enc := appendValue(nil, v)
		for cut := 0; cut < len(enc); cut++ {
			if c, err := compareEncoded(enc[:cut], v); err == nil {
				t.Errorf("%v cut to %d of %d bytes compared as %d", v, cut, len(enc), c)
			}
		}
	}
	if c, err := compareEncoded([]byte{9, 0, 0, 0, 0, 0, 0, 0, 0}, algebra.IntVal(0)); err == nil {
		t.Errorf("unknown type byte compared as %d", c)
	}
}

// TestBTreeRejectsDamagedNode: a node whose entries are cut short, of an
// unknown type or more than a page holds fails the search, it does not
// index out of the page.
func TestBTreeRejectsDamagedNode(t *testing.T) {
	db := NewDB(64)
	bt, err := NewBTree(db.Pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := bt.Insert(algebra.StringVal(fmt.Sprint("key", i)), RID{Page: PageID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	damage := func(name string, edit func(p []byte)) {
		var saved []byte
		if err := db.Pool.Update(bt.root, func(p []byte) error { saved = bytes.Clone(p); edit(p); return nil }); err != nil {
			t.Fatal(err)
		}
		if _, err := bt.Seek(algebra.StringVal("key3")); err == nil {
			t.Errorf("%s: Seek succeeded", name)
		}
		if err := bt.Insert(algebra.StringVal("key3"), RID{}); err == nil {
			t.Errorf("%s: Insert succeeded", name)
		}
		if err := db.Pool.Update(bt.root, func(p []byte) error { copy(p, saved); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	damage("unknown type", func(p []byte) { p[nodeHdr] = 9 })
	damage("string longer than the page", func(p []byte) { p[nodeHdr+1], p[nodeHdr+2] = 0xff, 0xff })
	damage("count beyond a page's entries", func(p []byte) { p[1], p[2] = 0xff, 0xff })
	damage("count beyond the used bytes", func(p []byte) { p[1], p[2] = 0xff, 0x01 })
	if _, err := bt.Seek(algebra.StringVal("key3")); err != nil {
		t.Errorf("restored node: %v", err)
	}
}

// TestBTreeAllocations pins what the byte-level paths allocate: nothing for
// an insert that does not split (the rare split's decoded node amortizes to
// under one), and for a point probe through a re-positioned iterator the
// fetched row alone.
func TestBTreeAllocations(t *testing.T) {
	db := NewDB(512)
	h := NewHeapFile(db.Pool)
	bt, err := NewBTree(db.Pool)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := int64(0); i < 3000; i++ {
		rid, err := h.Insert(Row{algebra.IntVal(i), algebra.StringVal("payload")})
		if err != nil {
			t.Fatal(err)
		}
		if err := bt.Insert(algebra.IntVal(i), rid); err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	next := int64(0)
	if avg := testing.AllocsPerRun(100, func() {
		if err := bt.Insert(algebra.IntVal(next), rids[next]); err != nil {
			t.Fatal(err)
		}
		next += 29
	}); avg > 1 {
		t.Errorf("insert allocates %.1f times, want at most 1", avg)
	}
	it, cols := bt.NewIter(), []int{0}
	if avg := testing.AllocsPerRun(100, func() {
		next = (next*31 + 7) % 3000
		if err := it.Seek(algebra.IntVal(next)); err != nil {
			t.Fatal(err)
		}
		k, rid, ok, err := it.Next()
		if err != nil || !ok || k.I != next {
			t.Fatal(k, ok, err)
		}
		if r, err := h.GetCols(nil, rid, cols); err != nil || r[0].I != next {
			t.Fatal(r, err)
		}
	}); avg > 3 {
		t.Errorf("point probe allocates %.1f times, want the row and at most 2 more", avg)
	}
}
