package exec

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"slices"

	"mqo/internal/algebra"
	"mqo/internal/storage"
)

// Iterator is the Volcano open-next-close interface. Next returns ok=false
// at end of stream.
//
// A row returned by Next is valid until the next Next or Close on that
// iterator, and is not the caller's to write. An operator that streams hands
// on the row it was given, or one scratch row it rewrites; an operator that
// keeps a row across its child's next Next — a sort, a join's buffered side,
// an aggregate's group, whoever collects results — copies it into storage of
// its own (a rowArena). So a row is copied once by whoever keeps it and never
// by whoever passes it on. Validity is per iterator: pulling one child does
// not disturb the row last pulled from another. Nor does the contract fix
// the order in which an operator pulls its children: a block nested-loops
// join drains its right input in Open and then streams its left, or drains
// the left first and the right after it, as its builder's estimate says, and
// does not open the other at all when the one it holds came out empty. So
// Close may be called on an iterator that was never opened. Open may be
// called again after Close (Invoke re-runs its body per binding).
//
// Close ends every row the iterator handed out: an operator that keeps rows
// gives its storage back to pools every run shares, and another operator,
// of this run or another, may be writing it the moment Close returns.
type Iterator interface {
	Open() error
	Next() (storage.Row, bool, error)
	Close() error
	Schema() algebra.Schema
}

// bufferedRows is what the child's buffered method promises, 0 without one.
func bufferedRows(child Iterator) int {
	if b, ok := child.(interface{ buffered() int }); ok {
		return b.buffered()
	}
	return 0
}

// tableScan streams the kept columns of a heap file's rows, holding the rows
// of a page or so at a time. In a run its cursor is fed by the run's shared
// passes (sched), elsewhere it reads alone. Operators above it may hand it
// gates (gate), tests its cursor runs on a record's gate columns to drop the
// row undecoded.
type tableScan struct {
	kept
	cur   *storage.HeapCursor
	poll  ctxPoll    // with a context, polled once per row the gates drop
	gates *scanGates // nil until an operator hands the scan a gate
}

// scanGates is what a scan holds once it has been handed a gate: kept apart
// so that a scan nobody gates, the most common kind, stays small.
type scanGates struct {
	owned []ownedGate    // in the order they were handed down
	list  []storage.Gate // the cursor's, which it reorders; rebuilt from owned
	poll  func() error   // the scan's poll.err, bound once; nil without a context
}

// ownedGate is a gate and the operator that handed it down.
type ownedGate struct {
	by any
	g  *gate
}

// A gate is a test an operator hands down to the scan that produces the
// columns it reads, through the operators in between (see tableScan.gate):
// a Filter's predicate, or a keyed BNLJoin's "has this key a bucket?". cols
// are positions in the rows of the operator it is handed to. It sets test
// or, for a key on one column, key: a test given that column's value alone,
// which a pass feeding several scans runs for them all (storage.Gate).
type gate struct {
	cols []int
	test predFunc
	key  func(algebra.Value) bool
	// keys is the join whose buckets a key gate tests: such a gate can be
	// rebuilt at other positions, where a Filter's compiled predicate cannot.
	keys *nlJoin
	// dropped counts the rows the gate was the first to drop at a scan: its
	// owner's NodeProfile.Gated.
	dropped *int64
	// inner is the gate rebuilt at positions moved back by shift, built once
	// for the join that forwards it to its inner input on every Open.
	inner *gate
	shift int
}

// moved is g at positions moved back by shift, nil for a gate that cannot be
// rebuilt.
func (g *gate) moved(shift int) *gate {
	if g.keys == nil {
		return nil
	}
	if g.inner == nil || g.shift != shift {
		cols := make([]int, len(g.cols))
		for i, c := range g.cols {
			cols[i] = c - shift
		}
		g.inner, g.shift = g.keys.keyGate(cols, g.dropped), shift
	}
	return g.inner
}

// newTableScan creates a scan of the need columns of a stored table, whose
// schema the caller has already alias-qualified.
func newTableScan(heap *storage.HeapFile, stored algebra.Schema, need colNeed) *tableScan {
	k := need.of(stored)
	return &tableScan{kept: k, cur: heap.Cursor(k.cols)}
}

// Open reads nothing: pages are faulted as Next reaches them, so a consumer
// that stops early leaves the rest of the file alone.
func (s *tableScan) Open() error { s.cur.Rewind(); return nil }

func (s *tableScan) Next() (storage.Row, bool, error) { return s.cur.Next() }

// Close takes the cursor out of the pass feeding it.
func (s *tableScan) Close() error { s.cur.Leave(); return nil }

func (s *tableScan) Schema() algebra.Schema { return s.schema }

// buffered is the optional method of an operator that knows how many rows it
// has still to deliver, so a consumer that keeps them sizes its storage once.
// A gated scan does not know: what its cursor has still to examine is only an
// upper bound, and 0 is "unknown".
func (s *tableScan) buffered() int {
	if s.gates != nil && len(s.gates.owned) > 0 {
		return 0
	}
	return int(s.cur.Remaining())
}

// gate is the optional method of an operator that can drop rows before they
// are decoded, or that passes on to its inputs the gates of the operators
// above it: it sets the gate owned by by, replacing the one by set before; a
// nil gate withdraws it. ok reports that a scan took the gate. The cursor
// tests a scan's gates one at a time and the first to fail a row drops it,
// counted in that gate's dropped. A gate is only a pre-filter: a row it errs
// on is kept, and its owner still decides every row it receives, so a gate
// changes what is decoded, never an answer or an error. Which pages are read
// it does not change either; that a join whose held input came out empty
// never opens its other one (nlJoin) does.
func (s *tableScan) gate(by any, g *gate) (ok bool) {
	if s.gates == nil {
		if g == nil {
			return true
		}
		s.gates = &scanGates{}
		if s.poll.ctx != nil {
			s.gates.poll = s.poll.err
		}
	}
	owned := s.gates.owned[:0]
	for _, o := range s.gates.owned {
		if o.by != by {
			owned = append(owned, o)
		}
	}
	if g != nil {
		owned = append(owned, ownedGate{by: by, g: g})
	}
	list := s.gates.list[:0]
	for _, o := range owned {
		list = append(list, storage.Gate{Cols: o.g.cols, Key: o.g.key, Test: o.g.test, Dropped: o.g.dropped})
	}
	s.gates.owned, s.gates.list = owned, list
	s.cur.SetGates(list, s.gates.poll)
	return true
}

// setGate hands an operator's gate to the scan below it, through operators
// that pass its rows on; ok reports that a scan took it.
func setGate(it Iterator, by any, g *gate) (ok bool) {
	if x, is := it.(interface{ gate(any, *gate) bool }); is {
		return x.gate(by, g)
	}
	return false
}

// rowsSkipped is what a profiled run reports as NodeProfile.Skipped.
func (s *tableScan) rowsSkipped() int64 { return s.cur.Skipped() }

// decodedAhead is the optional method of an operator some of whose Next calls
// read a page while the others hand over a decoded row: it counts the latter
// still to come before the next of the former, which a profiled run times on
// its own.
func (s *tableScan) decodedAhead() int { return s.cur.Decoded() }

// pageMisses is the optional method of an operator that reads pages itself:
// the pool misses it caused since it was built, which a profiled run reports
// as NodeProfile.Pages.
func (s *tableScan) pageMisses() int64 { return s.cur.Faults() }

// sharedBy is what a profiled run reports as NodeProfile.Shared.
func (s *tableScan) sharedBy() int { return s.cur.Shared() }

// filterIter applies a predicate to its child's rows.
type filterIter struct {
	child Iterator
	pred  predFunc
	poll  ctxPoll // polled once per row dropped: a Next may drop many
	gated int64   // rows its gate was the first to drop at a scan
}

// newFilter builds a filter and hands its predicate to the scan below it, if
// any, as a gate: a row the predicate fails is then never decoded.
func newFilter(child Iterator, p algebra.Predicate, env *Env) (*filterIter, error) {
	pred, err := compilePred(p, child.Schema(), env)
	if err != nil {
		return nil, err
	}
	f := &filterIter{child: child, pred: pred}
	var cols []int
	p.VisitColumns(func(c algebra.Column) {
		if i := child.Schema().IndexOf(c); !slices.Contains(cols, i) {
			cols = append(cols, i)
		}
	})
	if setGate(child, f, &gate{cols: cols, test: pred, dropped: &f.gated}) {
		env.noteGate("Filter gate")
	}
	return f, nil
}

func (f *filterIter) Open() error { return f.child.Open() }

func (f *filterIter) Next() (storage.Row, bool, error) {
	for {
		r, ok, err := f.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		keep, err := f.pred(r)
		if err != nil {
			return nil, false, err
		}
		if keep {
			return r, true, nil
		}
		if err := f.poll.err(); err != nil {
			return nil, false, err
		}
	}
}

func (f *filterIter) Close() error           { return f.child.Close() }
func (f *filterIter) Schema() algebra.Schema { return f.child.Schema() }

// gate passes a gate on to the child: the filter delivers the child's rows,
// at the child's positions.
func (f *filterIter) gate(by any, g *gate) bool { return setGate(f.child, by, g) }

// rowsGated is what a profiled run reports as NodeProfile.Gated.
func (f *filterIter) rowsGated() int64 { return f.gated }

// projectIter computes named scalar outputs.
type projectIter struct {
	child  Iterator
	funcs  []valueFunc
	schema algebra.Schema
	out    storage.Row // the one output row, rewritten by every Next
}

func (p *projectIter) Open() error { return p.child.Open() }

func (p *projectIter) Next() (storage.Row, bool, error) {
	r, ok, err := p.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	p.out = p.out[:0]
	for _, f := range p.funcs {
		v, err := f(r)
		if err != nil {
			return nil, false, err
		}
		p.out = append(p.out, v)
	}
	return p.out, true, nil
}

func (p *projectIter) Close() error           { return p.child.Close() }
func (p *projectIter) Schema() algebra.Schema { return p.schema }

// sortIter fully sorts its child's output by the given columns. It copies,
// of each row, the columns its consumer reads, and keys each copy on every
// sort column: a uint64 whose unsigned order never contradicts
// algebra.Compare, the normalized key of Graefe's "Implementing Sorting in
// Database Systems" (2006) cut to a word (sortKey). It orders (key, position)
// pairs by the keys, by radix passes from radixMin rows up and by comparing
// them below; where keys are equal that may hide unequal values (strings longer
// than a key holds), by the values; and then by position. So the sort is
// stable, and it compares values only where keys cannot decide.
type sortIter struct {
	child  Iterator
	schema algebra.Schema // the copied columns
	keep   []int          // their positions in the child's rows; nil: all
	idx    []int          // the sort columns' positions in the copies
	poll   ctxPoll
	arena  rowArena      // the copies of the child's rows
	rows   []storage.Row // the copies, in input order
	order  []keyed       // the copies' positions in sorted order, after Open
	keys   []uint64      // the copies' keys, len(idx) a copy, in input order
	exact  []bool        // per sort column: its equal keys are equal values
	pos    int
	kept   int64 // rows copied since the sort was built
}

// keyed is a copied row's position in input order and a sort key of it: the
// first column's, but for the key a radix pass orders by.
type keyed struct {
	key uint64
	at  int
}

// newSort builds a sort of child on cols that copies the columns in need
// (nil: all of them), resolving both once however often it is opened.
func newSort(child Iterator, cols []algebra.Column, need colNeed) (*sortIter, error) {
	s := &sortIter{child: child, schema: child.Schema(), idx: make([]int, len(cols)), exact: make([]bool, len(cols))}
	if need != nil {
		if k := need.of(s.schema); len(k.cols) < len(s.schema) {
			s.keep, s.schema = k.cols, k.schema
		}
	}
	for i, c := range cols {
		if s.idx[i] = s.schema.IndexOf(c); s.idx[i] < 0 {
			return nil, fmt.Errorf("exec: sort column %v not in schema", c)
		}
	}
	return s, nil
}

func (s *sortIter) Open() error {
	if err := s.child.Open(); err != nil {
		return err
	}
	s.arena.reset()
	s.rows, s.pos = s.rows[:0], 0
	width := len(s.schema)
	if n := bufferedRows(s.child); n > 0 {
		s.arena.reserve(n, width)
		s.rows = headers.grow(s.rows, n)
	}
	for {
		if err := s.poll.err(); err != nil {
			return err
		}
		r, ok, err := s.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		c := s.arena.alloc(width)
		if s.keep == nil {
			copy(c, r)
		} else {
			for i, k := range s.keep {
				c[i] = r[k]
			}
		}
		s.rows = append(headers.grow(s.rows, 1), c)
	}
	s.kept += int64(len(s.rows))
	s.sort()
	return nil
}

// sort keys the copies and orders them.
func (s *sortIter) sort() {
	n, k := len(s.rows), len(s.idx)
	s.order = sortKeys.grow(s.order[:0], n)[:n]
	s.keys = uint64s.grow(s.keys[:0], n*k)[:n*k]
	exact := k // the first column whose equal keys may hide unequal values
	for c, col := range s.idx {
		mixed, cut, short := s.classify(col)
		if s.exact[c] = cut < 0 || short; !s.exact[c] {
			exact = min(exact, c)
		}
		for i, r := range s.rows {
			if strs := !mixed && cut >= 0; strs {
				s.keys[i*k+c] = shortKey(r[col].S[cut:], short)
			} else {
				s.keys[i*k+c] = sortKey(&r[col], mixed)
			}
		}
	}
	for i := range s.order {
		s.order[i] = keyed{at: i}
		if k > 0 {
			s.order[i].key = s.keys[i*k]
		}
	}
	if k == 0 {
		return
	}
	if n < radixMin {
		slices.SortFunc(s.order, s.compare)
		return
	}
	// A stable pass per column, the last first, orders the copies by their
	// keys and, where those are equal, by position. Past a column whose keys
	// are not exact, keys no longer decide: the passes stop there, and the
	// runs of copies whose keys are equal up to it are compared in full.
	last := min(exact, k-1)
	spare := sortKeys.get(n)[:n]
	for c := last; c >= 0; c-- {
		for i, e := range s.order {
			s.order[i].key = s.keys[e.at*k+c]
		}
		s.order, spare = radixSort(s.order, spare)
	}
	sortKeys.put(spare)
	if exact == k {
		return
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && slices.Equal(s.keysOf(s.order[j].at)[:last+1], s.keysOf(s.order[i].at)[:last+1]) {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(s.order[i:j], s.compare)
		}
		i = j
	}
}

// keysOf is the sort keys of the copy at i.
func (s *sortIter) keysOf(i int) []uint64 {
	k := len(s.idx)
	return s.keys[i*k : i*k+k]
}

// compare orders two copies by their first keys, then by the rest of their
// keys and, where a key may hide unequal values, by the values, then by
// position.
func (s *sortIter) compare(a, b keyed) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	ka, kb := s.keysOf(a.at), s.keysOf(b.at)
	for c, col := range s.idx {
		switch {
		case ka[c] < kb[c]:
			return -1
		case ka[c] > kb[c]:
			return 1
		}
		if !s.exact[c] {
			if d := algebra.Compare(s.rows[a.at][col], s.rows[b.at][col]); d != 0 {
				return d
			}
		}
	}
	return a.at - b.at
}

// radixMin is the fewest rows a sort orders by radixSort: below it, the
// count arrays of its passes cost more than comparing. BenchmarkSort sets it:
// on each of its keys the radix passes take 14–23 % longer than comparing at
// 32 rows and 12–28 % less at 64.
const radixMin = 64

// radixSort orders keys by key, a byte at a time from the least significant,
// skipping the bytes every key has alike. Each pass is stable, so equal keys
// keep their order. It returns the sorted keys and the other buffer, each
// of the two it was given.
func radixSort(keys, spare []keyed) (sorted, other []keyed) {
	var diff uint64
	for _, e := range keys {
		diff |= e.key ^ keys[0].key
	}
	for shift := 0; shift < 64; shift += 8 {
		if diff>>shift&0xff == 0 {
			continue
		}
		var at [256]int
		for _, e := range keys {
			at[byte(e.key>>shift)]++
		}
		sum := 0
		for b, c := range at {
			at[b], sum = sum, sum+c
		}
		for _, e := range keys {
			b := byte(e.key >> shift)
			spare[at[b]] = e
			at[b]++
		}
		keys, spare = spare, keys
	}
	return keys, spare
}

// classify reads the copies' values at col: mixed reports numbers and
// strings both, and cut is the length of the prefix all the strings share
// (0 in a mixed column), −1 when there are none. The strings' keys are taken
// past that prefix, and short reports that what is left of each is at most 7
// bytes, so that a key can hold it whole (shortKey).
func (s *sortIter) classify(col int) (mixed bool, cut int, short bool) {
	nums, first, longest := false, "", 0
	cut = -1
	for _, r := range s.rows {
		v := &r[col]
		switch {
		case v.IsNumeric():
			nums = true
			continue
		case cut < 0:
			first, cut = v.S, len(v.S)
		default:
			cut = min(cut, len(v.S))
			for i := 0; i < cut; i++ {
				if v.S[i] != first[i] {
					cut = i
				}
			}
		}
		longest = max(longest, len(v.S))
	}
	switch {
	case nums && cut >= 0:
		return true, 0, false
	case cut < 0:
		return false, cut, false
	}
	return false, cut, longest-cut <= 7
}

func (s *sortIter) Next() (storage.Row, bool, error) {
	if s.pos >= len(s.order) {
		return nil, false, nil
	}
	r := s.rows[s.order[s.pos].at]
	s.pos++
	return r, true, nil
}

// Close gives the copies and their keys back to the pools.
func (s *sortIter) Close() error {
	s.arena.release()
	headers.put(s.rows)
	sortKeys.put(s.order)
	uint64s.put(s.keys)
	s.rows, s.order, s.keys, s.pos = nil, nil, nil, 0
	return s.child.Close()
}

func (s *sortIter) Schema() algebra.Schema { return s.schema }
func (s *sortIter) buffered() int          { return len(s.order) - s.pos }

// rowsKept is what a profiled run reports as NodeProfile.Kept.
func (s *sortIter) rowsKept() int64 { return s.kept }

// sortKey is v's sort key in a column of one class, numbers or strings: of
// two values of the class, the one with the smaller key is the smaller under
// algebra.Compare, and two numbers have equal keys exactly when they compare
// equal. In a mixed column every key is halved and a string's gets the top
// bit, which puts strings above every number, as Compare does.
func sortKey(v *algebra.Value, mixed bool) uint64 {
	switch {
	case v.IsNumeric() && mixed:
		return numKey(v.AsFloat()) >> 1
	case v.IsNumeric():
		return numKey(v.AsFloat())
	case mixed:
		return 1<<63 | strKey(v.S)>>1
	}
	return strKey(v.S)
}

// numKey orders numbers as algebra.CompareFloat does: the float bits with the
// sign bit set on the positives and every bit flipped on the negatives, −0 as
// 0, and every NaN one above +Inf.
func numKey(f float64) uint64 {
	switch {
	case f == 0:
		f = 0
	case f != f:
		return numKey(math.Inf(1)) + 1
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// strKey is a string's first 8 bytes, big-endian, padded with zero bytes: a
// string that shares them with another, or extends it by zero bytes, has its
// key.
func strKey(s string) uint64 {
	var b [8]byte
	copy(b[:], s)
	return binary.BigEndian.Uint64(b[:])
}

// shortKey is strKey, or, for a string known short — at most 7 bytes — its
// bytes and then its length, a key no other string has: of two strings
// padded alike the shorter is a prefix of the longer, and the smaller.
func shortKey(s string, short bool) uint64 {
	if short {
		return strKey(s) | uint64(len(s))
	}
	return strKey(s)
}

// joinScratch is the row a join's predicate sees, and its output row when the
// pair passes: the outer row followed by the inner candidate, overwritten for
// every pair. A join allocates nothing per pair or per output row.
type joinScratch struct {
	row    storage.Row
	nOuter int   // width of the outer side
	pairs  int64 // predicate evaluations since the join was built
	kept   int64 // input rows copied into the join's own storage since then
}

func (s *joinScratch) init(outer, inner algebra.Schema) {
	if s.row == nil {
		s.nOuter = len(outer)
		s.row = make(storage.Row, len(outer)+len(inner))
	}
}

func (s *joinScratch) setOuter(r storage.Row) { copy(s.row, r) }

// eval evaluates pred on the current outer row paired with inner; ok reports
// a pass, and out is then the pair: the scratch row, valid until the next
// eval.
func (s *joinScratch) eval(pred predFunc, inner storage.Row) (out storage.Row, ok bool, err error) {
	copy(s.row[s.nOuter:], inner)
	s.pairs++
	if ok, err = pred(s.row); err != nil || !ok {
		return nil, false, err
	}
	return s.row, true, nil
}

// pairsEvaluated is what a profiled run reports as NodeProfile.Pairs.
func (s *joinScratch) pairsEvaluated() int64 { return s.pairs }

// rowsKept is what it reports as NodeProfile.Kept.
func (s *joinScratch) rowsKept() int64 { return s.kept }

var keySeed = maphash.MakeSeed()

// keyHash hashes a row's key columns so that keys equal under
// algebra.Compare hash alike: numbers by AsFloat with -0 folded into +0 and
// every NaN into one, strings by content.
func keyHash(r storage.Row, cols []int) (h uint64) {
	for _, c := range cols {
		h = mixKey(h, &r[c])
	}
	return h
}

// mixKey is h, the hash of a key's columns before v, with v mixed in.
func mixKey(h uint64, v *algebra.Value) uint64 {
	var x uint64
	if v.Typ == algebra.TString {
		x = maphash.String(keySeed, v.S)
	} else {
		switch f := v.AsFloat(); {
		case f == 0:
			x = 0 // -0 and +0 differ in bits
		case f != f:
			x = math.Float64bits(math.NaN()) // so do NaN payloads
		default:
			x = math.Float64bits(f)
		}
	}
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// keyBits is a bitmap of a held input's one-column key values, bit k − lo
// for held key k, which answers "has this key a bucket?" with a range check
// and a bit test. It is exact under algebra.Compare: every held key is an
// integral number below 2^53 in magnitude, so it equals its AsFloat, and a
// probe equals a held key exactly when the probe's number is that integer.
type keyBits struct {
	lo, hi int64
	n      uint64 // hi − lo + 1; 0 when the join tests hashes
	words  []uint64
}

const (
	maxExactInt = 1 << 53 // every integer of smaller magnitude is a float64
	// A bitmap spans at most bitsPerRow bits per held row plus bitsSlack:
	// wider key ranges are sparse, and keep the hash test.
	bitsPerRow = 64
	bitsSlack  = 4096
)

// build sets the bitmap to the key values at col of rows and reports whether
// it could: a string, non-integral, NaN or too large key, or a range wider
// than the bound, leaves it unset.
func (b *keyBits) build(rows []storage.Row, col int) bool {
	b.n = 0
	if len(rows) == 0 {
		return false
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, r := range rows {
		k, ok := exactInt(&r[col])
		if !ok {
			return false
		}
		lo, hi = min(lo, k), max(hi, k)
	}
	n := uint64(hi-lo) + 1
	if n > bitsPerRow*uint64(len(rows))+bitsSlack {
		return false
	}
	words := int((n + 63) / 64)
	b.words = slices.Grow(b.words[:0], words)[:words]
	clear(b.words)
	for _, r := range rows {
		k, _ := exactInt(&r[col])
		d := uint64(k - lo)
		b.words[d>>6] |= 1 << (d & 63)
	}
	b.lo, b.hi, b.n = lo, hi, n
	return true
}

// exactInt is a held key's integer, if it is a number that is one and
// smaller than 2^53 in magnitude.
func exactInt(v *algebra.Value) (int64, bool) {
	switch v.Typ {
	case algebra.TInt, algebra.TDate:
		return v.I, v.I > -maxExactInt && v.I < maxExactInt
	case algebra.TFloat:
		if f := v.F; f == math.Trunc(f) && math.Abs(f) < maxExactInt {
			return int64(f), true
		}
	}
	return 0, false
}

// has reports whether some held key compares equal to v. An int or date
// outside [lo, hi] wraps to an offset past n; a non-integral float, a NaN or
// a string has no equal.
func (b *keyBits) has(v *algebra.Value) bool {
	var d uint64
	switch v.Typ {
	case algebra.TInt, algebra.TDate:
		d = uint64(v.I - b.lo)
	case algebra.TFloat:
		f := v.F
		if f < float64(b.lo) || f > float64(b.hi) || f != math.Trunc(f) {
			return false
		}
		d = uint64(int64(f) - b.lo) // -0 is 0
	default:
		return false
	}
	return d < b.n && b.words[d>>6]&(1<<(d&63)) != 0
}

// nlJoin is the block nested-loops join: one input is held in memory and
// each outer (left) row is paired with the inner (right) rows in arrival
// order. The predicate's cross-side col = col conjuncts (lKey[i] = rKey[i])
// key a hash table over the inner rows, so an outer row meets only its
// bucket, the inner rows whose key hashes like its own. The full predicate
// still decides every pair, which also settles hash collisions, and buckets
// keep arrival order, so the output is that of the all-pairs loop, row for
// row. With no such conjunct every row hashes to the empty key and the bucket
// is the buffer.
//
// Which input is held is the builder's call (estimate). By default Open
// buffers the inner input whole and Next streams the outer past it. When the
// join is keyed and the outer input is the smaller, Open buffers the outer
// input first and, of the inner, only the rows whose key hash an outer row
// has: a row it drops has no outer row's key, so the predicate would have
// passed it with none, and Next walks the held outer rows over the same
// buckets. The rows, their order and the pairs evaluated are the same either
// way; what differs is the memory — the smaller input and the matches of the
// larger, not the whole right input.
//
// Open drains the held input before it opens the other, and a held input
// that comes out empty ends the join there: the other input is never opened,
// let alone pulled. Otherwise, once the buckets are known, the join hands the
// other input — the streamed outer, or the inner a held outer filters — a
// gate (see tableScan.gate): is there a bucket for this key? A scan below
// then drops, undecoded, the rows the join would have dropped unpaired.
// Because the gate exists before that input is opened, it also reaches joins
// below that drain their own held input in Open.
//
// A join passes the gates of the operators above it on (gate) to the input
// whose columns they read, so every join's key test reaches the scan that
// produces its key, however many joins lie in between.
//
// A join keyed on one column whose held keys are integral numbers in a dense
// enough range (keyBits) answers its key test from a bitmap of them instead:
// its own gate, the gates it forwards and the holdOuter filter of the inner
// rows. The bitmap drops only rows the predicate would pair with no held
// row, so it also drops the hash collisions the hash test lets through; the
// buckets and the pairs they make are the hash table's either way.
type nlJoin struct {
	left, right Iterator
	pred        predFunc
	lKey, rKey  []int // key column positions in the outer and the inner row
	schema      algebra.Schema
	poll        ctxPoll
	env         *Env
	joinScratch

	// holdOuter: Open buffers the outer input and filters the inner by it.
	holdOuter  bool
	outerArena rowArena // the copies of the outer input's rows
	outer      []storage.Row
	outerPos   int
	// none: the held input came out empty, and the other was not opened.
	none bool

	arena rowArena // the copies of the inner input's rows
	inner []storage.Row
	// The hash table: bucketOf numbers the key hashes seen, and bucket b is
	// bucketed[ends[b-1]:ends[b]], all buckets carved from one array.
	bucketOf map[uint64]int32
	ends     []int32
	bucketed []storage.Row
	slot     []int32       // per inner row, its bucket; scratch of Open
	cands    []storage.Row // what is left of the current outer row's bucket

	bits keyBits // set by Open when the held keys allow one

	own   *gate // the join's key gate on its unheld input, built once
	gated int64 // rows its key gate was the first to drop at a scan
}

// newNLJoin compiles the join predicate and keys the join on its cross-side
// col = col conjuncts, at the positions the compiled predicate reads them.
func newNLJoin(left, right Iterator, p algebra.Predicate, env *Env) (*nlJoin, error) {
	schema := left.Schema().Concat(right.Schema())
	pred, err := compilePred(p, schema, env)
	if err != nil {
		return nil, err
	}
	j := &nlJoin{left: left, right: right, pred: pred, schema: schema, env: env, bucketOf: map[uint64]int32{}}
	nOuter := len(left.Schema())
	lcols, rcols := p.EquiJoinColumns(left.Schema(), right.Schema())
	for i := range lcols {
		if l, r := schema.IndexOf(lcols[i]), schema.IndexOf(rcols[i]); l < nOuter && r >= nOuter {
			j.lKey, j.rKey = append(j.lKey, l), append(j.rKey, r-nOuter)
		}
	}
	return j, nil
}

// estimate tells the join how many rows the plan expects of each input. The
// outer input is held when it is the smaller and there is a key to filter
// the inner by; without one both inputs would have to be held.
func (j *nlJoin) estimate(outerRows, innerRows float64) {
	j.holdOuter = len(j.lKey) > 0 && outerRows < innerRows
}

// Open drains the held input, then gates and opens the other: a join that
// holds its inner input buckets it, and one that holds its outer input has
// buffered that first and skips the inner rows no outer row's key hashes
// like.
func (j *nlJoin) Open() error {
	// A gate of the last Open tests the buckets this one rebuilds.
	setGate(j.left, j, nil)
	setGate(j.right, j, nil)
	j.init(j.left.Schema(), j.right.Schema())
	j.arena.reset()
	j.outerArena.reset()
	j.outer, j.outerPos, j.none = j.outer[:0], 0, false
	j.inner, j.ends, j.slot, j.cands = j.inner[:0], j.ends[:0], j.slot[:0], nil
	j.bits.n = 0
	clear(j.bucketOf)
	if !j.holdOuter {
		if err := j.right.Open(); err != nil {
			return err
		}
		if err := j.bufferInner(); err != nil || len(j.inner) == 0 {
			return j.holdsNothing(err)
		}
		j.keyBitmap(j.inner, j.rKey)
		j.gateKeys(j.left, j.lKey, "BNLJoin streamed-side gate")
		return j.left.Open()
	}
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.bufferOuter(); err != nil || len(j.outer) == 0 {
		return j.holdsNothing(err)
	}
	j.keyBitmap(j.outer, j.lKey)
	j.gateKeys(j.right, j.rKey, "BNLJoin holdOuter gate")
	if err := j.right.Open(); err != nil {
		return err
	}
	return j.bufferInner()
}

// holdsNothing ends an Open whose held input came out empty, err aside: the
// join has no row to give, whatever the other input holds.
func (j *nlJoin) holdsNothing(err error) error {
	if err == nil {
		j.none = true
		j.env.noteGate("BNLJoin empty held side")
	}
	return err
}

// keyBitmap sets the join's bitmap to its held rows' keys at cols, when
// there is one column and the keys allow it.
func (j *nlJoin) keyBitmap(held []storage.Row, cols []int) {
	if len(cols) == 1 && j.bits.build(held, cols[0]) {
		j.env.noteGate("BNLJoin key bitmap")
	}
}

// bufferInner drains the inner input and buckets it in two passes: the first
// hashes each row and counts its bucket, the second places the rows, so the
// buckets share one array and keep arrival order. A join that holds its
// outer input drops the rows whose key no held outer row has: by the bitmap
// when there is one, else by hash.
func (j *nlJoin) bufferInner() error {
	if n := bufferedRows(j.right); n > 0 && !j.holdOuter {
		// Every row is kept, so the child's count sizes the storage once.
		j.arena.reserve(n, len(j.right.Schema()))
		j.inner, j.slot = headers.grow(j.inner, n), int32s.grow(j.slot, n)
	}
	for {
		if err := j.poll.err(); err != nil {
			return err
		}
		r, ok, err := j.right.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if j.holdOuter && j.bits.n > 0 && !j.bits.has(&r[j.rKey[0]]) {
			continue
		}
		h := keyHash(r, j.rKey)
		b, seen := j.bucketOf[h]
		if !seen {
			if j.holdOuter {
				continue
			}
			b = int32(len(j.ends))
			j.bucketOf[h] = b
			j.ends = append(int32s.grow(j.ends, 1), 0)
		}
		j.inner = append(headers.grow(j.inner, 1), j.arena.keep(r))
		j.ends[b]++
		j.slot = append(int32s.grow(j.slot, 1), b)
	}
	j.kept += int64(len(j.outer) + len(j.inner))
	// Turn the counts into each bucket's start; placing its rows then moves
	// that up to its end.
	n := int32(0)
	for b, count := range j.ends {
		j.ends[b] = n
		n += count
	}
	j.bucketed = headers.grow(j.bucketed[:0], len(j.inner))[:len(j.inner)]
	for i, r := range j.inner {
		b := j.slot[i]
		j.bucketed[j.ends[b]] = r
		j.ends[b]++
	}
	return nil
}

// gateKeys hands child the join's key gate at cols; bucketOf must be the
// table the child's rows will be matched against, and stay it while the
// child is pulled.
func (j *nlJoin) gateKeys(child Iterator, cols []int, kind string) {
	if len(cols) == 0 {
		return
	}
	if j.own == nil {
		j.own = j.keyGate(cols, &j.gated)
	}
	if setGate(child, j, j.own) {
		j.env.noteGate(kind)
	}
}

// keyGate is a gate that passes a row whose key at cols has a bucket,
// counting the rows it drops in dropped: a key gate on one column, a test on
// several. It asks the bitmap when the join has one, the bucket table's
// hashes otherwise.
func (j *nlJoin) keyGate(cols []int, dropped *int64) *gate {
	g := &gate{cols: cols, keys: j, dropped: dropped}
	if len(cols) == 1 {
		g.key = func(v algebra.Value) bool {
			if j.bits.n > 0 {
				return j.bits.has(&v)
			}
			_, seen := j.bucketOf[mixKey(0, &v)]
			return seen
		}
		return g
	}
	g.test = func(r storage.Row) (bool, error) {
		_, seen := j.bucketOf[keyHash(r, cols)]
		return seen, nil
	}
	return g
}

// gate passes a gate from above on to the input that produces the columns it
// reads: to the outer input at the same positions, to the inner at positions
// moved back by the outer's width, which only a key gate can be rebuilt at.
// A gate that reads both inputs stops here. A withdrawal goes to both.
func (j *nlJoin) gate(by any, g *gate) (ok bool) {
	if g == nil {
		ok = setGate(j.left, by, nil)
		return setGate(j.right, by, nil) || ok
	}
	nOuter := len(j.left.Schema())
	outer, inner := true, true
	for _, c := range g.cols {
		outer, inner = outer && c < nOuter, inner && c >= nOuter
	}
	switch {
	case outer:
		ok = setGate(j.left, by, g)
	case inner:
		if m := g.moved(nOuter); m != nil {
			ok = setGate(j.right, by, m)
		}
	}
	if ok {
		j.env.noteGate("forwarded gate")
	}
	return ok
}

// rowsGated is what a profiled run reports as NodeProfile.Gated.
func (j *nlJoin) rowsGated() int64 { return j.gated }

// keyTest is what it reports as NodeProfile.Keys: how the last Open tested
// keys, "" for a join with none.
func (j *nlJoin) keyTest() string {
	switch {
	case len(j.lKey) == 0:
		return ""
	case j.bits.n > 0:
		return "bitmap"
	}
	return "hash"
}

// bufferOuter holds the outer input and gives every key hash in it a bucket,
// empty as yet: an inner row with none of those hashes can be dropped.
func (j *nlJoin) bufferOuter() error {
	for {
		if err := j.poll.err(); err != nil {
			return err
		}
		r, ok, err := j.left.Next()
		if err != nil || !ok {
			return err
		}
		j.outer = append(headers.grow(j.outer, 1), j.outerArena.keep(r))
		h := keyHash(r, j.lKey)
		if _, seen := j.bucketOf[h]; !seen {
			j.bucketOf[h] = int32(len(j.ends))
			j.ends = append(int32s.grow(j.ends, 1), 0)
		}
	}
}

// nextOuter is the next outer row, held or streamed. A join that holds
// nothing streams nothing: its held rows, none, stand in.
func (j *nlJoin) nextOuter() (storage.Row, bool, error) {
	if !j.holdOuter && !j.none {
		return j.left.Next()
	}
	if j.outerPos == len(j.outer) {
		return nil, false, nil
	}
	j.outerPos++
	return j.outer[j.outerPos-1], true, nil
}

// bucket is the inner rows an outer row has to meet.
func (j *nlJoin) bucket(outer storage.Row) []storage.Row {
	b, ok := j.bucketOf[keyHash(outer, j.lKey)]
	if !ok {
		return nil
	}
	start := int32(0)
	if b > 0 {
		start = j.ends[b-1]
	}
	return j.bucketed[start:j.ends[b]]
}

func (j *nlJoin) Next() (storage.Row, bool, error) {
	for {
		for len(j.cands) > 0 {
			r := j.cands[0]
			j.cands = j.cands[1:]
			if out, ok, err := j.eval(j.pred, r); ok || err != nil {
				return out, ok, err
			}
		}
		l, ok, err := j.nextOuter()
		if err != nil || !ok {
			return nil, false, err
		}
		j.setOuter(l)
		j.cands = j.bucket(l)
	}
}

// Close gives the held rows and the arrays that bucket them back to the
// pools.
func (j *nlJoin) Close() error {
	j.arena.release()
	j.outerArena.release()
	headers.put(j.outer)
	headers.put(j.inner)
	headers.put(j.bucketed)
	int32s.put(j.ends)
	int32s.put(j.slot)
	j.outer, j.inner, j.bucketed, j.ends, j.slot, j.cands = nil, nil, nil, nil, nil, nil
	if err := j.left.Close(); err != nil {
		return err
	}
	return j.right.Close()
}

func (j *nlJoin) Schema() algebra.Schema { return j.schema }

// compareAt orders row a's columns ai against row b's columns bi, in place.
func compareAt(a storage.Row, ai []int, b storage.Row, bi []int) int {
	for i, ix := range ai {
		if c := algebra.Compare(a[ix], b[bi[i]]); c != 0 {
			return c
		}
	}
	return 0
}

// mergeJoin joins two inputs sorted on their key columns, buffering groups
// of equal right-side keys to produce the cross product within a key group.
type mergeJoin struct {
	left, right Iterator
	lIdx, rIdx  []int
	pred        predFunc // full predicate over the concatenated row
	schema      algebra.Schema
	joinScratch

	arena     rowArena      // the copies of the current key group's rows
	group     []storage.Row // right rows of the current key group
	groupPos  int
	rightNext storage.Row // the right input's current row, valid until advanceRight
	rightDone bool
}

func (j *mergeJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		return err
	}
	j.init(j.left.Schema(), j.right.Schema())
	j.group, j.groupPos = j.group[:0], 0
	return j.advanceRight()
}

func (j *mergeJoin) advanceRight() (err error) {
	var ok bool
	j.rightNext, ok, err = j.right.Next()
	j.rightDone = !ok
	return err
}

// loadGroup skips the right rows below the left row's key and buffers the
// group equal to it, which is empty when the right side has no such key.
func (j *mergeJoin) loadGroup(l storage.Row) error {
	j.arena.reset()
	j.group = j.group[:0]
	for !j.rightDone {
		c := compareAt(j.rightNext, j.rIdx, l, j.lIdx)
		if c > 0 {
			break
		}
		if c == 0 {
			j.group = append(j.group, j.arena.keep(j.rightNext))
			j.kept++
		}
		if err := j.advanceRight(); err != nil {
			return err
		}
	}
	return nil
}

func (j *mergeJoin) Next() (storage.Row, bool, error) {
	for {
		for j.groupPos < len(j.group) {
			r := j.group[j.groupPos]
			j.groupPos++
			if out, ok, err := j.eval(j.pred, r); ok || err != nil {
				return out, ok, err
			}
		}
		l, ok, err := j.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.setOuter(l)
		j.groupPos = 0
		// A left row with the buffered group's key rejoins it.
		if len(j.group) == 0 || compareAt(l, j.lIdx, j.group[0], j.rIdx) != 0 {
			if err := j.loadGroup(l); err != nil {
				return nil, false, err
			}
		}
	}
}

// Close gives the key group's copies back to the pools.
func (j *mergeJoin) Close() error {
	j.arena.release()
	j.group = j.group[:0]
	if err := j.left.Close(); err != nil {
		return err
	}
	return j.right.Close()
}

func (j *mergeJoin) Schema() algebra.Schema { return j.schema }

// indexedSource provides index probes into a stored relation (base table or
// materialized temp), fetching the kept columns of each row found. Every
// probe re-positions the source's one iterator and decodes its matches into
// the source's one arena, over those of the probe before: they are valid
// until the next probe.
type indexedSource struct {
	heap *storage.HeapFile
	pool *storage.BufferPool
	it   *storage.BTreeIter
	kept
	arena  rowArena
	misses int64 // pool misses of the probes so far
}

func newIndexedSource(heap *storage.HeapFile, pool *storage.BufferPool, index *storage.BTree, stored algebra.Schema, need colNeed) *indexedSource {
	return &indexedSource{heap: heap, pool: pool, it: index.NewIter(), kept: need.of(stored)}
}

// probe appends to out the rows of the index entries from key from on (nil:
// from the smallest), up to the first whose key fails while (nil: to the
// end).
func (s *indexedSource) probe(from *algebra.Value, while func(algebra.Value) bool, out []storage.Row) ([]storage.Row, error) {
	before := s.pool.Misses()
	out, err := s.fetch(from, while, out)
	s.misses += s.pool.Misses() - before
	return out, err
}

// fetch is probe without the miss count.
func (s *indexedSource) fetch(from *algebra.Value, while func(algebra.Value) bool, out []storage.Row) ([]storage.Row, error) {
	s.arena.reset()
	var err error
	if from != nil {
		err = s.it.Seek(*from)
	} else {
		err = s.it.SeekFirst()
	}
	if err != nil {
		return nil, err
	}
	for {
		k, rid, ok, err := s.it.Next()
		if err != nil {
			return nil, err
		}
		if !ok || (while != nil && !while(k)) {
			return out, nil
		}
		r, err := s.heap.GetCols(s.arena.alloc(len(s.cols))[:0], rid, s.cols)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
}

// probeEq appends the rows with key == v to out.
func (s *indexedSource) probeEq(v algebra.Value, out []storage.Row) ([]storage.Row, error) {
	return s.probe(&v, func(k algebra.Value) bool { return algebra.Compare(k, v) == 0 }, out)
}

// pageMisses reports the probes'.
func (s *indexedSource) pageMisses() int64 { return s.misses }

// release gives the last probe's rows back to the pools.
func (s *indexedSource) release() {
	if s != nil {
		s.arena.release()
	}
}

// indexJoin probes the inner index once per outer row.
type indexJoin struct {
	outer  Iterator
	inner  *indexedSource
	keyFn  valueFunc // evaluates the outer join key
	pred   predFunc
	schema algebra.Schema
	joinScratch

	matches []storage.Row // the current outer row's probe result, reused across probes
	pos     int
}

func (j *indexJoin) Open() error {
	j.init(j.outer.Schema(), j.inner.schema)
	j.matches, j.pos = j.matches[:0], 0
	return j.outer.Open()
}

func (j *indexJoin) Next() (storage.Row, bool, error) {
	for {
		for j.pos < len(j.matches) {
			r := j.matches[j.pos]
			j.pos++
			if out, ok, err := j.eval(j.pred, r); ok || err != nil {
				return out, ok, err
			}
		}
		o, ok, err := j.outer.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		key, err := j.keyFn(o)
		if err != nil {
			return nil, false, err
		}
		j.setOuter(o)
		j.pos = 0
		if j.matches, err = j.inner.probeEq(key, j.matches[:0]); err != nil {
			return nil, false, err
		}
	}
}

func (j *indexJoin) Close() error {
	j.inner.release()
	j.matches = j.matches[:0]
	return j.outer.Close()
}

func (j *indexJoin) Schema() algebra.Schema { return j.schema }

// columns and pageMisses report the probed inner's.
func (j *indexJoin) columns() (read, stored int) { return j.inner.columns() }
func (j *indexJoin) pageMisses() int64           { return j.inner.pageMisses() }

// indexSelect answers a single-column selection through an index probe.
type indexSelect struct {
	source *indexedSource
	op     algebra.CmpOp
	rhs    valueFunc // constant or parameter
	pred   predFunc  // full residual predicate
	schema algebra.Schema

	rows []storage.Row
	pos  int
}

func (s *indexSelect) Open() error {
	s.pos = 0
	v, err := s.rhs(nil)
	if err != nil {
		return err
	}
	// The probe brackets the key range; the residual predicate below makes
	// the bounds strict where the operator is.
	var rows []storage.Row
	switch src := s.source; s.op {
	case algebra.EQ:
		rows, err = src.probeEq(v, s.rows[:0])
	case algebra.GE, algebra.GT:
		rows, err = src.probe(&v, nil, s.rows[:0])
	case algebra.LE, algebra.LT:
		rows, err = src.probe(nil, func(k algebra.Value) bool { return algebra.Compare(k, v) <= 0 }, s.rows[:0])
	default:
		return fmt.Errorf("exec: index select does not support %v", s.op)
	}
	if err != nil {
		return err
	}
	// Residual predicate keeps semantics exact (strict bounds etc.).
	s.rows = rows[:0]
	for _, r := range rows {
		keep, err := s.pred(r)
		if err != nil {
			return err
		}
		if keep {
			s.rows = append(s.rows, r)
		}
	}
	return nil
}

func (s *indexSelect) Next() (storage.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true, nil
}

func (s *indexSelect) Close() error {
	s.source.release()
	s.rows = s.rows[:0]
	return nil
}

func (s *indexSelect) Schema() algebra.Schema { return s.schema }
func (s *indexSelect) buffered() int          { return len(s.rows) - s.pos }

func (s *indexSelect) columns() (read, stored int) { return s.source.columns() }
func (s *indexSelect) pageMisses() int64           { return s.source.pageMisses() }

// aggState accumulates one aggregate function.
type aggState struct {
	fn    algebra.AggFunc
	arg   valueFunc
	sum   float64
	count int64
	min   algebra.Value
	max   algebra.Value
	seen  bool
}

func (a *aggState) add(r storage.Row) error {
	a.count++
	if a.fn == algebra.CountAll {
		return nil
	}
	v, err := a.arg(r)
	if err != nil {
		return err
	}
	a.sum += v.AsFloat()
	if !a.seen || algebra.Compare(v, a.min) < 0 {
		a.min = v
	}
	if !a.seen || algebra.Compare(v, a.max) > 0 {
		a.max = v
	}
	a.seen = true
	return nil
}

func (a *aggState) result() algebra.Value {
	switch a.fn {
	case algebra.Sum:
		return algebra.FloatVal(a.sum)
	case algebra.CountAll:
		return algebra.IntVal(a.count)
	case algebra.Min:
		return a.min
	case algebra.Max:
		return a.max
	case algebra.Avg:
		if a.count == 0 {
			return algebra.FloatVal(0)
		}
		return algebra.FloatVal(a.sum / float64(a.count))
	}
	return algebra.Value{}
}

// sortAgg is sort-based aggregation: the child is sorted on the group-by
// columns, so groups arrive contiguously.
type sortAgg struct {
	child  Iterator
	aggs   []algebra.AggExpr
	schema algebra.Schema
	gbIdx  []int       // group-by column positions in the child's rows
	argFns []valueFunc // per aggregate, its argument; nil for count(*)

	first   storage.Row // copy of the current group's first row
	states  []aggState
	out     storage.Row // the one output row, rewritten by every Next
	pending storage.Row // first row of the next group: the child's current row
	done    bool
	poll    ctxPoll // a group's rows are pulled inside one Next
}

// newSortAgg compiles the grouping columns and aggregate arguments against
// the child's schema, once however often the operator is opened.
func newSortAgg(child Iterator, groupBy []algebra.Column, aggs []algebra.AggExpr, schema algebra.Schema) (*sortAgg, error) {
	a := &sortAgg{child: child, aggs: aggs, schema: schema,
		gbIdx: make([]int, len(groupBy)), argFns: make([]valueFunc, len(aggs)), states: make([]aggState, len(aggs))}
	cs := child.Schema()
	for i, c := range groupBy {
		if a.gbIdx[i] = cs.IndexOf(c); a.gbIdx[i] < 0 {
			return nil, fmt.Errorf("exec: group-by column %v not in input", c)
		}
	}
	for i, ag := range aggs {
		if ag.Func == algebra.CountAll {
			continue
		}
		f, err := compileScalar(ag.Arg, cs, nil)
		if err != nil {
			return nil, err
		}
		a.argFns[i] = f
	}
	return a, nil
}

func (a *sortAgg) Open() error {
	a.pending, a.done = nil, false
	return a.child.Open()
}

func (a *sortAgg) Next() (storage.Row, bool, error) {
	if a.done {
		return nil, false, nil
	}
	cur := a.pending
	a.pending = nil
	if cur == nil {
		r, ok, err := a.child.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			a.done = true
			if len(a.gbIdx) == 0 {
				// Scalar aggregate over empty input: one row of zeros.
				a.resetStates()
				return a.emit(nil), true, nil
			}
			return nil, false, nil
		}
		cur = r
	}
	// The group's first row outlives the child's next Next: keep a copy.
	a.first = append(a.first[:0], cur...)
	a.resetStates()
	for i := range a.states {
		if err := a.states[i].add(a.first); err != nil {
			return nil, false, err
		}
	}
	for {
		if err := a.poll.err(); err != nil {
			return nil, false, err
		}
		r, ok, err := a.child.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			a.done = true
			break
		}
		if compareAt(r, a.gbIdx, a.first, a.gbIdx) != 0 {
			a.pending = r
			break
		}
		for i := range a.states {
			if err := a.states[i].add(r); err != nil {
				return nil, false, err
			}
		}
	}
	return a.emit(a.first), true, nil
}

func (a *sortAgg) resetStates() {
	for i, ag := range a.aggs {
		a.states[i] = aggState{fn: ag.Func, arg: a.argFns[i]}
	}
}

// emit builds the output row: group-by values then aggregate results, in
// the order of a.schema.
func (a *sortAgg) emit(sample storage.Row) storage.Row {
	a.out = a.out[:0]
	for _, ix := range a.gbIdx {
		a.out = append(a.out, sample[ix])
	}
	for i := range a.states {
		a.out = append(a.out, a.states[i].result())
	}
	return a.out
}

func (a *sortAgg) Close() error           { return a.child.Close() }
func (a *sortAgg) Schema() algebra.Schema { return a.schema }
