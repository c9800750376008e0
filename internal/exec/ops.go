package exec

import (
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sort"

	"mqo/internal/algebra"
	"mqo/internal/storage"
)

// Iterator is the Volcano open-next-close interface. Next returns ok=false
// at end of stream. Rows returned by Next are owned by the caller.
type Iterator interface {
	Open() error
	Next() (storage.Row, bool, error)
	Close() error
	Schema() algebra.Schema
}

// tableScan reads the kept columns of a heap file's rows.
type tableScan struct {
	heap *storage.HeapFile
	kept
	rows []storage.Row
	pos  int
}

// newTableScan creates a scan of the need columns of a stored table, whose
// schema the caller has already alias-qualified.
func newTableScan(heap *storage.HeapFile, stored algebra.Schema, need colNeed) *tableScan {
	return &tableScan{heap: heap, kept: need.of(stored)}
}

// Open reads every page here, in file order, so the pool's fault counts do
// not depend on how the parent consumes the rows or on the columns kept.
func (s *tableScan) Open() error {
	s.rows = make([]storage.Row, 0, s.heap.Rows())
	s.pos = 0
	return s.heap.ScanCols(s.cols, func(_ storage.RID, r storage.Row) error {
		s.rows = append(s.rows, r)
		return nil
	})
}

func (s *tableScan) Next() (storage.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true, nil
}

func (s *tableScan) Close() error           { s.rows = nil; return nil }
func (s *tableScan) Schema() algebra.Schema { return s.schema }

// buffered is the optional method of an operator that holds its whole output
// once open: the rows still to come, so a consumer that buffers them in turn
// sizes its arrays once.
func (s *tableScan) buffered() int { return len(s.rows) - s.pos }

// filterIter applies a predicate to its child's rows.
type filterIter struct {
	child Iterator
	pred  predFunc
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
	}
}

func (f *filterIter) Close() error           { return f.child.Close() }
func (f *filterIter) Schema() algebra.Schema { return f.child.Schema() }

// projectIter computes named scalar outputs.
type projectIter struct {
	child  Iterator
	funcs  []valueFunc
	schema algebra.Schema
}

func (p *projectIter) Open() error { return p.child.Open() }

func (p *projectIter) Next() (storage.Row, bool, error) {
	r, ok, err := p.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(storage.Row, len(p.funcs))
	for i, f := range p.funcs {
		v, err := f(r)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	return out, true, nil
}

func (p *projectIter) Close() error           { return p.child.Close() }
func (p *projectIter) Schema() algebra.Schema { return p.schema }

// sortIter fully sorts its child's output by the given columns.
type sortIter struct {
	child Iterator
	cols  []algebra.Column
	rows  []storage.Row
	pos   int
}

func (s *sortIter) Open() error {
	if err := s.child.Open(); err != nil {
		return err
	}
	s.rows = s.rows[:0]
	s.pos = 0
	idxs := make([]int, len(s.cols))
	for i, c := range s.cols {
		idxs[i] = s.child.Schema().IndexOf(c)
		if idxs[i] < 0 {
			return fmt.Errorf("exec: sort column %v not in schema", c)
		}
	}
	for {
		r, ok, err := s.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.rows = append(s.rows, r)
	}
	sort.SliceStable(s.rows, func(a, b int) bool {
		for _, ix := range idxs {
			c := algebra.Compare(s.rows[a][ix], s.rows[b][ix])
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return nil
}

func (s *sortIter) Next() (storage.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true, nil
}

func (s *sortIter) Close() error           { s.rows = nil; return s.child.Close() }
func (s *sortIter) Schema() algebra.Schema { return s.child.Schema() }
func (s *sortIter) buffered() int          { return len(s.rows) - s.pos }

// joinScratch is the row a join's predicate sees: the outer row followed by
// the inner candidate, overwritten for every pair. Only a pair that passes
// is copied out, so a probe whose pairs all fail allocates nothing.
type joinScratch struct {
	row    storage.Row
	nOuter int   // width of the outer side
	pairs  int64 // predicate evaluations since the join was built
}

func (s *joinScratch) init(outer, inner algebra.Schema) {
	if s.row == nil {
		s.nOuter = len(outer)
		s.row = make(storage.Row, len(outer)+len(inner))
	}
}

func (s *joinScratch) setOuter(r storage.Row) { copy(s.row, r) }

// eval evaluates pred on the current outer row paired with inner; ok reports
// a pass, and out is then the caller's copy of the pair.
func (s *joinScratch) eval(pred predFunc, inner storage.Row) (out storage.Row, ok bool, err error) {
	copy(s.row[s.nOuter:], inner)
	s.pairs++
	if ok, err = pred(s.row); err != nil || !ok {
		return nil, false, err
	}
	return s.row.Clone(), true, nil
}

// pairsEvaluated is what a profiled run reports as NodeProfile.Pairs.
func (s *joinScratch) pairsEvaluated() int64 { return s.pairs }

var keySeed = maphash.MakeSeed()

// keyHash hashes a row's key columns so that keys equal under
// algebra.Compare hash alike: numbers by AsFloat with -0 folded into +0,
// strings by content. ok is false for a NaN key: Compare calls NaN equal to
// every number, so it belongs in no one bucket.
func keyHash(r storage.Row, cols []int) (h uint64, ok bool) {
	for _, c := range cols {
		var x uint64
		if v := r[c]; v.Typ == algebra.TString {
			x = maphash.String(keySeed, v.S)
		} else {
			f := v.AsFloat()
			if f != f {
				return 0, false
			}
			if f == 0 {
				f = 0 // -0 and +0 differ in bits
			}
			x = math.Float64bits(f)
		}
		h = (h ^ x) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h, true
}

// nlJoin is the block nested-loops join: the inner input is buffered in
// memory and each outer row is paired with it in arrival order. The
// predicate's cross-side col = col conjuncts (lKey[i] = rKey[i]) key a hash
// table over the buffer, so an outer row meets only its bucket, the inner
// rows whose key hashes like its own. The full predicate still decides every
// pair, which also settles hash collisions, and buckets keep arrival order,
// so the output is that of the all-pairs loop, row for row. With no such
// conjunct every row hashes to the empty key and the bucket is the buffer.
type nlJoin struct {
	left, right Iterator
	pred        predFunc
	lKey, rKey  []int // key column positions in the outer and the inner row
	schema      algebra.Schema
	joinScratch

	inner []storage.Row
	// The hash table: bucketOf numbers the key hashes seen, and bucket b is
	// bucketed[ends[b-1]:ends[b]], all buckets carved from one array.
	// bucketOf is nil once an inner key is NaN: every outer row then meets
	// all of inner.
	bucketOf map[uint64]int32
	ends     []int32
	bucketed []storage.Row
	slot     []int32       // per inner row, its bucket; scratch of Open
	cands    []storage.Row // what is left of the current outer row's bucket
}

// newNLJoin compiles the join predicate and keys the join on its cross-side
// col = col conjuncts, at the positions the compiled predicate reads them.
func newNLJoin(left, right Iterator, p algebra.Predicate, env *Env) (*nlJoin, error) {
	schema := left.Schema().Concat(right.Schema())
	pred, err := compilePred(p, schema, env)
	if err != nil {
		return nil, err
	}
	j := &nlJoin{left: left, right: right, pred: pred, schema: schema}
	nOuter := len(left.Schema())
	lcols, rcols := p.EquiJoinColumns(left.Schema(), right.Schema())
	for i := range lcols {
		if l, r := schema.IndexOf(lcols[i]), schema.IndexOf(rcols[i]); l < nOuter && r >= nOuter {
			j.lKey, j.rKey = append(j.lKey, l), append(j.rKey, r-nOuter)
		}
	}
	return j, nil
}

// Open buffers the inner input and buckets it in two passes: the first
// hashes each row and counts its bucket, the second places the rows, so the
// buckets share one array and keep arrival order.
func (j *nlJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		return err
	}
	j.init(j.left.Schema(), j.right.Schema())
	j.inner, j.ends, j.slot, j.cands = j.inner[:0], j.ends[:0], j.slot[:0], nil
	if b, ok := j.right.(interface{ buffered() int }); ok {
		n := b.buffered()
		j.inner, j.slot = slices.Grow(j.inner, n), slices.Grow(j.slot, n)
	}
	if j.bucketOf == nil {
		j.bucketOf = map[uint64]int32{}
	}
	clear(j.bucketOf)
	keyed := true
	for {
		r, ok, err := j.right.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		j.inner = append(j.inner, r)
		h, ok := keyHash(r, j.rKey)
		if keyed = keyed && ok; !keyed {
			continue
		}
		b, seen := j.bucketOf[h]
		if !seen {
			b = int32(len(j.ends))
			j.bucketOf[h] = b
			j.ends = append(j.ends, 0)
		}
		j.ends[b]++
		j.slot = append(j.slot, b)
	}
	if !keyed {
		j.bucketOf = nil
		return nil
	}
	// Turn the counts into each bucket's start; placing its rows then moves
	// that up to its end.
	n := int32(0)
	for b, count := range j.ends {
		j.ends[b] = n
		n += count
	}
	j.bucketed = slices.Grow(j.bucketed[:0], len(j.inner))[:len(j.inner)]
	for i, r := range j.inner {
		b := j.slot[i]
		j.bucketed[j.ends[b]] = r
		j.ends[b]++
	}
	return nil
}

// bucket is the inner rows an outer row has to meet.
func (j *nlJoin) bucket(outer storage.Row) []storage.Row {
	h, ok := keyHash(outer, j.lKey)
	if !ok || j.bucketOf == nil {
		return j.inner
	}
	b, ok := j.bucketOf[h]
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
		l, ok, err := j.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.setOuter(l)
		j.cands = j.bucket(l)
	}
}

func (j *nlJoin) Close() error {
	j.inner, j.bucketed, j.cands = nil, nil, nil
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

	group     []storage.Row // right rows of the current key group
	groupPos  int
	rightNext storage.Row
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
	j.group, j.groupPos = nil, 0
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
	j.group = j.group[:0]
	for !j.rightDone {
		c := compareAt(j.rightNext, j.rIdx, l, j.lIdx)
		if c > 0 {
			break
		}
		if c == 0 {
			j.group = append(j.group, j.rightNext)
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

func (j *mergeJoin) Close() error {
	j.group = nil
	if err := j.left.Close(); err != nil {
		return err
	}
	return j.right.Close()
}

func (j *mergeJoin) Schema() algebra.Schema { return j.schema }

// indexedSource provides index probes into a stored relation (base table or
// materialized temp), fetching the kept columns of each row found. Every
// probe re-positions the source's one iterator.
type indexedSource struct {
	heap *storage.HeapFile
	it   *storage.BTreeIter
	kept
}

func newIndexedSource(heap *storage.HeapFile, index *storage.BTree, stored algebra.Schema, need colNeed) *indexedSource {
	return &indexedSource{heap: heap, it: index.NewIter(), kept: need.of(stored)}
}

// probeEq appends the rows with key == v to out.
func (s *indexedSource) probeEq(v algebra.Value, out []storage.Row) ([]storage.Row, error) {
	if err := s.it.Seek(v); err != nil {
		return nil, err
	}
	return s.fetchWhile(func(k algebra.Value) bool { return algebra.Compare(k, v) == 0 }, out)
}

// fetchWhile appends to out the rows of the entries from the iterator's
// position on, up to the first whose key fails while (nil: to the end).
func (s *indexedSource) fetchWhile(while func(algebra.Value) bool, out []storage.Row) ([]storage.Row, error) {
	for {
		k, rid, ok, err := s.it.Next()
		if err != nil {
			return nil, err
		}
		if !ok || (while != nil && !while(k)) {
			return out, nil
		}
		r, err := s.heap.GetCols(rid, s.cols)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
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

func (j *indexJoin) Close() error           { return j.outer.Close() }
func (j *indexJoin) Schema() algebra.Schema { return j.schema }

// columns reports the probed inner's.
func (j *indexJoin) columns() (read, stored int) { return j.inner.columns() }

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
	s.rows, s.pos = nil, 0
	v, err := s.rhs(nil)
	if err != nil {
		return err
	}
	// The probe brackets the key range; the residual predicate below makes
	// the bounds strict where the operator is.
	var rows []storage.Row
	switch src := s.source; s.op {
	case algebra.EQ:
		rows, err = src.probeEq(v, nil)
	case algebra.GE, algebra.GT:
		if err = src.it.Seek(v); err == nil {
			rows, err = src.fetchWhile(nil, nil)
		}
	case algebra.LE, algebra.LT:
		if err = src.it.SeekFirst(); err == nil {
			rows, err = src.fetchWhile(func(k algebra.Value) bool { return algebra.Compare(k, v) <= 0 }, nil)
		}
	default:
		return fmt.Errorf("exec: index select does not support %v", s.op)
	}
	if err != nil {
		return err
	}
	// Residual predicate keeps semantics exact (strict bounds etc.).
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

func (s *indexSelect) Close() error           { s.rows = nil; return nil }
func (s *indexSelect) Schema() algebra.Schema { return s.schema }
func (s *indexSelect) buffered() int          { return len(s.rows) - s.pos }

func (s *indexSelect) columns() (read, stored int) { return s.source.columns() }

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
	child   Iterator
	groupBy []algebra.Column
	aggs    []algebra.AggExpr
	schema  algebra.Schema

	gbIdx   []int
	argFns  []valueFunc
	pending storage.Row // first row of the next group
	done    bool
	opened  bool
}

func (a *sortAgg) Open() error {
	if err := a.child.Open(); err != nil {
		return err
	}
	cs := a.child.Schema()
	a.gbIdx = make([]int, len(a.groupBy))
	for i, c := range a.groupBy {
		a.gbIdx[i] = cs.IndexOf(c)
		if a.gbIdx[i] < 0 {
			return fmt.Errorf("exec: group-by column %v not in input", c)
		}
	}
	a.argFns = make([]valueFunc, len(a.aggs))
	for i, ag := range a.aggs {
		if ag.Func == algebra.CountAll {
			continue
		}
		f, err := compileScalar(ag.Arg, cs, nil)
		if err != nil {
			return err
		}
		a.argFns[i] = f
	}
	a.pending, a.done, a.opened = nil, false, true
	return nil
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
			if len(a.groupBy) == 0 {
				// Scalar aggregate over empty input: one row of zeros.
				states := a.newStates()
				return a.emit(nil, states), true, nil
			}
			return nil, false, nil
		}
		cur = r
	}
	states := a.newStates()
	for i := range states {
		if err := states[i].add(cur); err != nil {
			return nil, false, err
		}
	}
	for {
		r, ok, err := a.child.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			a.done = true
			break
		}
		if compareAt(r, a.gbIdx, cur, a.gbIdx) != 0 {
			a.pending = r
			break
		}
		for i := range states {
			if err := states[i].add(r); err != nil {
				return nil, false, err
			}
		}
	}
	return a.emit(cur, states), true, nil
}

func (a *sortAgg) newStates() []aggState {
	states := make([]aggState, len(a.aggs))
	for i, ag := range a.aggs {
		states[i] = aggState{fn: ag.Func, arg: a.argFns[i]}
	}
	return states
}

// emit builds the output row: group-by values then aggregate results, in
// the order of a.schema.
func (a *sortAgg) emit(sample storage.Row, states []aggState) storage.Row {
	out := make(storage.Row, 0, len(a.groupBy)+len(states))
	for _, ix := range a.gbIdx {
		out = append(out, sample[ix])
	}
	for i := range states {
		out = append(out, states[i].result())
	}
	return out
}

func (a *sortAgg) Close() error           { return a.child.Close() }
func (a *sortAgg) Schema() algebra.Schema { return a.schema }
