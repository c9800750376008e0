package dag

import (
	"testing"

	"mqo/internal/algebra"
)

// TestColSetAcrossWords checks the set operations predicate splitting rests
// on where sets span more than one 64-bit word and differ in length.
func TestColSetAcrossWords(t *testing.T) {
	set := func(bits ...int) colSet {
		var s colSet
		for _, b := range bits {
			s = s.with(b)
		}
		return s
	}
	a, b := set(0, 3, 63), set(64, 130)
	for _, c := range []struct {
		name string
		s    colSet
		want bool
	}{
		{"empty", nil, true},
		{"low word", set(3, 63), true},
		{"both inputs", set(0, 130), true},
		{"high word of the longer input", set(64), true},
		{"missing low bit", set(1), false},
		{"missing high bit", set(0, 129), false},
		{"beyond both inputs", set(200), false},
	} {
		if got := c.s.within(a, b); got != c.want {
			t.Errorf("%s: within = %v, want %v", c.name, got, c.want)
		}
		if got := c.s.within(b, a); got != c.want {
			t.Errorf("%s: within with inputs exchanged = %v, want %v", c.name, got, c.want)
		}
		if got := c.s.within(a.union(b), nil); got != c.want {
			t.Errorf("%s: within the union = %v, want %v", c.name, got, c.want)
		}
	}
	if !set(0).within(a, nil) || set(64).within(a, nil) {
		t.Error("within one input: want bit 0 in, bit 64 out")
	}
	if u := b.union(a); len(u) != 3 || !a.within(u, nil) || !b.within(u, nil) {
		t.Errorf("union %v does not cover its inputs", u)
	}
}

// TestInternerClauseIdentity checks that clauses are identified by their
// canonical rendering, not their spelling, and carry their columns.
func TestInternerClauseIdentity(t *testing.T) {
	in := newInterner()
	ax, by := algebra.Col("a", "x"), algebra.Col("b", "y")
	p := in.pred(algebra.ColEq(ax, by).And(algebra.Cmp(ax, algebra.GE, algebra.IntVal(3))))
	q := in.pred(algebra.Cmp(ax, algebra.GE, algebra.IntVal(3)).And(algebra.ColEq(by, ax)))
	if p.ids[0] != q.ids[1] || p.ids[1] != q.ids[0] || p.ids[0] == p.ids[1] {
		t.Fatalf("clause IDs %v and %v: want the two clauses exchanged", p.ids, q.ids)
	}
	if in.predID(p.ids) != in.predID(q.ids) {
		t.Error("the same conjuncts in another order must be the same predicate")
	}
	if in.predID(p.ids) == in.predID(append(append([]clauseID(nil), p.ids...), p.ids[0])) {
		t.Error("a repeated conjunct renders twice and must not be dropped")
	}
	if in.predID(nil) == in.predID(p.ids[:1]) {
		t.Error("the true predicate must differ from a one-clause predicate")
	}
	onlyA, both := in.schemaCols(algebra.Schema{{Col: ax}}), in.schemaCols(algebra.Schema{{Col: ax}, {Col: by}})
	if cols := in.clauseCols[p.ids[0]]; cols.within(onlyA, nil) || !cols.within(both, nil) {
		t.Error("a.x = b.y must need both columns")
	}
	if cols := in.clauseCols[p.ids[1]]; !cols.within(onlyA, nil) {
		t.Error("a.x >= 3 must need a.x only")
	}
}
