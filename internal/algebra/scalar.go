package algebra

import (
	"bytes"
	"slices"
)

// Scalar is a scalar-valued expression tree: column references, constants,
// binary arithmetic, and parameter placeholders (for correlated / nested
// query variables, paper §5).
type Scalar interface {
	// Fingerprint returns a canonical rendering; two scalars with the same
	// fingerprint are semantically identical.
	Fingerprint() string
	// AppendFingerprint appends Fingerprint's rendering to dst.
	AppendFingerprint(dst []byte) []byte
	// VisitColumns calls f for every column referenced by the expression.
	VisitColumns(f func(Column))
	// HasParam reports whether the expression references a parameter.
	HasParam() bool
}

// ColExpr references a column.
type ColExpr struct{ C Column }

// ConstExpr is a literal value.
type ConstExpr struct{ V Value }

// ParamExpr is a named parameter supplied per invocation of a nested or
// parameterized query. Expressions containing parameters are never
// materialization candidates (their value differs per invocation).
type ParamExpr struct{ Name string }

// ArithOp enumerates binary arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

// String returns the operator symbol.
func (o ArithOp) String() string { return [...]string{"+", "-", "*", "/"}[o] }

// BinExpr is binary arithmetic over two scalars.
type BinExpr struct {
	Op   ArithOp
	L, R Scalar
}

// ColOf is shorthand for a column reference expression.
func ColOf(rel, name string) ColExpr { return ColExpr{C: Col(rel, name)} }

// ConstOf is shorthand for a constant expression.
func ConstOf(v Value) ConstExpr { return ConstExpr{V: v} }

// Fingerprint implements Scalar.
func (e ColExpr) Fingerprint() string { return string(e.AppendFingerprint(nil)) }

// AppendFingerprint implements Scalar.
func (e ColExpr) AppendFingerprint(dst []byte) []byte { return e.C.appendTo(dst) }

// VisitColumns implements Scalar.
func (e ColExpr) VisitColumns(f func(Column)) { f(e.C) }

// HasParam implements Scalar.
func (e ColExpr) HasParam() bool { return false }

// Fingerprint implements Scalar.
func (e ConstExpr) Fingerprint() string { return string(e.AppendFingerprint(nil)) }

// AppendFingerprint implements Scalar.
func (e ConstExpr) AppendFingerprint(dst []byte) []byte { return e.V.appendTo(dst) }

// VisitColumns implements Scalar.
func (e ConstExpr) VisitColumns(func(Column)) {}

// HasParam implements Scalar.
func (e ConstExpr) HasParam() bool { return false }

// Fingerprint implements Scalar.
func (e ParamExpr) Fingerprint() string { return string(e.AppendFingerprint(nil)) }

// AppendFingerprint implements Scalar.
func (e ParamExpr) AppendFingerprint(dst []byte) []byte { return append(append(dst, '?'), e.Name...) }

// VisitColumns implements Scalar.
func (e ParamExpr) VisitColumns(func(Column)) {}

// HasParam implements Scalar.
func (e ParamExpr) HasParam() bool { return true }

// Fingerprint implements Scalar.
func (e BinExpr) Fingerprint() string { return string(e.AppendFingerprint(nil)) }

// AppendFingerprint implements Scalar.
func (e BinExpr) AppendFingerprint(dst []byte) []byte {
	dst = append(e.L.AppendFingerprint(append(dst, '(')), e.Op.String()...)
	return append(e.R.AppendFingerprint(dst), ')')
}

// VisitColumns implements Scalar.
func (e BinExpr) VisitColumns(f func(Column)) {
	e.L.VisitColumns(f)
	e.R.VisitColumns(f)
}

// HasParam implements Scalar.
func (e BinExpr) HasParam() bool { return e.L.HasParam() || e.R.HasParam() }

// CmpOp enumerates comparison operators used in predicates.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the SQL symbol for the operator.
func (o CmpOp) String() string { return [...]string{"=", "<>", "<", "<=", ">", ">="}[o] }

// Flip returns the operator with sides exchanged (a < b  ==  b > a).
func (o CmpOp) Flip() CmpOp {
	switch o {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	}
	return o // EQ, NE are symmetric
}

// Eval evaluates the comparison on concrete values.
func (o CmpOp) Eval(a, b Value) bool { return o.Holds(Compare(a, b)) }

// Holds reports whether the comparison holds between two operands that
// Compare orders as c.
func (o CmpOp) Holds(c int) bool {
	switch o {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	}
	return false
}

// Comparison is a single comparison between two scalars.
type Comparison struct {
	L  Scalar
	Op CmpOp
	R  Scalar
}

// Fingerprint returns a canonical rendering. A comparison is normalized so
// that the lexicographically smaller side appears on the left; this makes
// a.x = b.y and b.y = a.x fingerprint identically.
func (c Comparison) Fingerprint() string { return string(c.AppendFingerprint(nil)) }

// AppendFingerprint appends Fingerprint's rendering to dst. It renders the
// sides in place, l op r, and rewrites the span as r flip(op) l when r
// renders smaller; Flip keeps an operator's length.
func (c Comparison) AppendFingerprint(dst []byte) []byte {
	start := len(dst)
	dst = c.L.AppendFingerprint(dst)
	lEnd := len(dst)
	dst = append(dst, c.Op.String()...)
	rStart := len(dst)
	dst = c.R.AppendFingerprint(dst)
	end := len(dst)
	if bytes.Compare(dst[rStart:end], dst[start:lEnd]) >= 0 {
		return dst
	}
	// Assemble the swapped form past the end, then move it over the span.
	dst = append(dst, dst[rStart:end]...)
	dst = append(dst, c.Op.Flip().String()...)
	dst = append(dst, dst[start:lEnd]...)
	return dst[:start+copy(dst[start:], dst[end:])]
}

// VisitColumns calls f for every referenced column.
func (c Comparison) VisitColumns(f func(Column)) {
	c.L.VisitColumns(f)
	c.R.VisitColumns(f)
}

// HasParam reports whether either side references a parameter.
func (c Comparison) HasParam() bool { return c.L.HasParam() || c.R.HasParam() }

// Clause is a disjunction of comparisons.
type Clause struct{ Disj []Comparison }

// Fingerprint returns a canonical rendering with disjuncts sorted.
func (cl Clause) Fingerprint() string { return string(cl.AppendFingerprint(nil)) }

// AppendFingerprint appends Fingerprint's rendering to dst.
func (cl Clause) AppendFingerprint(dst []byte) []byte {
	return appendSorted(dst, len(cl.Disj), " OR ",
		func(dst []byte, i int) []byte { return cl.Disj[i].AppendFingerprint(dst) })
}

// VisitColumns calls f for every referenced column.
func (cl Clause) VisitColumns(f func(Column)) {
	for _, c := range cl.Disj {
		c.VisitColumns(f)
	}
}

// Predicate is a conjunction of clauses (CNF). The zero Predicate is the
// always-true predicate.
type Predicate struct{ Conj []Clause }

// IsTrue reports whether the predicate is the empty (always-true) predicate.
func (p Predicate) IsTrue() bool { return len(p.Conj) == 0 }

// Fingerprint returns a canonical rendering with conjuncts sorted, each
// clause of more than one disjunct in parentheses.
func (p Predicate) Fingerprint() string { return string(p.AppendFingerprint(nil)) }

// AppendFingerprint appends Fingerprint's rendering to dst.
func (p Predicate) AppendFingerprint(dst []byte) []byte {
	if p.IsTrue() {
		return append(dst, "true"...)
	}
	return appendSorted(dst, len(p.Conj), " AND ", func(dst []byte, i int) []byte {
		cl := p.Conj[i]
		if len(cl.Disj) <= 1 {
			return cl.AppendFingerprint(dst)
		}
		return append(cl.AppendFingerprint(append(dst, '(')), ')')
	})
}

// span is a rendering's place in a buffer, [lo, hi).
type span struct{ lo, hi int }

// appendSorted appends n parts, rendered by part, sorted bytewise — the
// order sort.Strings gives their strings — and joined by sep. It renders
// them past dst's end, sorts their spans and moves the joined result over
// them; only a list of more than 32 parts allocates its spans.
func appendSorted(dst []byte, n int, sep string, part func(dst []byte, i int) []byte) []byte {
	if n == 1 {
		return part(dst, 0)
	}
	var small [32]span
	spans := small[:0]
	start := len(dst)
	for i := range n {
		lo := len(dst)
		dst = part(dst, i)
		spans = append(spans, span{lo, len(dst)})
	}
	end := len(dst)
	slices.SortFunc(spans, func(a, b span) int { return bytes.Compare(dst[a.lo:a.hi], dst[b.lo:b.hi]) })
	for i, s := range spans {
		if i > 0 {
			dst = append(dst, sep...)
		}
		dst = append(dst, dst[s.lo:s.hi]...)
	}
	return dst[:start+copy(dst[start:], dst[end:])]
}

// String renders the predicate (same as Fingerprint).
func (p Predicate) String() string { return p.Fingerprint() }

// VisitColumns calls f for every referenced column.
func (p Predicate) VisitColumns(f func(Column)) {
	for _, cl := range p.Conj {
		cl.VisitColumns(f)
	}
}

// Columns returns the distinct columns referenced by the predicate.
func (p Predicate) Columns() []Column {
	seen := map[Column]bool{}
	var out []Column
	p.VisitColumns(func(c Column) {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	})
	return out
}

// HasParam reports whether the predicate references any parameter.
func (p Predicate) HasParam() bool {
	for _, cl := range p.Conj {
		for _, c := range cl.Disj {
			if c.HasParam() {
				return true
			}
		}
	}
	return false
}

// And returns the conjunction of two predicates.
func (p Predicate) And(q Predicate) Predicate {
	out := Predicate{Conj: make([]Clause, 0, len(p.Conj)+len(q.Conj))}
	out.Conj = append(out.Conj, p.Conj...)
	out.Conj = append(out.Conj, q.Conj...)
	return out
}

// TruePred is the always-true predicate.
func TruePred() Predicate { return Predicate{} }

// Cmp builds a single-comparison predicate col op value.
func Cmp(c Column, op CmpOp, v Value) Predicate {
	return Predicate{Conj: []Clause{{Disj: []Comparison{{L: ColExpr{C: c}, Op: op, R: ConstExpr{V: v}}}}}}
}

// CmpParam builds a single-comparison predicate col op ?name.
func CmpParam(c Column, op CmpOp, name string) Predicate {
	return Predicate{Conj: []Clause{{Disj: []Comparison{{L: ColExpr{C: c}, Op: op, R: ParamExpr{Name: name}}}}}}
}

// ColEq builds the equijoin predicate a = b.
func ColEq(a, b Column) Predicate {
	return Predicate{Conj: []Clause{{Disj: []Comparison{{L: ColExpr{C: a}, Op: EQ, R: ColExpr{C: b}}}}}}
}

// ColCmp builds the predicate a op b between two columns.
func ColCmp(a Column, op CmpOp, b Column) Predicate {
	return Predicate{Conj: []Clause{{Disj: []Comparison{{L: ColExpr{C: a}, Op: op, R: ColExpr{C: b}}}}}}
}

// OrValues builds the disjunctive predicate col = v1 OR col = v2 OR ... used
// by disjunctive subsumption nodes (paper §2.1, extension 2).
func OrValues(c Column, op CmpOp, vals []Value) Predicate {
	cl := Clause{Disj: make([]Comparison, len(vals))}
	for i, v := range vals {
		cl.Disj[i] = Comparison{L: ColExpr{C: c}, Op: op, R: ConstExpr{V: v}}
	}
	return Predicate{Conj: []Clause{cl}}
}

// singleColComparison returns (col, op, val, true) if the predicate is a
// single comparison of one column against a constant.
func (p Predicate) singleColComparison() (Column, CmpOp, Value, bool) {
	if len(p.Conj) != 1 || len(p.Conj[0].Disj) != 1 {
		return Column{}, 0, Value{}, false
	}
	c := p.Conj[0].Disj[0]
	l, lok := c.L.(ColExpr)
	r, rok := c.R.(ConstExpr)
	if lok && rok {
		return l.C, c.Op, r.V, true
	}
	// constant on the left: flip
	lc, lok2 := c.L.(ConstExpr)
	rc, rok2 := c.R.(ColExpr)
	if lok2 && rok2 {
		return rc.C, c.Op.Flip(), lc.V, true
	}
	return Column{}, 0, Value{}, false
}

// SingleColumnRange reports the predicate's single column comparison parts,
// used by subsumption analysis.
func (p Predicate) SingleColumnRange() (Column, CmpOp, Value, bool) {
	return p.singleColComparison()
}

// Implies reports whether p → q can be proven for simple single-column
// comparison predicates against constants (conservative: false when
// unknown). It is the containment test behind subsumption derivations:
// if p implies q then rows(σp(E)) ⊆ rows(σq(E)), so σp(E) = σp(σq(E)).
func (p Predicate) Implies(q Predicate) bool {
	if q.IsTrue() {
		return true
	}
	pc, pop, pv, ok := p.singleColComparison()
	if !ok {
		return false
	}
	qc, qop, qv, ok := q.singleColComparison()
	if !ok || pc != qc {
		return false
	}
	cmp := Compare(pv, qv)
	switch qop {
	case LT:
		// q: col < qv. p must restrict strictly below qv.
		return (pop == LT && cmp <= 0) || (pop == LE && cmp < 0) || (pop == EQ && cmp < 0)
	case LE:
		return (pop == LT && cmp <= 0) || (pop == LE && cmp <= 0) || (pop == EQ && cmp <= 0)
	case GT:
		return (pop == GT && cmp >= 0) || (pop == GE && cmp > 0) || (pop == EQ && cmp > 0)
	case GE:
		return (pop == GT && cmp >= 0) || (pop == GE && cmp >= 0) || (pop == EQ && cmp >= 0)
	case EQ:
		return pop == EQ && cmp == 0
	case NE:
		return (pop == EQ && cmp != 0) ||
			(pop == LT && cmp <= 0) || (pop == GT && cmp >= 0) ||
			(pop == LE && cmp < 0) || (pop == GE && cmp > 0) ||
			(pop == NE && cmp == 0)
	}
	return false
}

// EquiJoinColumns extracts the pairs (l, r) from top-level conjuncts of the
// form l = r where l is in the left schema and r in the right (or vice
// versa, normalized to left-right order). Used to pick merge/index join keys.
func (p Predicate) EquiJoinColumns(left, right Schema) (lcols, rcols []Column) {
	for _, cl := range p.Conj {
		if len(cl.Disj) != 1 || cl.Disj[0].Op != EQ {
			continue
		}
		le, lok := cl.Disj[0].L.(ColExpr)
		re, rok := cl.Disj[0].R.(ColExpr)
		if !lok || !rok {
			continue
		}
		switch {
		case left.Has(le.C) && right.Has(re.C):
			lcols = append(lcols, le.C)
			rcols = append(rcols, re.C)
		case left.Has(re.C) && right.Has(le.C):
			lcols = append(lcols, re.C)
			rcols = append(rcols, le.C)
		}
	}
	return lcols, rcols
}
