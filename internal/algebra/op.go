package algebra

import (
	"strconv"
	"strings"
)

// Op is a logical operator. An operation node in the AND-OR DAG is an Op
// plus an ordered list of input equivalence nodes; the Op itself carries
// only the operator parameters (predicates, group-by columns, ...).
type Op interface {
	// Arity is the number of relational inputs the operator takes.
	Arity() int
	// Fingerprint returns a canonical rendering of the operator and its
	// parameters (not its inputs).
	Fingerprint() string
	// AppendFingerprint appends Fingerprint's rendering to dst.
	AppendFingerprint(dst []byte) []byte
	// String is a short human-readable form for plan printing.
	String() string
}

// Scan reads a base relation. Alias distinguishes multiple uses of the same
// table (self joins, correlated subqueries); output columns are qualified by
// Alias.
type Scan struct {
	Table string
	Alias string
}

// Arity implements Op.
func (s Scan) Arity() int { return 0 }

// Fingerprint implements Op.
func (s Scan) Fingerprint() string { return string(s.AppendFingerprint(nil)) }

// AppendFingerprint implements Op.
func (s Scan) AppendFingerprint(dst []byte) []byte {
	dst = append(append(append(dst, "scan("...), s.Table...), " as "...)
	return append(append(dst, s.Alias...), ')')
}

// String implements Op.
func (s Scan) String() string {
	if s.Table == s.Alias {
		return "Scan(" + s.Table + ")"
	}
	return "Scan(" + s.Table + " as " + s.Alias + ")"
}

// Select filters its input by a predicate.
type Select struct {
	Pred Predicate
}

// Arity implements Op.
func (s Select) Arity() int { return 1 }

// Fingerprint implements Op.
func (s Select) Fingerprint() string { return string(s.AppendFingerprint(nil)) }

// AppendFingerprint implements Op.
func (s Select) AppendFingerprint(dst []byte) []byte {
	return append(s.Pred.AppendFingerprint(append(dst, "select["...)), ']')
}

// String implements Op.
func (s Select) String() string { return "Select[" + s.Pred.String() + "]" }

// Join is an inner join of two inputs on Pred. An empty predicate denotes a
// cross product.
type Join struct {
	Pred Predicate
}

// Arity implements Op.
func (j Join) Arity() int { return 2 }

// Fingerprint implements Op.
func (j Join) Fingerprint() string { return string(j.AppendFingerprint(nil)) }

// AppendFingerprint implements Op.
func (j Join) AppendFingerprint(dst []byte) []byte {
	return append(j.Pred.AppendFingerprint(append(dst, "join["...)), ']')
}

// String implements Op.
func (j Join) String() string { return "Join[" + j.Pred.String() + "]" }

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions. CountAll counts rows. Avg is not decomposable and is
// therefore excluded from aggregate subsumption derivations.
const (
	Sum AggFunc = iota
	CountAll
	Min
	Max
	Avg
)

// String returns the SQL name of the aggregate function.
func (f AggFunc) String() string { return [...]string{"sum", "count", "min", "max", "avg"}[f] }

// Decomposable reports whether partial aggregates of f can be combined into
// the full aggregate by re-aggregation (sum of sums, min of mins, ...).
func (f AggFunc) Decomposable() bool { return f != Avg }

// Reaggregate returns the function used to combine partial results of f
// during an aggregate-subsumption derivation: count re-aggregates by sum,
// the rest by themselves.
func (f AggFunc) Reaggregate() AggFunc {
	if f == CountAll {
		return Sum
	}
	return f
}

// AggExpr is one aggregate output: Func applied to Arg, exposed as column
// (As.Rel, As.Name) in the output schema. Arg is ignored for CountAll.
type AggExpr struct {
	Func AggFunc
	Arg  Scalar
	As   Column
}

// Fingerprint returns the canonical rendering of the aggregate expression.
func (a AggExpr) Fingerprint() string { return string(a.AppendFingerprint(nil)) }

// AppendFingerprint appends Fingerprint's rendering to dst.
func (a AggExpr) AppendFingerprint(dst []byte) []byte {
	dst = append(append(dst, a.Func.String()...), '(')
	if a.Arg != nil {
		dst = a.Arg.AppendFingerprint(dst)
	} else {
		dst = append(dst, '*')
	}
	return a.As.appendTo(append(dst, ") as "...))
}

// Aggregate groups its input by GroupBy and computes Aggs per group. With an
// empty GroupBy it produces exactly one row over the whole input.
type Aggregate struct {
	GroupBy []Column
	Aggs    []AggExpr
}

// Arity implements Op.
func (a Aggregate) Arity() int { return 1 }

// Fingerprint implements Op.
func (a Aggregate) Fingerprint() string { return string(a.AppendFingerprint(nil)) }

// AppendFingerprint implements Op: group-by columns and aggregates each in
// sorted order.
func (a Aggregate) AppendFingerprint(dst []byte) []byte {
	dst = appendSorted(append(dst, "agg["...), len(a.GroupBy), ",",
		func(dst []byte, i int) []byte { return a.GroupBy[i].appendTo(dst) })
	dst = appendSorted(append(dst, "]["...), len(a.Aggs), ",",
		func(dst []byte, i int) []byte { return a.Aggs[i].AppendFingerprint(dst) })
	return append(dst, ']')
}

// String implements Op.
func (a Aggregate) String() string {
	gb := make([]string, len(a.GroupBy))
	for i, c := range a.GroupBy {
		gb[i] = c.String()
	}
	ag := make([]string, len(a.Aggs))
	for i, e := range a.Aggs {
		ag[i] = e.Func.String() + "(…)"
	}
	return "Agg{" + strings.Join(gb, ",") + "; " + strings.Join(ag, ",") + "}"
}

// NamedScalar is one output column of a projection.
type NamedScalar struct {
	Expr Scalar
	As   Column
	Typ  Type
}

// Project computes named scalar outputs from its input.
type Project struct {
	Exprs []NamedScalar
}

// Arity implements Op.
func (p Project) Arity() int { return 1 }

// Fingerprint implements Op.
func (p Project) Fingerprint() string { return string(p.AppendFingerprint(nil)) }

// AppendFingerprint implements Op.
func (p Project) AppendFingerprint(dst []byte) []byte {
	dst = append(dst, "project["...)
	for i, e := range p.Exprs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = e.As.appendTo(append(e.Expr.AppendFingerprint(dst), " as "...))
	}
	return append(dst, ']')
}

// String implements Op.
func (p Project) String() string { return "Project" }

// NoOp is the pseudo operation node at the virtual root of the batch DAG
// (paper §2.1): it does nothing but has the root equivalence nodes of all
// queries as inputs. Arity is variable; NInputs records it.
type NoOp struct {
	NInputs int
}

// Arity implements Op.
func (n NoOp) Arity() int { return n.NInputs }

// Fingerprint implements Op.
func (n NoOp) Fingerprint() string { return string(n.AppendFingerprint(nil)) }

// AppendFingerprint implements Op.
func (n NoOp) AppendFingerprint(dst []byte) []byte {
	return strconv.AppendInt(append(dst, "noop/"...), int64(n.NInputs), 10)
}

// String implements Op.
func (n NoOp) String() string { return "Batch" }

// Invoke models repeated invocation of a nested or parameterized query
// (paper §5): its single input is the body of the nested query and Times is
// the (estimated) number of invocations. The cost of an Invoke node is
// Times × the per-invocation cost of its input, so materializing a
// parameter-independent part of the body is credited once per invocation.
type Invoke struct {
	Times int64
}

// Arity implements Op.
func (iv Invoke) Arity() int { return 1 }

// Fingerprint implements Op.
func (iv Invoke) Fingerprint() string { return string(iv.AppendFingerprint(nil)) }

// AppendFingerprint implements Op.
func (iv Invoke) AppendFingerprint(dst []byte) []byte {
	return strconv.AppendInt(append(dst, "invoke/"...), iv.Times, 10)
}

// String implements Op.
func (iv Invoke) String() string { return "Invoke×" + strconv.FormatInt(iv.Times, 10) }

// Tree is a logical operator tree, the input form of a query before DAG
// construction.
type Tree struct {
	Op     Op
	Inputs []*Tree
}

// NewTree builds a tree node.
func NewTree(op Op, inputs ...*Tree) *Tree { return &Tree{Op: op, Inputs: inputs} }

// ScanT builds a scan leaf with alias = table name.
func ScanT(table string) *Tree { return NewTree(Scan{Table: table, Alias: table}) }

// ScanAs builds a scan leaf with an explicit alias.
func ScanAs(table, alias string) *Tree { return NewTree(Scan{Table: table, Alias: alias}) }

// SelectT wraps a tree in a selection.
func SelectT(pred Predicate, in *Tree) *Tree { return NewTree(Select{Pred: pred}, in) }

// JoinT joins two trees.
func JoinT(pred Predicate, l, r *Tree) *Tree { return NewTree(Join{Pred: pred}, l, r) }

// AggT wraps a tree in an aggregation.
func AggT(groupBy []Column, aggs []AggExpr, in *Tree) *Tree {
	return NewTree(Aggregate{GroupBy: groupBy, Aggs: aggs}, in)
}

// Fingerprint renders the tree as written: each operator's Fingerprint
// followed by its inputs' in parentheses. Equal trees render equally, and the
// rendering needs no DAG — it is what a plan cache can key on before any
// optimization work is done. Unlike the DAG's canonical fingerprints it does
// not see through equivalences: two join orders of one query render
// differently.
func (t *Tree) Fingerprint() string { return string(t.AppendFingerprint(nil)) }

// AppendFingerprint appends Fingerprint's rendering to dst. Rendering into a
// buffer the caller keeps allocates nothing once the buffer has grown to the
// rendering's length.
func (t *Tree) AppendFingerprint(dst []byte) []byte {
	dst = append(t.Op.AppendFingerprint(dst), '(')
	for i, in := range t.Inputs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = in.AppendFingerprint(dst)
	}
	return append(dst, ')')
}

// String renders the tree with indentation for debugging.
func (t *Tree) String() string {
	var b strings.Builder
	var rec func(n *Tree, depth int)
	rec = func(n *Tree, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Op.String())
		b.WriteByte('\n')
		for _, in := range n.Inputs {
			rec(in, depth+1)
		}
	}
	rec(t, 0)
	return b.String()
}
