package dag

import (
	"encoding/binary"
	"slices"

	"mqo/internal/algebra"
)

// opKind is the operator of an operation node, the first part of its
// identity. It is as wide as exprKey's other fields so that the key has no
// padding and hashes as one block of memory.
type opKind uint32

const (
	kindScan opKind = iota
	kindSelect
	kindJoin
	kindAggregate
	kindProject
	kindInvoke
	kindNoOp
)

// exprKey is the identity of an operation node: two nodes denote the same
// expression exactly when their keys are equal. It stands where the
// rendering op.Fingerprint() + "(" + child group IDs + ")" used to stand,
// and is equal between two nodes exactly when that rendering is.
type exprKey struct {
	kind opKind
	// op is the interned operator: for a select or join the ID of its
	// predicate (the sorted clause IDs), for a NoOp the ID of its input
	// list, for the others the ID of the operator's rendering.
	op uint32
	// c0, c1 are the input groups, noGroup where absent. A NoOp's inputs
	// are part of op.
	c0, c1 GroupID
}

const noGroup GroupID = -1

// clauseID is the dense identity the interner gives a clause the first time
// its canonical rendering is seen.
type clauseID uint32

// pred is a conjunction as the DAG handles it: the clauses in predicate
// order, each with its interned ID beside it. Rules recombine the clauses of
// existing expressions through it — concatenating as Predicate.And does,
// splitting without reordering — and render nothing.
//
// What a rule builds is a set of clauses: a clause already there is not added
// again, so p∧p is p. Were it a multiset, a select over its own group — which
// unification can leave behind — would let ruleSelectMerge lengthen the
// select's predicate for ever.
type pred struct {
	conj []algebra.Clause
	ids  []clauseID
}

// predicate returns the conjunction as the algebra sees it.
func (p pred) predicate() algebra.Predicate { return algebra.Predicate{Conj: p.conj} }

func (p *pred) reset() { p.conj, p.ids = p.conj[:0], p.ids[:0] }

// add appends q's i-th conjunct unless p has it.
func (p *pred) add(q pred, i int) {
	if slices.Contains(p.ids, q.ids[i]) { // predicates are a few clauses long
		return
	}
	p.conj = append(p.conj, q.conj[i])
	p.ids = append(p.ids, q.ids[i])
}

// addAll appends every conjunct of q that p does not have, as Predicate.And
// does but for the repeats.
func (p *pred) addAll(q pred) {
	for i := range q.ids {
		p.add(q, i)
	}
}

// colSet is a set of columns, one bit per column in interning order.
type colSet []uint64

func (s colSet) with(bit int) colSet {
	for len(s) <= bit/64 {
		s = append(s, 0)
	}
	s[bit/64] |= 1 << (bit % 64)
	return s
}

// union returns s ∪ t as a new set.
func (s colSet) union(t colSet) colSet {
	if len(s) < len(t) {
		s, t = t, s
	}
	out := append(colSet(nil), s...)
	for i, w := range t {
		out[i] |= w
	}
	return out
}

// within reports s ⊆ a ∪ b.
func (s colSet) within(a, b colSet) bool {
	for i, w := range s {
		var have uint64
		if i < len(a) {
			have = a[i]
		}
		if i < len(b) {
			have |= b[i]
		}
		if w&^have != 0 {
			return false
		}
	}
	return true
}

// interner assigns the dense integer identities one DAG's expressions are
// keyed on. Renderings are consulted only where something is born: a clause
// in a query tree or a subsumption derivation, an operator without a
// predicate. Everything a transformation rule derives recombines clauses
// that already have IDs.
type interner struct {
	cols       map[algebra.Column]int // column → bit in a colSet
	clauses    map[string]clauseID    // canonical clause rendering → ID
	clauseCols []colSet               // by clauseID: the columns the clause refers to
	ops        map[string]uint32      // Op.Fingerprint() of a scan, aggregate, project or invoke → ID
	lists      map[string]uint32      // packed ID list (a predicate's sorted clause IDs, a NoOp's inputs) → ID

	sorted   []clauseID // scratch of predID
	packed   []byte     // scratch of list
	rendered []byte     // scratch of clause and opID
}

func newInterner() interner {
	return interner{
		cols:    map[algebra.Column]int{},
		clauses: map[string]clauseID{},
		ops:     map[string]uint32{},
		lists:   map[string]uint32{},
	}
}

func (in *interner) col(c algebra.Column) int {
	bit, ok := in.cols[c]
	if !ok {
		bit = len(in.cols)
		in.cols[c] = bit
	}
	return bit
}

// schemaCols returns the column set of a schema.
func (in *interner) schemaCols(s algebra.Schema) colSet {
	var set colSet
	for _, ci := range s {
		set = set.with(in.col(ci.Col))
	}
	return set
}

// clause interns one clause by the rendering Predicate.Fingerprint gives it.
func (in *interner) clause(cl algebra.Clause) clauseID {
	s := in.rendered[:0]
	if len(cl.Disj) > 1 {
		s = append(cl.AppendFingerprint(append(s, '(')), ')')
	} else {
		s = cl.AppendFingerprint(s)
	}
	in.rendered = s
	id, ok := in.clauses[string(s)] // no allocation on a hit
	if !ok {
		id = clauseID(len(in.clauseCols))
		in.clauses[string(s)] = id
		var set colSet
		cl.VisitColumns(func(c algebra.Column) { set = set.with(in.col(c)) })
		in.clauseCols = append(in.clauseCols, set)
	}
	return id
}

// pred interns the clauses of a predicate given in full.
func (in *interner) pred(p algebra.Predicate) pred {
	ids := make([]clauseID, len(p.Conj))
	for i, cl := range p.Conj {
		ids[i] = in.clause(cl)
	}
	return pred{conj: p.Conj, ids: ids}
}

// opID interns an operator that has no predicate by its rendering.
func (in *interner) opID(op algebra.Op) uint32 {
	s := op.AppendFingerprint(in.rendered[:0])
	in.rendered = s
	id, ok := in.ops[string(s)]
	if !ok {
		id = uint32(len(in.ops))
		in.ops[string(s)] = id
	}
	return id
}

// predID interns a predicate as the multiset of its clauses: equal for two
// predicates exactly when Predicate.Fingerprint is.
func (in *interner) predID(ids []clauseID) uint32 {
	s := append(in.sorted[:0], ids...)
	for i := 1; i < len(s); i++ { // insertion sort: predicates are a few clauses long
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	in.sorted = s
	b := in.packed[:0]
	for _, id := range s {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	return in.list(b)
}

// inputsID interns a NoOp's input list.
func (in *interner) inputsID(children []*Group) uint32 {
	b := in.packed[:0]
	for _, c := range children {
		b = binary.LittleEndian.AppendUint32(b, uint32(c.ID))
	}
	return in.list(b)
}

func (in *interner) list(packed []byte) uint32 {
	in.packed = packed
	id, ok := in.lists[string(packed)] // no allocation on a hit
	if !ok {
		id = uint32(len(in.lists))
		in.lists[string(packed)] = id
	}
	return id
}

// key assembles the identity of kind[op] over the given (resolved) inputs;
// op is not looked at for a NoOp.
func (in *interner) key(kind opKind, op uint32, children []*Group) exprKey {
	k := exprKey{kind: kind, op: op, c0: noGroup, c1: noGroup}
	switch {
	case kind == kindNoOp:
		k.op = in.inputsID(children)
	case len(children) == 2:
		k.c0, k.c1 = children[0].ID, children[1].ID
	case len(children) == 1:
		k.c0 = children[0].ID
	}
	return k
}
