// Package physical implements the physical AND-OR DAG (paper §2.2): for
// each logical equivalence node, one physical node per interesting physical
// property (sort order, presence of a temporary index), with operation
// nodes for every applicable implementation algorithm and enforcers (sort,
// index build). It also implements the Volcano costing of the DAG given a
// set of materialized nodes (§3.1), from scratch and incrementally (§4.2),
// with the rolled-back what-ifs all three MQO heuristics build on.
//
// Identities are dense integers fixed when Build returns, and everything
// the searches do per node, per operation node or per group indexes a slice
// with one of them. Build lays the DAG out over them once (flatDAG), and the
// costing recurrences read nothing else:
//
//   - Node.Topo, the topological number and the position in DAG.Nodes,
//     indexes node costs, the journal's entries, each node's range of the parents array, the propagation front's bits
//     and moved lists, and a plan walk's visited set;
//   - PExpr.id, the operation node's place in the layout, indexes its
//     operator cost, input weight, owner and range of input topological
//     numbers, and the links of the moved lists;
//   - the group table row (Node.gi; one row per logical group, found from
//     the logical side through a slice over dag.GroupID) holds the group's
//     physical nodes — where Build looks a (group, property) pair up by
//     comparing properties, never by rendering them — and its joins'
//     equi-column pairs, computed once per logical join; a node's slot in
//     the row is its bit in the group's bitmask words, which hold the
//     materialized set.
//
// Arming the result cache's alternatives adds operation nodes and Disarm takes
// them off; neither touches a node or a group, so those indices hold for the
// DAG's lifetime, and the next Recost renumbers the operation nodes.
package physical

import (
	"slices"
	"strings"

	"mqo/internal/algebra"
)

// Prop is a physical property: a required/delivered sort order, or access
// through an index on a column. A property never carries both (index nodes
// exist solely to feed index-based operators). The zero Prop is the "any"
// property.
type Prop struct {
	Sort  []algebra.Column // sort order, outermost first
	Index algebra.Column   // index availability on this column
	HasIx bool
}

// AnyProp is the "no requirement" property.
func AnyProp() Prop { return Prop{} }

// SortProp is a sort-order requirement.
func SortProp(cols ...algebra.Column) Prop { return Prop{Sort: cols} }

// IndexProp is an index-availability requirement.
func IndexProp(col algebra.Column) Prop { return Prop{Index: col, HasIx: true} }

// IsAny reports whether the property imposes no requirement.
func (p Prop) IsAny() bool { return len(p.Sort) == 0 && !p.HasIx }

// Equal reports whether p and q are the same property. It is how Build
// finds a group's existing node for a property, so it must agree with Key.
func (p Prop) Equal(q Prop) bool {
	if p.HasIx || q.HasIx {
		return p.HasIx == q.HasIx && p.Index == q.Index
	}
	return slices.Equal(p.Sort, q.Sort)
}

// Key is a canonical rendering of the property, for plan output and for the
// result cache's entry keys. Nothing on the build or costing path calls it.
func (p Prop) Key() string {
	if p.HasIx {
		return "ix:" + p.Index.String()
	}
	if len(p.Sort) == 0 {
		return "any"
	}
	parts := make([]string, len(p.Sort))
	for i, c := range p.Sort {
		parts[i] = c.String()
	}
	return "sort:" + strings.Join(parts, ",")
}

// String renders the property for plan output.
func (p Prop) String() string { return p.Key() }

// Satisfies reports whether a result delivered with property p can be used
// where r is required: any sort order satisfies the empty requirement, a
// sort order satisfies any prefix of itself, and an index requirement is
// satisfied only by the same index.
func (p Prop) Satisfies(r Prop) bool {
	if r.HasIx {
		return p.HasIx && p.Index == r.Index
	}
	if p.HasIx {
		// An index node carries no sort guarantee for sequential readers.
		return len(r.Sort) == 0
	}
	if len(r.Sort) > len(p.Sort) {
		return false
	}
	for i, c := range r.Sort {
		if p.Sort[i] != c {
			return false
		}
	}
	return true
}
