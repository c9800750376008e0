package physical

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/cost"
	"mqo/internal/psp"
	"mqo/internal/tpcd"
)

// TestPExprSize: an operation node is two cache lines. What grows it past
// that belongs behind Arm, or is derivable the way IxCol is.
func TestPExprSize(t *testing.T) {
	if size := unsafe.Sizeof(PExpr{}); size > 128 {
		t.Errorf("PExpr is %d bytes, want at most 128", size)
	}
}

// TestBuildAllocations holds Build on the six-tenant BQ5 batch to the
// allocations of its slab layout: operation nodes and their child arrays
// come from per-DAG chunks, a logical join's equi-column pairs are shared by
// its physical alternatives, and the flat layout keeps every node's parents
// in one array. A per-node or per-expression slice or map coming back adds
// thousands of allocations and fails the bound.
func TestBuildAllocations(t *testing.T) {
	ld := expandLogical(t, tpcd.TenantCatalog(1, 6), tpcd.TenantBatch(5, 6))
	model := cost.DefaultModel()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Build(ld, model); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 26500 {
		t.Errorf("Build allocated %.0f times, want at most 26500", allocs)
	}
}

// TestSubsumeNumberingIsDeterministic: the dense indices of this package
// mean something only if the same batch numbers its nodes the same way
// twice. Subsume used to add its derivations in Go map order, which moved
// group IDs and the order of expressions inside a group — and through
// them physical node IDs — from one build to the next.
func TestSubsumeNumberingIsDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cat     *catalog.Catalog
		queries func() []*algebra.Tree
	}{
		{"BQ5", tpcd.Catalog(1), func() []*algebra.Tree { return tpcd.BatchQueries(5) }},
		{"CQ3", psp.Catalog(1), func() []*algebra.Tree { return psp.CQ(3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first string
			for run := 0; run < 20; run++ {
				got := numbering(buildOver(t, tc.cat, tc.queries()))
				if run == 0 {
					first = got
				} else if got != first {
					t.Fatalf("build %d numbers the DAG differently from build 0:\n%s", run, firstDifference(first, got))
				}
			}
		})
	}
}

// numbering renders every live group's ID with its expressions in order
// (operator and input group IDs), then every physical node in ID order with
// its group, property and operation nodes' kinds and input node IDs.
func numbering(pd *DAG) string {
	var b strings.Builder
	for _, g := range pd.L.LiveGroups() {
		fmt.Fprintf(&b, "group %d:", g.ID)
		for _, e := range g.Exprs {
			fmt.Fprintf(&b, " %s(", e.Op)
			for _, c := range e.Children {
				fmt.Fprintf(&b, " %d", c.Find().ID)
			}
			b.WriteString(" )")
		}
		b.WriteByte('\n')
	}
	byID := make([]*Node, len(pd.Nodes))
	for _, n := range pd.Nodes {
		byID[n.ID] = n
	}
	for _, n := range byID {
		fmt.Fprintf(&b, "node %d: group %d %s topo %d:", n.ID, n.LG.ID, n.Prop, n.Topo)
		for _, e := range n.Exprs {
			fmt.Fprintf(&b, " %s(", e.Kind)
			for _, c := range e.Children {
				fmt.Fprintf(&b, " %d", c.ID)
			}
			b.WriteString(" )")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func firstDifference(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d\n  build 0: %s\n  now:     %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("%d lines against %d", len(la), len(lb))
}
