package physical

import (
	"fmt"
	"strings"

	"mqo/internal/cost"
)

// PlanNode is one node of an extracted evaluation plan. A plan is a DAG:
// nodes chosen for more than one parent appear once with multiple parents,
// which is how sharing (materialized or recomputed) is represented.
type PlanNode struct {
	N        *Node
	E        *PExpr
	Children []*PlanNode

	// Mat marks plan nodes whose result is materialized: computed once,
	// written to temporary storage, and read by every consumer.
	Mat bool

	// Index is the plan node's place in its plan's extraction order, dense
	// from 0 to len(Plan.ByNode)-1 (a node added by hand takes the next
	// one): a search's per-plan-node scratch is an array of the plan's
	// size, not of the DAG's.
	Index int32

	// NumParents counts distinct parent plan-node links; it is the basis
	// of the numuses⁻ underestimate used by Volcano-SH (paper §3.2).
	NumParents int

	// Cost is N's estimated computation cost under the costing state the
	// search left behind, stamped when the plan is returned (core.Optimize):
	// the DAG's cost of N (DAG.CostOf) is scratch its next optimization
	// rewrites.
	Cost cost.Cost
}

// Plan is a consolidated evaluation plan for the batch: the root plan node
// plus the computation plans of materialized nodes in dependency order.
type Plan struct {
	Root *PlanNode
	// Mats holds materialized plan nodes in topological (dependency)
	// order: earlier entries never read later ones.
	Mats []*PlanNode
	// ByNode maps physical nodes to their unique plan node.
	ByNode map[*Node]*PlanNode
}

// QueryRoots returns the plan nodes of the batch's queries, in batch order:
// the pseudo-root's children, or the root itself when the plan was extracted
// for a single node.
func (p *Plan) QueryRoots() []*PlanNode {
	if p.Root.E.Kind != Batch {
		return []*PlanNode{p.Root}
	}
	return p.Root.Children
}

// NewPlan returns an empty plan for incremental extraction (Volcano-RU).
func NewPlan() *Plan { return &Plan{ByNode: map[*Node]*PlanNode{}} }

// ExtractPlan extracts the best consolidated plan for the batch under the
// current costing state. With an empty materialized set this is exactly the
// basic Volcano best plan (paper §3.1); with a non-empty set, inputs whose
// reuse is cheaper than recomputation link to the materialized node's plan
// node, which is marked Mat.
func (pd *DAG) ExtractPlan() *Plan {
	p := NewPlan()
	p.Root = pd.ExtractInto(p, pd.Root)
	pd.FinishPlan(p)
	return p
}

// FinishPlan marks the current materialized set in the plan and fills the
// dependency-ordered Mats list, extracting computation plans for
// materialized nodes not already present.
func (pd *DAG) FinishPlan(p *Plan) {
	for _, m := range pd.costing.matList {
		pn := pd.ExtractInto(p, m)
		pn.Mat = true
		p.Mats = append(p.Mats, pn)
	}
}

// ExtractInto extracts (memoized) the plan node for n into p, following the
// current costing state's choices. When an input is served more cheaply by
// a materialized node of the same group, the link goes to that node's plan
// node, so sharing appears as a DAG edge rather than a plan copy.
func (pd *DAG) ExtractInto(p *Plan, n *Node) *PlanNode {
	if pn, ok := p.ByNode[n]; ok {
		return pn
	}
	pn := &PlanNode{N: n, Index: int32(len(p.ByNode))}
	p.ByNode[n] = pn
	var best *PExpr
	bestCost := unpriced
	for _, e := range n.Exprs {
		if c := pd.exprCost(e.id, bestCost); c < bestCost {
			best, bestCost = e, c
		}
	}
	pn.E = best
	pn.Children = make([]*PlanNode, len(best.Children))
	for i, c := range best.Children {
		target := c
		if m := pd.firstUsableMat(c, n); m != nil && c.ReuseSeq < pd.CostOf(c) {
			target = m
		}
		cp := pd.ExtractInto(p, target)
		cp.NumParents++
		pn.Children[i] = cp
	}
	return pn
}

// Walk visits every plan node reachable from pn once, children first. A
// plan holds one plan node per physical node, so the visited set is a bitset
// over Node.Topo. It lives in the walk's own frame — on the heap only for
// the part of a DAG beyond walkBits nodes — and never on the plan nodes,
// which cached plans share between goroutines.
func (pn *PlanNode) Walk(f func(*PlanNode)) {
	var seen walkSet
	pn.walk(&seen, f)
}

func (pn *PlanNode) walk(seen *walkSet, f func(*PlanNode)) {
	if seen.visit(pn.N.Topo) {
		return
	}
	for _, c := range pn.Children {
		c.walk(seen, f)
	}
	f(pn)
}

const walkBits = 4096

type walkSet struct {
	low  [walkBits / 64]uint64
	high []uint64 // topological numbers from walkBits up
}

// visit marks topo and reports whether it was marked already.
func (s *walkSet) visit(topo int) bool {
	words := s.low[:]
	if topo >= walkBits {
		topo -= walkBits
		if need := topo/64 + 1; need > len(s.high) {
			s.high = append(s.high, make([]uint64, need-len(s.high))...)
		}
		words = s.high
	}
	w, bit := &words[topo/64], uint64(1)<<(topo%64)
	was := *w&bit != 0
	*w |= bit
	return was
}

// String renders the plan with sharing and materialization annotations.
func (p *Plan) String() string {
	var b strings.Builder
	seen := map[*PlanNode]bool{}
	var rec func(pn *PlanNode, depth int)
	rec = func(pn *PlanNode, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		if seen[pn] {
			fmt.Fprintf(&b, "↑shared node %d (%s)\n", pn.N.ID, pn.E.Kind)
			return
		}
		seen[pn] = true
		fmt.Fprintf(&b, "%s [node %d, %s, rows %.0f]", pn.E.Kind, pn.N.ID, pn.N.Prop, pn.N.LG.Rel.Rows)
		if pn.E.Kind == InvokePartial {
			// Counts only — table names and tiers vary with cache history,
			// and the rendered plan must stay byte-identical across cache
			// histories and tiers for the same armed binding sets.
			fmt.Fprintf(&b, " (%d cached, %d residual)", len(pn.E.Arm.BindScans), len(pn.E.Arm.ResidualBinds))
		}
		if pn.Mat {
			b.WriteString(" MATERIALIZED")
		}
		if pn.E.LE != nil {
			fmt.Fprintf(&b, " %s", pn.E.LE.Op.String())
		}
		b.WriteByte('\n')
		for _, c := range pn.Children {
			rec(c, depth+1)
		}
	}
	rec(p.Root, 0)
	return b.String()
}
