package physical

import (
	"fmt"
	"math/bits"
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
	// from 0 to len(Plan.Nodes)-1, and its place in Plan.Nodes: a search's
	// per-plan-node scratch is an array of the plan's size, not of the
	// DAG's.
	Index int32

	// NumParents counts distinct parent plan-node links; it is the basis
	// of the numuses⁻ underestimate used by Volcano-SH (paper §3.2).
	NumParents int

	// Cost is N's estimated computation cost under the costing state the
	// search left behind, stamped when the plan is sealed (Draft.Seal): the
	// DAG's cost of N (DAG.CostOf) is scratch its next optimization
	// rewrites.
	Cost cost.Cost
}

// Plan is a consolidated evaluation plan for the batch: the root plan node
// plus the computation plans of materialized nodes in dependency order. A
// plan is sealed (Draft.Seal): its nodes and their child links live in two
// arrays of its own, which no later search of the DAG writes.
type Plan struct {
	Root *PlanNode
	// Mats holds materialized plan nodes in topological (dependency)
	// order: earlier entries never read later ones.
	Mats []*PlanNode
	// Nodes holds every plan node the search extracted, by Index: the ones
	// the root reaches, and derivations Volcano-SH's subsumption prepass
	// switched in and out again.
	Nodes []PlanNode
}

// Node returns the plan node of the physical node n, nil when the plan has
// none. It scans Nodes: a plan has one plan node per physical node it uses.
func (p *Plan) Node(n *Node) *PlanNode {
	for i := range p.Nodes {
		if p.Nodes[i].N == n {
			return &p.Nodes[i]
		}
	}
	return nil
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

// ExtractPlan extracts and seals the best consolidated plan for the batch
// under the current costing state. With an empty materialized set this is
// exactly the basic Volcano best plan (paper §3.1); with a non-empty set,
// inputs whose reuse is cheaper than recomputation link to the materialized
// node's plan node, which is marked Mat. It extracts into one of the DAG's
// drafts (NewDraft).
func (pd *DAG) ExtractPlan() *Plan {
	d := pd.NewDraft()
	d.Root = d.Extract(pd.Root)
	d.Finish()
	return d.Seal()
}

// A Draft is a plan a search is building on the DAG. Its plan nodes and
// their child arrays are carved from chunks the draft keeps and reuses on
// the DAG's later searches: each chunk twice the size of the one before, so
// the storage grows with the plans the DAG's searches extract, and a chunk
// never moves once made, so a child link stays valid while the draft grows.
// Nothing of a draft may outlive the search: what it returns is the sealed
// copy (Seal).
type Draft struct {
	Root *PlanNode
	// Mats is the materialized plan nodes in dependency order (Plan.Mats).
	Mats []*PlanNode

	pd    *DAG
	nodes [][]PlanNode // chunk k holds firstNodes<<k plan nodes
	n     int32        // plan nodes handed out
	kids  [][]*PlanNode
	kid   int // the chunk of kids children are carved from
	kidAt int // the first unused slot of kids[kid]
}

// drafts is the DAG's plan-building storage. Extraction finds a node's plan
// node in the current draft through slot, by Node.Topo, instead of a map.
type drafts struct {
	slot []int32 // by Node.Topo: 1 + the Index of the node's plan node in cur, 0 for none
	cur  *Draft
	two  [2]Draft // handed out in turn
	next int
}

const (
	firstNodes = 16 // plan nodes in a draft's first chunk
	firstKids  = 32 // child links in a draft's first chunk of them
)

// NewDraft returns an empty draft for the DAG's next extraction, ending the
// previous one's: extraction (Extract, Add, Finish) goes to the draft
// NewDraft returned last. The DAG keeps two drafts and hands them out in
// turn, the first after a Reset, so a draft's plan stays readable until the
// second NewDraft after it — Volcano-RU compares the plans of its two order
// passes. One goroutine at a time may use a DAG's drafts, as it may search
// the DAG.
func (pd *DAG) NewDraft() *Draft {
	ds := &pd.drafts
	if ds.slot == nil {
		ds.slot = make([]int32, len(pd.Nodes))
	}
	if d := ds.cur; d != nil {
		for i := range d.n {
			ds.slot[d.At(i).N.Topo] = 0
		}
	}
	d := &ds.two[ds.next]
	ds.next ^= 1
	d.pd, d.Root, d.Mats = pd, nil, d.Mats[:0]
	d.n, d.kid, d.kidAt = 0, 0, 0
	ds.cur = d
	return d
}

// Len returns the number of plan nodes in the draft.
func (d *Draft) Len() int { return int(d.n) }

// At returns the plan node of index i.
func (d *Draft) At(i int32) *PlanNode {
	k := bits.Len32(uint32(i)/firstNodes+1) - 1 // chunk k starts at firstNodes·(2^k − 1)
	return &d.nodes[k][i-firstNodes*(1<<k-1)]
}

// Add adds a plan node for n, which has none in the draft, with e as its
// expression and children child links for the caller to fill.
func (d *Draft) Add(n *Node, e *PExpr, children int) *PlanNode {
	d.current()
	i := d.n
	k := bits.Len32(uint32(i)/firstNodes+1) - 1
	if k == len(d.nodes) {
		d.nodes = append(d.nodes, make([]PlanNode, firstNodes<<k))
	}
	d.n++
	d.pd.drafts.slot[n.Topo] = i + 1
	pn := d.At(i)
	*pn = PlanNode{N: n, E: e, Children: d.Kids(children), Index: i}
	return pn
}

// current panics unless d is the draft NewDraft returned last, the one the
// DAG's slots describe.
func (d *Draft) current() {
	if d.pd.drafts.cur != d {
		panic("physical: extraction into a draft NewDraft has since replaced")
	}
}

// Kids returns room for k child links, carved from the draft's chunks.
// Its elements are left from earlier plans: the caller sets every one.
func (d *Draft) Kids(k int) []*PlanNode {
	for {
		if d.kid == len(d.kids) {
			size := firstKids
			if d.kid > 0 {
				size = 2 * len(d.kids[d.kid-1])
			}
			d.kids = append(d.kids, make([]*PlanNode, max(size, k)))
		}
		if c := d.kids[d.kid]; d.kidAt+k <= len(c) {
			d.kidAt += k
			return c[d.kidAt-k : d.kidAt : d.kidAt]
		}
		d.kid, d.kidAt = d.kid+1, 0
	}
}

// Finish marks the current materialized set in the draft and fills the
// dependency-ordered Mats list, extracting computation plans for
// materialized nodes not already present.
func (d *Draft) Finish() {
	for _, m := range d.pd.costing.matList {
		pn := d.Extract(m)
		pn.Mat = true
		d.Mats = append(d.Mats, pn)
	}
}

// Extract extracts (memoized) the plan node for n into the draft, following
// the current costing state's choices. When an input is served more cheaply
// by a materialized node of the same group, the link goes to that node's
// plan node, so sharing appears as a DAG edge rather than a plan copy.
func (d *Draft) Extract(n *Node) *PlanNode {
	pd := d.pd
	d.current()
	if i := pd.drafts.slot[n.Topo]; i > 0 {
		return d.At(i - 1)
	}
	var best *PExpr
	bestCost := unpriced
	for _, e := range n.Exprs {
		if c := pd.exprCost(e.id, bestCost); c < bestCost {
			best, bestCost = e, c
		}
	}
	pn := d.Add(n, best, len(best.Children))
	for i, c := range best.Children {
		target := c
		if m := pd.firstUsableMat(c, n); m != nil && c.ReuseSeq < pd.CostOf(c) {
			target = m
		}
		cp := d.Extract(target)
		cp.NumParents++
		pn.Children[i] = cp
	}
	return pn
}

// Seal returns the draft's plan as a Plan of its own: the plan nodes copied
// into one exact-size array, in Index order, their child links into one
// more, every pointer rebased onto the copies, and each node's Cost stamped
// from the DAG's current costing state. No later search of the DAG writes
// what Seal returns.
func (d *Draft) Seal() *Plan {
	links := 0
	for i := range d.n {
		links += len(d.At(i).Children)
	}
	p := &Plan{Nodes: make([]PlanNode, d.n)}
	kids := make([]*PlanNode, links)
	for i := range p.Nodes {
		pn := &p.Nodes[i]
		*pn = *d.At(int32(i))
		pn.Cost = d.pd.CostOf(pn.N)
		k := len(pn.Children)
		for j, c := range pn.Children {
			kids[j] = &p.Nodes[c.Index]
		}
		pn.Children, kids = kids[:k:k], kids[k:]
	}
	p.Root = &p.Nodes[d.Root.Index]
	if len(d.Mats) > 0 {
		p.Mats = make([]*PlanNode, len(d.Mats))
		for i, m := range d.Mats {
			p.Mats[i] = &p.Nodes[m.Index]
		}
	}
	return p
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
