package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mqo/internal/cost"
	"mqo/internal/physical"
	"mqo/internal/ssb"
)

// referee computes the paper's Figure 5 TotalCost(Q, M) from scratch: the
// cost of the best plan for the batch root given that exactly the nodes of M
// are materialized, plus the cost of computing and writing every member. It
// reads only the DAG's structure — nodes, operation nodes, their operator
// costs, weights and properties — and has its own min, its own C(e) and its
// own reuse rule, so it shares nothing with the incremental machinery it
// referees (propagation, what-ifs, the search's cost store).
type referee struct {
	mats map[*physical.Node]bool
	memo map[*physical.Node]float64
}

func refereeCost(pd *physical.DAG, M []*physical.Node) float64 {
	r := &referee{mats: map[*physical.Node]bool{}, memo: map[*physical.Node]float64{}}
	for _, m := range M {
		r.mats[m] = true
	}
	total := r.cost(pd.Root)
	for _, m := range M {
		total += r.cost(m) + float64(m.MatCost)
	}
	return total
}

// cost is the node's computation cost: the least, over its operation nodes,
// of the operator's own cost plus its weighted inputs.
func (r *referee) cost(n *physical.Node) float64 {
	if c, ok := r.memo[n]; ok {
		return c
	}
	best := math.Inf(1)
	for _, e := range n.Exprs {
		c := float64(e.OpCost)
		for _, in := range e.Children {
			c += e.Weight() * r.input(in, n)
		}
		best = math.Min(best, c)
	}
	r.memo[n] = best
	return best
}

// input is C(e) for input in of an operator owned by owner: the cheaper of
// computing it and reading a materialized result back, when some member of
// M can serve it.
func (r *referee) input(in, owner *physical.Node) float64 {
	c := r.cost(in)
	if r.servable(in, owner) {
		c = math.Min(c, float64(in.ReuseSeq))
	}
	return c
}

// servable reports whether a member of M serves in's requirement for an
// operator owned by owner: a node of in's logical group whose property
// satisfies in's, other than owner itself, and — when owner is of the same
// group, an enforcer over in — in itself only.
func (r *referee) servable(in, owner *physical.Node) bool {
	for m := range r.mats {
		if m.LG != in.LG || m == owner {
			continue
		}
		if owner.LG == in.LG && m != in {
			continue
		}
		if m.Prop.Satisfies(in.Prop) {
			return true
		}
	}
	return false
}

// refereePlanCost prices an extracted plan from scratch: every plan node
// once, at its chosen operator's cost plus its weighted inputs, a
// materialized input at the cheaper of computing it and reading it back;
// then the root plus the computation and write of every materialized plan
// node. It is TotalCost with the plan's choices fixed, where refereeCost
// makes them. A plan that reaches a node through itself has no cost.
func refereePlanCost(plan *physical.Plan) (float64, error) {
	memo := map[*physical.PlanNode]float64{}
	open := map[*physical.PlanNode]bool{}
	var costOf func(pn *physical.PlanNode) (float64, error)
	costOf = func(pn *physical.PlanNode) (float64, error) {
		if c, ok := memo[pn]; ok {
			return c, nil
		}
		if open[pn] {
			return 0, fmt.Errorf("plan node %d (%s) is its own input", pn.N.ID, pn.E.Kind)
		}
		open[pn] = true
		c := float64(pn.E.OpCost)
		for _, in := range pn.Children {
			ic, err := costOf(in)
			if err != nil {
				return 0, err
			}
			if in.Mat {
				ic = math.Min(ic, float64(in.N.ReuseSeq))
			}
			c += pn.E.Weight() * ic
		}
		memo[pn] = c
		return c, nil
	}
	total, err := costOf(plan.Root)
	for _, m := range plan.Mats {
		if err != nil {
			break
		}
		var c float64
		c, err = costOf(m)
		total += c + float64(m.N.MatCost)
	}
	return total, err
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(b), 1) }

// checkAgainstReferee holds res to the referee: its cost is what its plan
// costs, to 1e-9 relative, and never below the best any plan can do with its
// materialized set. Volcano (with nothing materialized) and Greedy search
// over that best directly (Figure 5), so their costs must equal it;
// Volcano-SH and Volcano-RU decide materializations on a plan fixed before
// them, and report that plan's cost.
func checkAgainstReferee(t *testing.T, pd *physical.DAG, alg Algorithm, res *Result, what string) {
	t.Helper()
	got := float64(res.Cost)
	if want, err := refereePlanCost(res.Plan); err != nil {
		t.Errorf("%s: %v", what, err)
	} else if !near(got, want) {
		t.Errorf("%s: cost %.12g, the referee prices its plan at %.12g", what, got, want)
	}
	best := refereeCost(pd, res.Materialized)
	switch {
	case (alg == Volcano || alg == Greedy) && !near(got, best):
		t.Errorf("%s: cost %.12g, the referee prices its %d materialized nodes at %.12g",
			what, got, len(res.Materialized), best)
	case got < best && !near(got, best):
		t.Errorf("%s: cost %.12g is below the referee's best with its %d materialized nodes, %.12g",
			what, got, len(res.Materialized), best)
	}
}

// TestCostsMatchReferee holds every search's reported cost to the referee
// (checkAgainstReferee): all four algorithms on every golden batch of the
// paper's experiments (BQ1–5, CQ1–5), on the random batches of the
// statistics fuzz, and on an SSB DAG the result cache's alternatives were
// armed on — once fresh, once after Disarm and arming again.
func TestCostsMatchReferee(t *testing.T) {
	model := cost.DefaultModel()
	for _, w := range goldenWorkloads() {
		if w.name[:2] != "bq" && w.name[:2] != "cq" {
			continue
		}
		pd, err := BuildDAG(w.cat, model, w.queries)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		refereeAlgorithms(t, pd, w.name)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		batch := randomBatch(rng)
		cat, _ := fuzzCatalog(rng, 1)
		pd, err := BuildDAG(cat, model, batch)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		refereeAlgorithms(t, pd, fmt.Sprintf("fuzz trial %d", trial))
	}

	pd, err := BuildDAG(ssb.Catalog(0.01), model, append(ssb.DrillParam(4), ssb.Flight(1)...))
	if err != nil {
		t.Fatal(err)
	}
	armReferee(t, pd)
	fresh := refereeAlgorithms(t, pd, "armed SSB")
	pd.Disarm()
	pd.Reset()
	armReferee(t, pd)
	again := refereeAlgorithms(t, pd, "armed SSB, disarmed and armed again")
	for i, c := range again {
		if c != fresh[i] {
			t.Errorf("%v: armed again, cost %v; armed fresh, %v", Algorithms()[i], c, fresh[i])
		}
	}
}

// armReferee arms what the result cache would on pd: a warm-tier CacheScan,
// priced as a leaf at its read-back, on every third parameter-free node, and
// beside every Invoke an InvokePartial serving one of two bindings.
func armReferee(t *testing.T, pd *physical.DAG) {
	t.Helper()
	m := pd.Model
	scans, partials := 0, 0
	for _, n := range pd.Nodes {
		e := n.Exprs[0]
		switch {
		case e.Kind == physical.InvokeOp:
			body := e.Children[0]
			blocks := body.Blocks(m)
			pd.ArmInvokePartial(n, e.LE, body, cost.ResidualInvokeWeight(e.Weight(), 1, 2),
				m.BindingReadbackCost([]cost.Tier{cost.TierWarm}, []float64{blocks}),
				[]physical.BindScan{{Bind: "b1", Table: "t1", Tier: cost.TierWarm}}, []string{"b2"}, "fp")
			partials++
		case n != pd.Root && !n.LG.ParamDep && !n.Prop.HasIx && n.Topo%3 == 0:
			pd.ArmCacheScan(n, "t", m.TierScanCost(cost.TierWarm, n.Blocks(m)), cost.TierWarm)
			scans++
		}
	}
	if scans == 0 || partials == 0 {
		t.Fatalf("armed %d CacheScans and %d InvokePartials", scans, partials)
	}
}

// refereeAlgorithms checks every algorithm's result on pd against the
// referee and returns their costs, in Algorithms order.
func refereeAlgorithms(t *testing.T, pd *physical.DAG, name string) []cost.Cost {
	t.Helper()
	var costs []cost.Cost
	for _, alg := range Algorithms() {
		res, err := Optimize(context.Background(), pd, alg, Options{})
		if err != nil {
			t.Fatalf("%s %v: %v", name, alg, err)
		}
		checkAgainstReferee(t, pd, alg, res, fmt.Sprintf("%s %v", name, alg))
		costs = append(costs, res.Cost)
	}
	return costs
}
